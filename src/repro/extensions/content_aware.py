"""Dropping the obliviousness assumption: adversaries that read packets.

Section 5's second direction: "weaken the assumption that the adversary
does not depend on the contents of packets."  The model justifies
obliviousness either physically (non-malicious networks) or by encryption
(Section 2.5); this module studies the alternative directly.

:class:`ContentAwareReplayAttacker` upgrades the Section 3 attack from
probabilistic flooding to surgery: during harvest it indexes every data
packet *by its echoed challenge value* (reading contents via
:meth:`repro.channel.Channel.peek`, the explicit model-violation hook).
After crashing both stations it reads each receiver poll, looks the fresh
challenge up in its index, and — when present — delivers exactly the one
archived packet that matches.

Findings the tests pin down:

* against the fixed-nonce strawman the attack is devastating: once the
  archive covers the ``2^b`` challenge space, success is a lookup, not a
  lottery — no flooding, a handful of deliveries;
* against the real protocol the attack still fails *as long as causality
  holds*: the fresh challenge has ``size(1, ε) ≥ ⌈log2(1/ε)⌉ + 6`` bits,
  so the archive contains it with probability ≤ n·2^(−size(1)) ≤ ε·n/64 —
  content awareness buys the adversary knowledge of *whether* it can win,
  not the ability to win.  The protocol's security rests on challenge
  entropy, not on the adversary's blindness.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Optional

from repro.adversary.base import (
    CRASH_RECEIVER,
    CRASH_TRANSMITTER,
    PASS,
    TRIGGER_RETRY,
    Adversary,
    Move,
    make_deliver,
)
from repro.channel.channel import ChannelPair, PacketInfo
from repro.core.bitstrings import BitString
from repro.core.events import ChannelId
from repro.core.packets import DataPacket, PollPacket

__all__ = ["ContentAwareReplayAttacker"]


class _Phase(enum.Enum):
    HARVEST = "harvest"
    CRASH_T = "crash-t"
    CRASH_R = "crash-r"
    SURGERY = "surgery"


class ContentAwareReplayAttacker(Adversary):
    """Content-reading crash-then-replay attacker (model violation).

    Must be attached to the simulation's channels via
    :meth:`attach_channels` before the run starts; the simulator exposes
    them as :attr:`~repro.sim.Simulator.channels`.

    Parameters
    ----------
    harvest_messages:
        Data packets to index before striking.
    strike_budget:
        Poll inspections allowed during surgery before giving up and
        behaving faithfully (keeps runs bounded).
    """

    def __init__(self, harvest_messages: int = 64, strike_budget: int = 400) -> None:
        super().__init__()
        if harvest_messages < 1:
            raise ValueError("harvest_messages must be >= 1")
        self._harvest_target = harvest_messages
        self._strike_budget = strike_budget
        self._channels: Optional[ChannelPair] = None
        self._pending: Deque[PacketInfo] = deque()
        self._index: Dict[BitString, PacketInfo] = {}
        self._frozen_index: Optional[Dict[BitString, PacketInfo]] = None
        self._data_packets_seen = 0
        self._phase = _Phase.HARVEST
        self._strikes = 0
        self.surgical_hits = 0
        self.strikes_at_first_hit: Optional[int] = None

    def attach_channels(self, channels: ChannelPair) -> None:
        """Grant content access (the explicit Section 2.5 violation)."""
        self._channels = channels

    @property
    def archive_size(self) -> int:
        """Distinct challenge values indexed so far."""
        return len(self._index)

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending.append(info)
        if info.channel != ChannelId.T_TO_R or self._channels is None:
            return
        packet = self._channels.t_to_r.peek(info.packet_id)
        if isinstance(packet, DataPacket):
            # Index by the echoed challenge: if this exact value ever
            # reappears as a fresh challenge, this packet replays a message.
            self._data_packets_seen += 1
            self._index.setdefault(packet.rho, info)

    def _decide(self) -> Move:
        if self._phase == _Phase.HARVEST:
            if self._data_packets_seen >= self._harvest_target:
                self._phase = _Phase.CRASH_T
                # Freeze the arsenal: only packets archived BEFORE the
                # crash are replays; anything indexed later is just the
                # live protocol echoing the current challenge.
                self._frozen_index = dict(self._index)
            return self._faithful_move()
        if self._phase == _Phase.CRASH_T:
            self._phase = _Phase.CRASH_R
            return CRASH_TRANSMITTER
        if self._phase == _Phase.CRASH_R:
            self._phase = _Phase.SURGERY
            return CRASH_RECEIVER
        return self._surgery_move()

    def _surgery_move(self) -> Move:
        if self._strikes >= self._strike_budget:
            return self._faithful_move()
        self._strikes += 1
        challenge = self._read_current_challenge()
        if challenge is not None and self._frozen_index is not None:
            hit = self._frozen_index.get(challenge)
            if hit is not None:
                self.surgical_hits += 1
                if self.strikes_at_first_hit is None:
                    self.strikes_at_first_hit = self._strikes
                return make_deliver(hit.channel, hit.packet_id)
        # No archived packet matches the live challenge: provoke another
        # poll and read again.  (Against the real protocol this loops until
        # the budget runs out — the index simply never contains the value.)
        return TRIGGER_RETRY

    def _read_current_challenge(self) -> Optional[BitString]:
        """Peek the newest receiver poll for its challenge value."""
        if self._channels is None:
            return None
        ids = self._channels.r_to_t.all_packet_ids()
        if not ids:
            return None
        packet = self._channels.r_to_t.peek(ids[-1])
        if isinstance(packet, PollPacket):
            return packet.rho
        return None

    def _faithful_move(self) -> Move:
        if self._pending:
            info = self._pending.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        return (
            f"content-aware-replay(indexed={len(self._index)}, "
            f"hits={self.surgical_hits}, phase={self._phase.value})"
        )
