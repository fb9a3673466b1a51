"""The communication channel of Section 2.3.

A channel is a passive store with the four actions of the model:

* ``send_pkt(p)`` — the sending station places packet ``p`` on the channel;
  the channel assigns a unique identifier and announces
  ``new_pkt(id, length(p))`` to the adversary;
* ``deliver_pkt(id)`` — the adversary orders delivery of a previously sent
  packet; the channel responds with ``receive_pkt(p)``.

The channel itself never loses, duplicates or reorders anything — *all*
indeterminism lives in the adversary, exactly as the paper specifies
("Properties such as fairness and causality are treated as restrictions on
the behavior of the adversary, not of the communication channel").  A
packet, once sent, may be delivered any number of times, including zero;
asking for an identifier that was never issued raises
:class:`~repro.core.exceptions.UnknownPacketError` (the causality axiom is
enforced by construction).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.bitstrings import BitString
from repro.core.events import ChannelId
from repro.core.exceptions import UnknownPacketError
from repro.core.packets import (
    Packet,
    encode_packet,
    make_data_packet,
    make_poll_packet,
)
from repro.util.hotpath import trusted_constructor

__all__ = ["PacketInfo", "Channel", "ChannelPair"]

# One PacketInfo is minted per send_pkt — the hot path pays for it.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class PacketInfo:
    """What ``new_pkt(id, l)`` reveals to the adversary: identity and length.

    This is the *entire* view the adversary gets of a packet — the
    oblivious-adversary assumption of Section 2.5 is enforced by never
    handing adversaries anything richer than this record.
    """

    channel: ChannelId
    packet_id: int
    length_bits: int


_make_packet_info = trusted_constructor(
    PacketInfo, "channel", "packet_id", "length_bits"
)


class Channel:
    """One unidirectional communication channel.

    Parameters
    ----------
    channel_id:
        Which direction this channel carries (``T->R`` or ``R->T``).
    on_new_pkt:
        Optional callback invoked with the :class:`PacketInfo` of every
        sent packet — how the adversary learns of ``new_pkt`` events.
    """

    def __init__(
        self,
        channel_id: ChannelId,
        on_new_pkt: Optional[Callable[[PacketInfo], None]] = None,
    ) -> None:
        self.channel_id = channel_id
        self._on_new_pkt = on_new_pkt
        self._store: Dict[int, Packet] = {}
        # Flat packet tuples parked by the kernel engines (see
        # repro.kernel.engine), which write to the dict in place for the
        # whole run.  Exactly one of _store/_flat_store holds the
        # channel's contents; reads build packets from the tuples, and the
        # whole store is materialised only when the object engine takes
        # the channel back, so campaign runs that never re-read their
        # packets skip the rebuild entirely.
        self._flat_store: Optional[Dict[int, tuple]] = None

        self._next_id = 0
        self._sent_count = 0
        self._delivered_count = 0
        self._bits_sent = 0

    def reset(self) -> None:
        """Empty the channel for a new execution, keeping identity and wiring.

        Identifiers restart from 0 — a reused channel must mint the exact
        id sequence a fresh one would, or replay-style adversaries and the
        determinism guarantees of campaign sharding break.
        """
        self._store.clear()
        self._flat_store = None
        self._next_id = 0
        self._sent_count = 0
        self._delivered_count = 0
        self._bits_sent = 0

    def _flatten(self) -> Dict[int, tuple]:
        """Park the contents as flat tuples and return the live dict.

        The inverse of :meth:`_materialize`.  ``T->R`` packets flatten to
        ``(message, rho_value, rho_length, tau_value, tau_length)``,
        ``R->T`` packets to ``(rho_value, rho_length, tau_value,
        tau_length, retry)``.  A kernel run adopts the returned dict as
        the channel's store and writes to it in place.
        """
        flat = self._flat_store
        if flat is None:
            if self.channel_id is ChannelId.T_TO_R:
                flat = {
                    pid: (pkt.message, pkt.rho._value, pkt.rho._length,
                          pkt.tau._value, pkt.tau._length)
                    for pid, pkt in self._store.items()
                }
            else:
                flat = {
                    pid: (pkt.rho._value, pkt.rho._length,
                          pkt.tau._value, pkt.tau._length, pkt.retry)
                    for pid, pkt in self._store.items()
                }
            self._store.clear()
            self._flat_store = flat
        return flat

    def _unflatten(self, item: tuple) -> Packet:
        """Build the packet object of one parked flat tuple."""
        trusted = BitString._trusted
        if self.channel_id is ChannelId.T_TO_R:
            message, rv, rl, tv, tl = item
            return make_data_packet(message, trusted(rv, rl), trusted(tv, tl))
        rv, rl, tv, tl, retry = item
        return make_poll_packet(trusted(rv, rl), trusted(tv, tl), retry)

    def _materialize(self) -> None:
        """Rebuild packet objects from kernel-parked flat tuples.

        The kernel engine leaves the store as flat int tuples (its native
        representation) and this rebuilds ``DataPacket``/``PollPacket``
        objects on first access.  Nonces are interned through a cache —
        retried packets reuse the same (value, length) pairs and
        ``BitString`` is an immutable value type, so sharing is
        unobservable.
        """
        flat = self._flat_store
        if flat is None:
            return
        self._flat_store = None
        trusted = BitString._trusted
        cache: Dict[tuple, BitString] = {}
        cache_get = cache.get
        store = self._store
        if self.channel_id is ChannelId.T_TO_R:
            for pid, (message, rv, rl, tv, tl) in flat.items():
                key = (rv, rl)
                rho = cache_get(key)
                if rho is None:
                    rho = cache[key] = trusted(rv, rl)
                key = (tv, tl)
                tau = cache_get(key)
                if tau is None:
                    tau = cache[key] = trusted(tv, tl)
                store[pid] = make_data_packet(message, rho, tau)
        else:
            for pid, (rv, rl, tv, tl, retry) in flat.items():
                key = (rv, rl)
                rho = cache_get(key)
                if rho is None:
                    rho = cache[key] = trusted(rv, rl)
                key = (tv, tl)
                tau = cache_get(key)
                if tau is None:
                    tau = cache[key] = trusted(tv, tl)
                store[pid] = make_poll_packet(rho, tau, retry)

    # -- model actions ------------------------------------------------------------

    def send_pkt(self, packet: Packet) -> PacketInfo:
        """``send_pkt(p)``: store the packet, mint an id, announce new_pkt."""
        packet_id = self._next_id
        self._next_id += 1
        self._store[packet_id] = packet
        self._sent_count += 1
        length_bits = packet.wire_length_bits
        self._bits_sent += length_bits
        info = _make_packet_info(self.channel_id, packet_id, length_bits)
        if self._on_new_pkt is not None:
            self._on_new_pkt(info)
        return info

    def deliver_pkt(self, packet_id: int) -> Packet:
        """``deliver_pkt(id)``: produce the stored packet (any number of times)."""
        try:
            packet = self._store[packet_id]
        except KeyError:
            if self._flat_store is None:
                raise UnknownPacketError(packet_id) from None
            self._materialize()
            try:
                packet = self._store[packet_id]
            except KeyError:
                raise UnknownPacketError(packet_id) from None
        self._delivered_count += 1
        return packet

    # -- inspection (for metrics and adversaries' legitimate view) ------------------

    def peek(self, packet_id: int) -> Packet:
        """Read a stored packet's contents WITHOUT delivering it.

        This deliberately breaks the oblivious-adversary assumption of
        Section 2.5 and exists only for the content-aware extension
        adversaries (:mod:`repro.extensions.content_aware`), which study
        what happens when that assumption is dropped.  Core-model
        adversaries must never call it.  On a kernel-parked store it
        builds the one packet asked for and leaves the store parked (a
        kernel run may be writing to it).
        """
        flat = self._flat_store
        if flat is not None:
            item = flat.get(packet_id)
            if item is None:
                raise UnknownPacketError(packet_id)
            return self._unflatten(item)
        try:
            return self._store[packet_id]
        except KeyError:
            raise UnknownPacketError(packet_id) from None

    def has_packet(self, packet_id: int) -> bool:
        """True iff the id was ever issued by this channel."""
        if self._flat_store is not None:
            return packet_id in self._flat_store
        return packet_id in self._store

    def packet_length_bits(self, packet_id: int) -> int:
        """The length the adversary may observe for a given id."""
        return self.peek(packet_id).wire_length_bits

    @property
    def sent_count(self) -> int:
        """Total ``send_pkt`` actions so far."""
        return self._sent_count

    @property
    def delivered_count(self) -> int:
        """Total ``deliver_pkt`` actions so far (deliveries, not packets)."""
        return self._delivered_count

    @property
    def bits_sent(self) -> int:
        """Total wire bits placed on this channel (communication cost)."""
        return self._bits_sent

    def all_packet_ids(self) -> List[int]:
        """Every id ever issued — the adversary's replay arsenal."""
        if self._flat_store is not None:
            return list(self._flat_store.keys())
        return list(self._store.keys())

    def __repr__(self) -> str:
        return (
            f"Channel({self.channel_id}, sent={self._sent_count}, "
            f"delivered={self._delivered_count})"
        )


class ChannelPair:
    """The two channels of Figure 1, wired with a shared new_pkt listener."""

    def __init__(
        self, on_new_pkt: Optional[Callable[[PacketInfo], None]] = None
    ) -> None:
        self.t_to_r = Channel(ChannelId.T_TO_R, on_new_pkt)
        self.r_to_t = Channel(ChannelId.R_TO_T, on_new_pkt)

    def reset(self) -> None:
        """Reset both directions (see :meth:`Channel.reset`)."""
        self.t_to_r.reset()
        self.r_to_t.reset()

    def by_id(self, channel_id: ChannelId) -> Channel:
        """Look a channel up by direction."""
        if channel_id == ChannelId.T_TO_R:
            return self.t_to_r
        if channel_id == ChannelId.R_TO_T:
            return self.r_to_t
        raise ValueError(f"unknown channel id {channel_id!r}")

    @property
    def total_bits_sent(self) -> int:
        """Combined communication cost across both directions."""
        return self.t_to_r.bits_sent + self.r_to_t.bits_sent

    @property
    def total_packets_sent(self) -> int:
        """Combined packet count across both directions."""
        return self.t_to_r.sent_count + self.r_to_t.sent_count
