"""Dropping the causality axiom: channels that deliver unsent packets.

Section 5 names this the main open problem: "extend the protocol to a
model in which ... the communication channel [may] deliver packets that
were not sent. ... In such a model, our protocol satisfies all the
correctness conditions except liveness."

This module makes that claim executable:

* :class:`InjectForgery` is a new adversary move: mint a packet that was
  never sent and deliver it.  Obliviousness is preserved — the adversary
  chooses only the *shape* (field lengths); the harness draws the contents
  from its own noise tape, modelling line noise that happens to pass the
  frame check.
* :class:`ForgingSimulator` extends the standard harness to honour the
  move (the base simulator rejects it, keeping the core model pure).
* :class:`RandomNoiseForger` sprinkles random forgeries over an otherwise
  benign schedule — safety should survive (experimentally it does; the
  nonce machinery treats forgeries as ordinary errors).
* :class:`ForgeryLivenessAttacker` is the liveness counterexample: every
  time the receiver polls, it floods forged data packets whose ρ-field
  length matches the receiver's current challenge length (inferred from
  the protocol's public size schedule).  Each batch burns the error budget
  and forces another extension, so the challenge never stabilises and the
  handshake never completes — even though genuine packets keep being
  delivered fairly.  This is precisely why Theorem 9 needs causality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.adversary.base import (
    PASS,
    Adversary,
    Move,
    make_deliver,
)
from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId, Event
from repro.core.packets import DataPacket, PollPacket
from repro.core.params import ProtocolParams
from repro.core.random_source import RandomSource
from repro.sim.simulator import Simulator

__all__ = [
    "InjectForgery",
    "PktForged",
    "ForgingSimulator",
    "RandomNoiseForger",
    "ForgeryLivenessAttacker",
]


@dataclass(frozen=True)
class InjectForgery(Move):
    """Deliver a freshly minted, never-sent packet of a chosen shape.

    For the data direction (``T->R``) the forged packet is a
    :class:`DataPacket` with ``payload_bytes`` of noise payload and random
    ρ/τ fields of the given bit lengths; for ``R->T`` it is a
    :class:`PollPacket` (``payload_bytes`` ignored).  Contents come from
    the harness's noise tape, never from the adversary.
    """

    channel: ChannelId
    rho_bits: int
    tau_bits: int
    payload_bytes: int = 8
    max_retry: int = 16

    def __post_init__(self) -> None:
        if self.rho_bits < 0 or self.tau_bits < 0 or self.payload_bytes < 0:
            raise ValueError("forged field sizes must be non-negative")
        if self.max_retry < 0:
            raise ValueError("max_retry must be non-negative")


@dataclass(frozen=True)
class PktForged(Event):
    """Trace record of a forged delivery (no send_pkt ever preceded it)."""

    channel: ChannelId
    length_bits: int


class ForgingSimulator(Simulator):
    """A :class:`~repro.sim.Simulator` that honours :class:`InjectForgery`.

    Kept separate from the core harness so the base model's causality
    guarantee stays enforced by construction everywhere else.  It runs on
    the object engine, whose move dispatch it extends; the kernel knows
    only the stock moves.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, engine="object", **kwargs)
        self._noise = RandomSource(0).fork("forgery-noise")
        self.forged_deliveries = 0

    def _execute_move(self, move: Move) -> None:
        if isinstance(move, InjectForgery):
            self._inject(move)
            return
        super()._execute_move(move)

    def _inject(self, move: InjectForgery) -> None:
        if move.channel == ChannelId.T_TO_R:
            packet = DataPacket(
                message=bytes(
                    self._noise.randint(0, 255) for __ in range(move.payload_bytes)
                ),
                rho=self._noise.random_bits(move.rho_bits),
                tau=self._noise.random_bits(move.tau_bits),
            )
            target = self._link.receiver
            out_channel = self._r_to_t
        else:
            packet = PollPacket(
                rho=self._noise.random_bits(move.rho_bits),
                tau=self._noise.random_bits(move.tau_bits),
                retry=self._noise.randint(0, move.max_retry),
            )
            target = self._link.transmitter
            out_channel = self._t_to_r
        self.trace.append(
            PktForged(channel=move.channel, length_bits=packet.wire_length_bits)
        )
        self.forged_deliveries += 1
        outputs = target.on_receive_pkt(packet)
        if outputs:
            self._apply_outputs(outputs, out_channel)


class RandomNoiseForger(Adversary):
    """Benign FIFO delivery plus random forgeries at a configurable rate.

    The forged shapes mimic generation-1 packets.  Safety must survive:
    a forged ρ/τ matches a live nonce only with the 2^(−size) probability
    the analysis already budgets for.
    """

    def __init__(self, params: ProtocolParams, forge_rate: float = 0.2) -> None:
        super().__init__()
        if not 0.0 <= forge_rate < 1.0:
            raise ValueError("forge_rate must be in [0, 1)")
        self._params = params
        self._forge_rate = forge_rate
        self._pending: Deque[PacketInfo] = deque()
        self.forgeries = 0

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending.append(info)

    def _decide(self) -> Move:
        if self.rng.bernoulli(self._forge_rate):
            self.forgeries += 1
            size1 = self._params.size(1)
            if self.rng.bernoulli(0.5):
                return InjectForgery(
                    channel=ChannelId.T_TO_R, rho_bits=size1, tau_bits=size1 + 1
                )
            return InjectForgery(
                channel=ChannelId.R_TO_T, rho_bits=size1, tau_bits=size1 + 1
            )
        if self._pending:
            info = self._pending.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        return f"noise-forger(rate={self._forge_rate})"


class ForgeryLivenessAttacker(Adversary):
    """The Section 5 liveness counterexample — adaptive forgery pacing.

    The insight: the receiver accepts a data packet only if its echoed ρ
    equals the *entire current* challenge.  The challenge changes whenever
    ``bound(t)`` same-length mismatches arrive.  An adversary that may
    deliver unsent packets can therefore invalidate the challenge *before*
    every genuine data packet it is obliged to deliver:

    1. track the receiver's generation ``t`` via the public size schedule
       (the challenge length after ``t`` generations is
       ``cumulative_size(t)``, a known constant);
    2. forge ``bound(t)`` data packets of exactly that ρ length — the
       receiver's error budget fills and it extends to generation
       ``t + 1``, discarding the challenge every in-flight packet echoes;
    3. only then let the oldest genuine packet through (so the schedule
       remains fair: every packet is eventually delivered);
    4. repeat at generation ``t + 1``.

    The cost is exponential — generation ``t`` costs ``bound(t) = 2^t``
    forgeries — which is exactly why this breaks *liveness* (an unbounded-
    rate fair adversary sustains it forever) while any rate-limited
    adversary is eventually outpaced by the doubling bound.  Experiment
    E10 measures both regimes.

    Note that with forgery even *causality* becomes probabilistic (a
    forged ρ hits the live challenge with probability 2^(−size)), matching
    Section 5's caveat.
    """

    def __init__(self, params: ProtocolParams) -> None:
        super().__init__()
        self._params = params
        self._pending: Deque[PacketInfo] = deque()
        self._generation = 1
        self._forged_in_generation = 0
        self.forgeries = 0
        self.genuine_deliveries = 0

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending.append(info)

    @property
    def generation(self) -> int:
        """The attacker's estimate of the receiver's generation t^R."""
        return self._generation

    def _current_rho_bits(self) -> int:
        return self._params.policy.cumulative_size(
            self._generation, self._params.epsilon
        )

    def _decide(self) -> Move:
        if self._forged_in_generation < self._params.bound(self._generation):
            self._forged_in_generation += 1
            self.forgeries += 1
            return InjectForgery(
                channel=ChannelId.T_TO_R,
                rho_bits=self._current_rho_bits(),
                tau_bits=self._params.size(1) + 1,
            )
        # Quota met: the receiver has extended past every ρ any in-flight
        # packet echoes.  Release one genuine packet (fairness), then chase
        # the next generation.
        self._generation += 1
        self._forged_in_generation = 0
        if self._pending:
            info = self._pending.popleft()
            self.genuine_deliveries += 1
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        return f"forgery-liveness-attack(gen={self._generation})"


class RetryFloodAttacker(Adversary):
    """A second, cheaper liveness attack unique to the forgery model.

    The transmitter answers only polls whose retry counter exceeds its
    watermark ``i^T`` (the Theorem 9 mechanism).  Under causality the
    counter is always genuine; with forgery, a *single* forged poll with a
    huge counter raises ``i^T`` so far that the receiver's honest polls —
    which increment by one per RETRY — are ignored for ``stall`` turns.

    Unlike the generation-chasing attack this stall is finite (``i^R`` is
    unbounded, so the receiver eventually catches up), but the adversary
    can re-forge whenever the watermark is about to be reached, for a
    denial of service at one forged packet per ``stall`` genuine turns —
    asymptotically free.  This is exactly why the paper's liveness proof
    leans on causality for the counter field too.
    """

    def __init__(self, stall: int = 10 ** 6, reforge_every: int = 5_000) -> None:
        super().__init__()
        if stall < 1 or reforge_every < 1:
            raise ValueError("stall and reforge_every must be >= 1")
        self._stall = stall
        self._reforge_every = reforge_every
        self._pending: Deque[PacketInfo] = deque()
        self.forged_polls = 0

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending.append(info)

    def _decide(self) -> Move:
        if self.moves_made % self._reforge_every == 1:
            self.forged_polls += 1
            # Shape of a generation-1 poll; only the counter matters.
            return InjectForgery(
                channel=ChannelId.R_TO_T,
                rho_bits=1,
                tau_bits=1,
                max_retry=self._stall,
            )
        if self._pending:
            info = self._pending.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        return f"retry-flood(stall={self._stall}, forged={self.forged_polls})"
