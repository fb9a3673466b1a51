"""Crash-focused adversary for experiment E6.

[LMF88] proved deterministic protocols cannot survive host crashes at all;
this adversary hammers exactly that capability.  It delivers packets
semi-reliably (so the protocol can make progress between crashes) while
injecting crashes at random.  Crashes at exact turns are scripted with
:class:`~repro.resilience.faultplan.CrashAt` events, which a
:class:`~repro.resilience.faultplan.ScriptedAdversary` plays over benign
FIFO delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.adversary.base import (
    CRASH_RECEIVER,
    CRASH_TRANSMITTER,
    PASS,
    Adversary,
    Move,
    make_deliver,
)
from repro.channel.channel import PacketInfo

__all__ = ["CrashStormAdversary"]


class CrashStormAdversary(Adversary):
    """Benign FIFO delivery punctuated by random crashes of both stations.

    Parameters
    ----------
    crash_rate:
        Per-turn probability of injecting a crash.
    target_transmitter / target_receiver:
        Which stations may be crashed (at least one must be True).
    max_crashes:
        Optional cap, letting liveness tests guarantee eventual quiescence.
    """

    def __init__(
        self,
        crash_rate: float = 0.01,
        target_transmitter: bool = True,
        target_receiver: bool = True,
        max_crashes: Optional[int] = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError("crash_rate must be a probability")
        if not (target_transmitter or target_receiver):
            raise ValueError("at least one station must be crashable")
        self._crash_rate = crash_rate
        self._target_t = target_transmitter
        self._target_r = target_receiver
        self._max_crashes = max_crashes
        self._pending: Deque[PacketInfo] = deque()
        self.crashes_injected = 0

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending.append(info)

    def _decide(self) -> Move:
        allowed = self._max_crashes is None or self.crashes_injected < self._max_crashes
        if allowed and self.rng.bernoulli(self._crash_rate):
            self.crashes_injected += 1
            if self._target_t and self._target_r:
                return CRASH_TRANSMITTER if self.rng.bernoulli(0.5) else CRASH_RECEIVER
            return CRASH_TRANSMITTER if self._target_t else CRASH_RECEIVER
        if self._pending:
            info = self._pending.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        return f"crash-storm(rate={self._crash_rate})"

