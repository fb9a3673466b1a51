"""Striping: throughput beyond Axiom 1's one-message window.

Axiom 1 makes the data link stop-and-wait at the message level: the higher
layer may not submit message k+1 until message k is OK'd, so throughput is
one message per round trip however fast the channel is.  The classical
remedy is to run **K independent instances** of the link and stripe the
message stream across them round-robin, resequencing at the far end.  Each
instance individually satisfies the paper's conditions (nothing about the
protocol changes); the stripe header restores global order.

:class:`StripedLink` owns the K instances plus the resequencer;
:class:`StripedSimulator` steps the K per-lane simulators round-robin so
their executions interleave, as K links sharing real time would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.checkers.safety import SafetyReport, check_all_safety
from repro.core.events import ReceiveMsg
from repro.core.protocol import DataLink, make_data_link
from repro.core.random_source import split_seed
from repro.sim.simulator import Simulator
from repro.sim.workload import ExplicitWorkload
from repro.util.resequencer import Resequencer

__all__ = ["Resequencer", "StripedLink", "StripedSimulator", "StripedResult"]

_HEADER = struct.Struct(">Q")

#: Step budget of each lane's simulator.
_MAX_STEPS_PER_LANE = 100_000


def _wrap(sequence: int, payload: bytes) -> bytes:
    return _HEADER.pack(sequence) + payload


def _unwrap(framed: bytes) -> "tuple[int, bytes]":
    (sequence,) = _HEADER.unpack_from(framed, 0)
    return sequence, framed[_HEADER.size :]


class StripedLink:
    """K independent data links plus a sequence-number resequencer."""

    def __init__(
        self,
        lanes: int,
        epsilon: float = 2.0 ** -16,
        seed: Optional[int] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.lanes = lanes
        self.links: List[DataLink] = [
            make_data_link(epsilon=epsilon, seed=split_seed(seed or 0, "lane", i))
            for i in range(lanes)
        ]
        self.resequencer = Resequencer()

    @property
    def delivered_in_order(self) -> List[bytes]:
        return self.resequencer.delivered_in_order

    def lane_of(self, sequence: int) -> int:
        """Which lane carries the message with this sequence number."""
        return sequence % self.lanes

    def stripe(self, payloads: Sequence[bytes]) -> List[List[bytes]]:
        """Split a message stream into per-lane framed workloads."""
        per_lane: List[List[bytes]] = [[] for __ in range(self.lanes)]
        for sequence, payload in enumerate(payloads):
            per_lane[self.lane_of(sequence)].append(_wrap(sequence, payload))
        return per_lane

    def accept(self, framed: bytes) -> None:
        """Feed one lane delivery into the resequencer."""
        sequence, payload = _unwrap(framed)
        self.resequencer.accept(sequence, payload)

    @property
    def reorder_buffer_size(self) -> int:
        """Messages held back waiting for an earlier sequence number."""
        return self.resequencer.backlog


@dataclass
class StripedResult:
    """Outcome of a striped run.

    ``rounds`` is the wall-clock measure: one round steps every still-busy
    lane once, the way K physical links share real time.  Striping trades
    total work (``steps``, roughly constant) for wall-clock (``rounds``,
    which drops toward 1/K of the single-lane figure when the channel is
    latency-bound).
    """

    delivered: List[bytes]
    steps: int
    rounds: int
    completed: bool
    lane_safety: List[SafetyReport]
    max_reorder_buffer: int

    @property
    def all_safe(self) -> bool:
        return all(report.passed for report in self.lane_safety)

    @property
    def messages_per_round(self) -> float:
        """Wall-clock throughput."""
        return len(self.delivered) / self.rounds if self.rounds else 0.0


class StripedSimulator:
    """Steps K per-lane simulators round-robin until all lanes finish.

    Parameters
    ----------
    striped:
        The :class:`StripedLink` to drive.
    payloads:
        The global, ordered message stream.
    adversary_factory:
        Builds one independent adversary per lane (each lane is its own
        channel pair with its own faults).
    """

    def __init__(
        self,
        striped: StripedLink,
        payloads: Sequence[bytes],
        adversary_factory: Callable[[], Adversary],
        seed: int = 0,
        retry_every: int = 4,
    ) -> None:
        self.striped = striped
        self._payloads = list(payloads)
        workloads = striped.stripe(self._payloads)
        self._simulators: List[Simulator] = [
            Simulator(
                link=striped.links[lane],
                adversary=adversary_factory(),
                workload=ExplicitWorkload(workloads[lane]),
                seed=split_seed(seed, "lane-adv", lane),
                max_steps=_MAX_STEPS_PER_LANE,
                retry_every=retry_every,
            )
            for lane in range(striped.lanes)
        ]
        self._consumed: List[int] = [0] * striped.lanes
        self._max_reorder = 0

    def run(self) -> StripedResult:
        """Interleave lane steps until every lane completes or stalls."""
        total_steps = 0
        rounds = 0
        progress = True
        while progress:
            progress = False
            rounds += 1
            for lane, simulator in enumerate(self._simulators):
                if simulator.finished or simulator.steps_taken >= simulator.max_steps:
                    continue
                simulator.step()
                total_steps += 1
                progress = True
                self._drain_lane(lane, simulator)
        completed = all(sim.finished for sim in self._simulators)
        safety = [check_all_safety(sim.trace) for sim in self._simulators]
        return StripedResult(
            delivered=list(self.striped.delivered_in_order),
            steps=total_steps,
            rounds=rounds,
            completed=completed,
            lane_safety=safety,
            max_reorder_buffer=self._max_reorder,
        )

    def _drain_lane(self, lane: int, simulator: Simulator) -> None:
        deliveries = simulator.trace.of_type(ReceiveMsg)
        while self._consumed[lane] < len(deliveries):
            framed = deliveries[self._consumed[lane]].message
            self._consumed[lane] += 1
            self.striped.accept(framed)
            self._max_reorder = max(
                self._max_reorder, self.striped.reorder_buffer_size
            )
