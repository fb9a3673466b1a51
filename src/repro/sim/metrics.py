"""Metrics extracted from simulations.

The paper makes three quantitative claims the experiments measure:

* communication cost — three packets per message when fault-free, growing
  linearly with the number of errors during the message (Section 1);
* storage — nonce lengths depend only on faults during the *current*
  message and reset after OK / receive_msg / crash (Section 1);
* error probability — at most ε per message (Section 2.6).

:class:`MetricsCollector` samples the live system as the simulator runs;
:class:`SimulationMetrics` is the frozen summary attached to results.
Alongside the protocol-level quantities, the summary carries the harness's
own throughput (``steps_per_second``, ``events_per_second``) and the cost
of online checking (``checker_overhead_ratio``), so sweeps report speed
next to violation rates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.channel.channel import ChannelPair
from repro.core.protocol import DataLink

__all__ = ["SimulationMetrics", "MetricsCollector"]

# ``slots=True`` needs Python 3.10; on 3.9 the class degrades gracefully to
# an ordinary frozen dataclass (with a per-instance __dict__).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class SimulationMetrics:
    """Frozen per-run summary.

    ``storage_peak_bits`` / ``storage_samples`` track the combined nonce
    footprint of both stations; ``per_message_packets`` divides total
    packets by *resolved* messages (the paper's communication-cost unit).
    ``wall_seconds`` is the wall-clock time of the run loop,
    ``checker_seconds`` the share spent in the online monitors (0.0 when
    none were attached), and ``events_recorded`` the full event count of
    the execution regardless of trace retention.
    """

    steps: int
    messages_submitted: int
    messages_ok: int
    messages_delivered: int
    packets_sent: int
    packets_delivered: int
    bits_sent: int
    retries: int
    crashes_t: int
    crashes_r: int
    corruptions_t: int
    corruptions_r: int
    transmitter_extensions: int
    receiver_extensions: int
    transmitter_errors_counted: int
    receiver_errors_counted: int
    storage_peak_bits: int
    storage_final_bits: int
    storage_samples: List[int] = field(repr=False, default_factory=list)
    wall_seconds: float = 0.0
    checker_seconds: float = 0.0
    events_recorded: int = 0
    # Relay-fabric drop accounting (0 on single-link runs): frames lost
    # to a full relay FIFO vs frames lost to a link-down wire.
    dropped_overflow: int = 0
    dropped_down: int = 0

    @property
    def per_message_packets(self) -> float:
        """Packets sent per OK'd message (inf if nothing completed)."""
        if self.messages_ok == 0:
            return float("inf")
        return self.packets_sent / self.messages_ok

    @property
    def per_message_bits(self) -> float:
        """Wire bits per OK'd message (inf if nothing completed)."""
        if self.messages_ok == 0:
            return float("inf")
        return self.bits_sent / self.messages_ok

    @property
    def delivery_ratio(self) -> float:
        """Fraction of packet deliveries to packet sends (loss visibility)."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_delivered / self.packets_sent

    @property
    def steps_per_second(self) -> float:
        """Simulation steps per wall-clock second (0.0 if untimed)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.steps / self.wall_seconds

    @property
    def events_per_second(self) -> float:
        """Recorded events per wall-clock second (0.0 if untimed)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_recorded / self.wall_seconds

    @property
    def checker_overhead_ratio(self) -> float:
        """Fraction of the run's wall time spent in the online checkers."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.checker_seconds / self.wall_seconds

    # -- compact wire format (campaign result streaming) -----------------------

    def to_wire(self) -> Tuple:
        """Encode as a flat tuple for cheap cross-process transfer.

        Campaign workers ship one of these per run instead of pickling the
        dataclass (attribute dict, field names and all).  The per-sample
        storage series is deliberately dropped: campaign collectors run with
        ``keep_storage_samples=False``, and no campaign aggregate or
        fingerprint reads it.  Field order is the wire contract —
        :meth:`from_wire` and the round-trip test must change in lockstep.
        """
        return (
            self.steps,
            self.messages_submitted,
            self.messages_ok,
            self.messages_delivered,
            self.packets_sent,
            self.packets_delivered,
            self.bits_sent,
            self.retries,
            self.crashes_t,
            self.crashes_r,
            self.transmitter_extensions,
            self.receiver_extensions,
            self.transmitter_errors_counted,
            self.receiver_errors_counted,
            self.storage_peak_bits,
            self.storage_final_bits,
            self.wall_seconds,
            self.checker_seconds,
            self.events_recorded,
            self.corruptions_t,
            self.corruptions_r,
            self.dropped_overflow,
            self.dropped_down,
        )

    @classmethod
    def from_wire(cls, wire: Tuple) -> "SimulationMetrics":
        """Decode a :meth:`to_wire` tuple (storage series comes back empty)."""
        return cls(
            steps=wire[0],
            messages_submitted=wire[1],
            messages_ok=wire[2],
            messages_delivered=wire[3],
            packets_sent=wire[4],
            packets_delivered=wire[5],
            bits_sent=wire[6],
            retries=wire[7],
            crashes_t=wire[8],
            crashes_r=wire[9],
            transmitter_extensions=wire[10],
            receiver_extensions=wire[11],
            transmitter_errors_counted=wire[12],
            receiver_errors_counted=wire[13],
            storage_peak_bits=wire[14],
            storage_final_bits=wire[15],
            storage_samples=[],
            wall_seconds=wire[16],
            checker_seconds=wire[17],
            events_recorded=wire[18],
            corruptions_t=wire[19],
            corruptions_r=wire[20],
            dropped_overflow=wire[21],
            dropped_down=wire[22],
        )


class MetricsCollector:
    """Accumulates counters during a run and freezes them at the end.

    ``keep_storage_samples=False`` keeps the peak/final storage figures but
    drops the per-sample series — campaigns running thousands of runs don't
    want a list the length of the execution pickled back per run.
    """

    def __init__(
        self,
        link: DataLink,
        channels: ChannelPair,
        keep_storage_samples: bool = True,
    ) -> None:
        self._link = link
        self._channels = channels
        self._keep_storage_samples = keep_storage_samples
        self._storage_samples: List[int] = []
        self._storage_peak = 0
        self.messages_submitted = 0
        self.messages_ok = 0
        self.messages_delivered = 0
        self.retries = 0
        self.crashes_t = 0
        self.crashes_r = 0
        self.corruptions_t = 0
        self.corruptions_r = 0

    def sample_storage(self) -> None:
        """Record the current combined nonce footprint (call per step)."""
        bits = self._link.total_storage_bits()
        if self._keep_storage_samples:
            self._storage_samples.append(bits)
        if bits > self._storage_peak:
            self._storage_peak = bits

    def freeze(
        self,
        steps: int,
        wall_seconds: float = 0.0,
        checker_seconds: float = 0.0,
        events_recorded: int = 0,
    ) -> SimulationMetrics:
        """Produce the immutable summary for a finished run."""
        t_stats = self._link.transmitter.stats
        r_stats = self._link.receiver.stats
        final_bits = self._link.total_storage_bits()
        return SimulationMetrics(
            steps=steps,
            messages_submitted=self.messages_submitted,
            messages_ok=self.messages_ok,
            messages_delivered=self.messages_delivered,
            packets_sent=self._channels.total_packets_sent,
            packets_delivered=(
                self._channels.t_to_r.delivered_count
                + self._channels.r_to_t.delivered_count
            ),
            bits_sent=self._channels.total_bits_sent,
            retries=self.retries,
            crashes_t=self.crashes_t,
            crashes_r=self.crashes_r,
            corruptions_t=self.corruptions_t,
            corruptions_r=self.corruptions_r,
            transmitter_extensions=t_stats.extensions,
            receiver_extensions=r_stats.extensions,
            transmitter_errors_counted=t_stats.errors_counted,
            receiver_errors_counted=r_stats.errors_counted,
            storage_peak_bits=max(self._storage_peak, final_bits),
            storage_final_bits=final_bits,
            storage_samples=self._storage_samples,
            wall_seconds=wall_seconds,
            checker_seconds=checker_seconds,
            events_recorded=events_recorded,
        )
