"""Common scaffolding for baseline protocols.

The baselines implement the same station interface as the paper's protocol
(``send_msg`` / ``on_receive_pkt`` / ``crash`` / ``busy`` on the
transmitter side; ``retry`` / ``on_receive_pkt`` / ``crash`` on the
receiver side), so the one simulator harness runs them all and the one
checker suite judges them all.  That is the point of the comparison
experiments: identical adversaries, identical conditions, different
protocols.

Baseline frames carry explicit sequence numbers instead of random nonces;
their wire sizes are computed the same way as the core packets' so the
communication-cost comparison is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Frame", "AckFrame", "BaselineStats", "BaselineLink"]


@dataclass(frozen=True)
class Frame:
    """A baseline data frame: sequence number plus payload."""

    seq: int
    message: bytes

    @property
    def wire_length_bits(self) -> int:
        """1 kind byte + 8 seq bytes + 4 length bytes + payload."""
        return (1 + 8 + 4 + len(self.message)) * 8


@dataclass(frozen=True)
class AckFrame:
    """A baseline acknowledgement frame."""

    seq: int

    @property
    def wire_length_bits(self) -> int:
        """1 kind byte + 8 seq bytes."""
        return (1 + 8) * 8


@dataclass
class BaselineStats:
    """Duck-typed stand-in for the core stations' stats objects.

    The metrics collector reads ``extensions`` and ``errors_counted``;
    baselines have no nonce machinery so both stay zero, but the fields
    must exist for the shared pipeline.
    """

    packets_sent: int = 0
    extensions: int = 0
    errors_counted: int = 0
    crashes: int = 0


@dataclass
class BaselineLink:
    """Duck-typed stand-in for :class:`~repro.core.protocol.DataLink`.

    Carries whatever transmitter/receiver pair a baseline builds, exposing
    the two attributes the simulator and metrics pipeline touch.
    """

    transmitter: object
    receiver: object
    name: str = "baseline"

    def total_storage_bits(self) -> int:
        """Baselines store O(1) sequence state; report it for comparability."""
        total = 0
        for station in (self.transmitter, self.receiver):
            total += getattr(station, "storage_bits", 0)
        return total
