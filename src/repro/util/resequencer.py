"""The dedup-resequencer shared by every layer that reorders a stream."""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Resequencer"]


class Resequencer:
    """Restores global order over messages delivered out of order.

    Shared by the simulated :class:`~repro.extensions.striping.StripedLink`,
    the live multi-lane endpoints (:mod:`repro.live.lanes`) and the relay
    fabric's destination (:mod:`repro.transport.fabric`).  Callers hand in
    ``(sequence, payload)`` pairs in whatever order they arrive; the
    resequencer buffers gaps and releases the longest in-order run.
    Duplicate sequence numbers — a lane crash that resubmits a slot whose
    first incarnation was already delivered, or an end-to-end
    retransmission that raced its ack — are counted and dropped, never
    re-released.
    """

    __slots__ = ("_next", "_pending", "delivered_in_order", "duplicates",
                 "high_water")

    def __init__(self) -> None:
        self._next = 0
        self._pending: Dict[int, bytes] = {}
        self.delivered_in_order: List[bytes] = []
        self.duplicates = 0
        #: Most messages ever buffered while waiting for an earlier one.
        self.high_water = 0

    @property
    def next_expected(self) -> int:
        return self._next

    @property
    def backlog(self) -> int:
        """Messages held back waiting for an earlier sequence number."""
        return len(self._pending)

    def accept(self, sequence: int, payload: bytes) -> List[bytes]:
        """Feed one arrival; returns the messages newly in order."""
        if sequence < self._next or sequence in self._pending:
            self.duplicates += 1
            return []
        self._pending[sequence] = payload
        released: List[bytes] = []
        while self._next in self._pending:
            released.append(self._pending.pop(self._next))
            self._next += 1
        self.delivered_in_order.extend(released)
        # Measured after the release sweep so it means the same thing as
        # ``backlog``: messages actually held back waiting for a gap (an
        # arrival that immediately releases is never "buffered").
        if len(self._pending) > self.high_water:
            self.high_water = len(self._pending)
        return released
