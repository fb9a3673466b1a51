"""Higher-layer workloads: the streams of messages the data link carries.

The environment above the data link is constrained by two axioms:

* **Axiom 1** — a new ``send_msg`` only after an OK or crash^T (the higher
  layer buffers, not the link);
* **Axiom 2** — every message value is sent at most once (uniqueness, which
  makes "error" well defined; see Section 2.5).

Workloads generate payload sequences that honour Axiom 2 by construction;
the simulator honours Axiom 1 by only drawing the next payload when the
transmitter is idle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Sequence

from repro.core.exceptions import AxiomViolationError
from repro.core.random_source import RandomSource

__all__ = ["Workload", "SequentialWorkload", "RandomPayloadWorkload", "ExplicitWorkload"]


class Workload(ABC):
    """A finite stream of unique message payloads."""

    @abstractmethod
    def __iter__(self) -> Iterator[bytes]:
        """Yield each payload exactly once, in submission order."""

    @property
    @abstractmethod
    def message_count(self) -> int:
        """How many messages this workload will submit."""


class SequentialWorkload(Workload):
    """Numbered payloads: ``msg-000000``, ``msg-000001``, ...

    The workhorse for experiments — payloads are unique, readable in trace
    dumps, and of uniform size so the adversary's length-only view cannot
    distinguish them (the oblivious assumption holds trivially).
    """

    def __init__(self, count: int, prefix: bytes = b"msg", pad_to: int = 0) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self._count = count
        self._prefix = prefix
        self._pad_to = pad_to

    @property
    def message_count(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[bytes]:
        fmt = (self._prefix.replace(b"%", b"%%") + b"-%06d").__mod__
        if not self._pad_to:
            # Unpadded payloads come straight off a C-level map iterator:
            # the simulator pulls one payload per submission, so the
            # per-message generator-frame resume is measurable at
            # campaign scale.
            return map(fmt, range(self._count))
        return self._padded(fmt)

    def _padded(self, fmt) -> Iterator[bytes]:
        pad_to = self._pad_to
        for index in range(self._count):
            payload = fmt(index)
            if pad_to > len(payload):
                payload += b"." * (pad_to - len(payload))
            yield payload


class RandomPayloadWorkload(Workload):
    """Random payloads of configurable size, deduplicated to honour Axiom 2.

    A sequence number is prepended so uniqueness is guaranteed even when the
    random body collides.
    """

    def __init__(self, count: int, body_bytes: int, rng: RandomSource) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if body_bytes < 0:
            raise ValueError("body_bytes must be non-negative")
        self._count = count
        self._body_bytes = body_bytes
        self._rng = rng

    @property
    def message_count(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[bytes]:
        for index in range(self._count):
            body = bytes(
                self._rng.randint(0, 255) for __ in range(self._body_bytes)
            )
            yield b"%08d:" % index + body


class ExplicitWorkload(Workload):
    """A caller-provided payload list, validated for Axiom 2 up front."""

    def __init__(self, payloads: Sequence[bytes]) -> None:
        seen = set()
        for payload in payloads:
            if not isinstance(payload, bytes):
                raise TypeError("payloads must be bytes")
            if payload in seen:
                raise AxiomViolationError(
                    f"Axiom 2 violated: duplicate payload {payload!r} in workload"
                )
            seen.add(payload)
        self._payloads: List[bytes] = list(payloads)

    @property
    def message_count(self) -> int:
        return len(self._payloads)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._payloads)
