"""A relay-fabric hop on the kernel: its step loop, resumed in bursts.

The fabric (:mod:`repro.transport.fabric`) drives every directed edge's
``_LinkSimulator`` in small bursts: ``steps_per_tick`` simulation steps
per fabric tick, interleaved with routing, draining and fault events.
On the kernel engine a hop is :func:`repro.kernel.engine.step_loop`
bound to the hop's feed deque and link state (the wire mode), and
:class:`HopKernel` is the fabric's handle on it: each method is one
resume of that generator, whose frame holds the hop's flat state between
bursts.  The far end's deliveries reach the fabric through the hop
trace's ordinary ``ReceiveMsg`` observer (``_LinkSimulator._collect``),
which the loop calls directly.  :meth:`HopKernel.finalize` is the
veneer contract's write back, after which ``FabricRun._aggregate_metrics``
(and any test) observes exactly what the object engine would have
produced; tests/transport/test_fabric_differential.py pins the two.
"""

from repro.kernel.engine import (
    CRASH_RECEIVER,
    CRASH_TRANSMITTER,
    SYNC,
    WIPE,
    step_loop,
)

__all__ = ["HopKernel"]


class HopKernel:
    """One installed ``_LinkSimulator``'s step loop, bound for the fabric.

    The hop builds it at construction, which primes the loop: from then
    on the loop's frame is the truth and the hop's objects are stale
    until :meth:`finalize`.  Priming resolves the trace's observers, so
    ``_LinkSimulator.start()`` builds a fresh one when an observer was
    subscribed after construction (nothing has run by then).  ``busy`` is
    what the last resume reported (transmitter busy, a frame pending, a
    packet on the wire); with a non-empty ``feed`` it says whether an idle
    step could progress the hop.
    """

    __slots__ = ("feed", "busy", "_resume")

    def __init__(self, sim) -> None:
        loop = step_loop(sim, feed=sim.feed, gate=sim.wire._state)
        self.feed = sim.feed
        self.busy = next(loop)
        self._resume = loop.send

    def tick(self, burst: int) -> None:
        """Advance ``burst`` simulation steps (one fabric tick's share)."""
        self.busy = self._resume(burst)

    def crash_transmitter(self) -> None:
        """The transmitter's crash transition, between two steps."""
        self.busy = self._resume(CRASH_TRANSMITTER)

    def crash_receiver(self) -> None:
        """The receiver's crash transition, between two steps."""
        self.busy = self._resume(CRASH_RECEIVER)

    def wipe_feed(self) -> None:
        """Amnesia for the origin node's outgoing frames on this hop."""
        self.busy = self._resume(WIPE)

    def finalize(self) -> None:
        """Write the hop's state back to its objects (repeatable)."""
        self.busy = self._resume(SYNC)
