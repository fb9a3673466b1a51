"""A relay-fabric hop's step loop, resumed in bursts, on either engine.

The fabric (:mod:`repro.transport.fabric`) drives every directed edge's
``_LinkSimulator`` in small bursts: ``steps_per_tick`` simulation steps
per fabric tick, interleaved with routing, draining and fault events.
:class:`HopKernel` is the fabric's handle on a hop's loop, a generator
each of whose methods is one resume.  On the kernel engine the loop is
:func:`repro.kernel.engine.step_loop` bound to the hop's feed deque and
link state (the wire mode), whose frame holds the hop's flat state
between bursts; on the object engine it is :func:`_object_loop`, which
takes the same bursts and commands and steps the hop's own objects.
The far end's deliveries reach the fabric through the hop trace's
ordinary ``ReceiveMsg`` observer (``_LinkSimulator._collect``), which
the kernel's loop calls directly.  :meth:`HopKernel.finalize` is the
veneer contract's write back, after which ``FabricRun._aggregate_metrics``
(and any test) observes the same objects on either engine;
tests/transport/test_fabric_differential.py pins the two.
"""

from repro.kernel.engine import (
    CRASH_RECEIVER,
    CRASH_TRANSMITTER,
    SYNC,
    WIPE,
    step_loop,
)

__all__ = ["HopKernel"]


def _object_loop(sim):
    """The object engine's hop loop: :func:`step_loop`'s bursts and
    commands, run by the hop's own :meth:`~repro.sim.Simulator.step`.

    Each burst first takes a frame from the feed when none is pending (as
    the kernel polls its feed), and :data:`SYNC` flushes the deferred
    packet and RETRY tallies into the hop's trace counters.
    """
    feed = sim.feed
    queue = sim.wire._queue
    step = sim.step
    while True:
        cmd = yield (
            sim._tx_busy or sim._next_message is not None or len(queue) > 0
        )
        if cmd > 0:
            if sim._next_message is None and feed:
                sim._advance_workload()
            for _ in range(cmd):
                step()
        elif cmd == CRASH_TRANSMITTER:
            sim._crash_transmitter(None)
        elif cmd == CRASH_RECEIVER:
            sim._crash_receiver(None)
        elif cmd == WIPE:
            feed.clear()
            sim._next_message = None
        else:
            sim._flush_tallies()


class HopKernel:
    """One installed ``_LinkSimulator``'s step loop, bound for the fabric.

    The hop builds it at construction, which primes the loop: on the
    kernel engine the loop's frame is the truth from then on and the
    hop's objects are stale until :meth:`finalize`.  Priming resolves the
    trace's observers, so ``_LinkSimulator.start()`` builds a fresh one
    when an observer was subscribed after construction (nothing has run
    by then).  ``busy`` is what the last resume reported (transmitter
    busy, a frame pending, a packet on the wire); with a non-empty
    ``feed`` it says whether an idle step could progress the hop.
    """

    __slots__ = ("feed", "busy", "_resume")

    def __init__(self, sim) -> None:
        if sim._engine == "kernel":
            loop = step_loop(sim, feed=sim.feed, gate=sim.wire._state)
        else:
            loop = _object_loop(sim)
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
