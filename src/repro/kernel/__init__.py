"""Table-driven step kernel: a flat, slot-indexed execution engine.

The kernel executes the same ``D(A, ADV)`` composition as the object
engine in :mod:`repro.sim.simulator`, but with all per-step state flattened
out of the station/channel/adversary objects into plain ints and
preallocated containers: nonces become ``(value, length)`` int pairs,
packets become tuples interned under small-int identifiers, and the
adversary's per-turn dispatch is specialised into one of a few precompiled
modes (any other adversary object decides its own moves inside the same
loop).  The object graph is re-synchronised at run boundaries, so the
stations, channels and adversaries remain the public API (the veneer
contract — see PROTOCOL.md §14).  It is the default engine of
``Simulator``, ``RunSpec``, ``FabricSpec`` and the CLI; ``engine="object"``
runs the reference it is pinned to.

There is one step loop, :func:`repro.kernel.engine.step_loop`, a
generator resumed in bursts.  :func:`repro.kernel.engine.run_kernel`,
reached through ``Simulator.run``, runs it as one burst to the end of the
run; :class:`repro.kernel.hop.HopKernel` is the relay fabric's handle on
a hop's loop, resumed a burst per fabric tick, on the kernel or (with
``FabricSpec(engine="object")``) on a small object-engine generator that
takes the same bursts and commands.
"""

from repro.kernel.engine import run_kernel
from repro.kernel.hop import HopKernel

__all__ = ["run_kernel", "HopKernel"]
