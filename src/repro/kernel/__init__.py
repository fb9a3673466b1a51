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
contract — see PROTOCOL.md §14).

Entry points: :func:`repro.kernel.engine.run_kernel`, reached through
``Simulator(engine="kernel")``, and :class:`repro.kernel.hop.HopKernel`,
the persistent per-hop variant the relay fabric drives in bursts
(``FabricSpec(engine="kernel")``).
"""

from repro.kernel.engine import run_kernel
from repro.kernel.hop import HopKernel

__all__ = ["run_kernel", "HopKernel"]
