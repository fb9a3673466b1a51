"""The runtime needs no networkx: the transport layer runs with it blocked.

networkx is a test dependency only, the route oracle of test_network.py
and test_route_memo.py.  The probe runs in a fresh interpreter whose
``sys.meta_path`` refuses to import it, so an ``import networkx``
anywhere the probe reaches, at module level or inside a call, fails it:
the three topology builders, route misses on every up-set, the disjoint
routes, both relay strategies, a striped fabric run and the reliability
oracle.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = textwrap.dedent(
    """
    import sys

    class BlockNetworkx:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "networkx":
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockNetworkx())
    sys.path.insert(0, sys.argv[1])

    from repro.analysis.reliability import reliability
    from repro.core.random_source import RandomSource
    from repro.transport import FabricRun, FabricSpec, FloodingRelay, PathRelay
    from repro.transport.network import line_network, mesh_network, ring_network

    rng = RandomSource(0)
    for net in (line_network(4), ring_network(8), mesh_network(3)):
        assert net.shortest_up_path() is not None
        assert net.disjoint_routes(2)
        for relay in (FloodingRelay(net), PathRelay(net)):
            assert relay.inject("token", now=0, direction="fwd", rng=rng)

    ring = ring_network(6)
    for mask in range(2 ** ring.edge_count):
        for i, (a, b) in enumerate(ring.edges):
            ring.link(a, b).up = bool(mask >> i & 1)
        for origin in ring.nodes:
            for target in ring.nodes:
                ring.route(origin, target)

    spec = FabricSpec(topology="ring", size=8, messages=10, paths=2)
    assert FabricRun(spec, (), seed=1).run().result.completed
    assert 0.0 < reliability(mesh_network(2), 0.8) < 1.0
    assert not any(name.partition(".")[0] == "networkx" for name in sys.modules)
    print("ok")
    """
)


def test_transport_runs_with_networkx_blocked():
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
