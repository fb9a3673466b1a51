"""Multi-path striping: disjoint route discovery and striped delivery.

Covers the two layers of the ``paths=K`` feature: the greedy
vertex-disjoint route finder (:meth:`Network.disjoint_routes`) and the
fabric's frame striping over those routes, including the end-to-end
CLEAN verdict under link faults and the protocol-time win that the bench
gates.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import ConfigurationError
from repro.resilience.faultplan import LinkDownWindow
from repro.transport.fabric import FabricRun, FabricSpec
from repro.transport.network import (
    Network,
    line_network,
    mesh_network,
    ring_network,
)


def _interiors(route):
    return set(route[1:-1])


class TestDisjointRoutes:
    def test_k_below_one_rejected(self):
        net = ring_network(6)
        with pytest.raises(ConfigurationError):
            net.disjoint_routes(0)

    def test_unknown_endpoint_rejected(self):
        net = line_network(3)
        with pytest.raises(ConfigurationError):
            Network(net.nodes, net.edges, net.source, "nope").disjoint_routes(2)

    def test_line_degrades_to_single_route(self):
        net = line_network(5)
        routes = net.disjoint_routes(4)
        assert routes == [[0, 1, 2, 3, 4, 5]]

    def test_ring_yields_two_disjoint_arcs(self):
        net = ring_network(8)
        routes = net.disjoint_routes(4)
        assert len(routes) == 2
        assert not _interiors(routes[0]) & _interiors(routes[1])

    @pytest.mark.parametrize("side", range(3, 9))
    def test_mesh_routes_vertex_disjoint(self, side):
        net = mesh_network(side)
        routes = net.disjoint_routes(4)
        # Corner-to-corner on a grid: the corner degree (2) caps the count.
        assert len(routes) == 2
        seen = set()
        for route in routes:
            assert route[0] == net.source
            assert route[-1] == net.destination
            interior = _interiors(route)
            assert not interior & seen, "routes share an interior relay"
            seen |= interior
            # Every consecutive pair must be a real edge.
            for a, b in zip(route, route[1:]):
                assert net.link(a, b)

    def test_shortest_route_first(self):
        net = ring_network(8)
        routes = net.disjoint_routes(2)
        assert len(routes[0]) <= len(routes[1])

    def test_deterministic(self):
        net = mesh_network(4)
        first = net.disjoint_routes(3)
        second = net.disjoint_routes(3)
        assert first == second


class TestStripedFabric:
    @pytest.mark.parametrize("engine", ("object", "kernel"))
    def test_two_path_ring_clean(self, engine):
        spec = FabricSpec(
            topology="ring", size=8, messages=20, window=8, paths=2,
            engine=engine,
        )
        run = FabricRun(spec, (), seed=0)
        out = run.run()
        assert out.result.completed
        assert out.liveness_passed
        assert run.verdict().startswith("CLEAN")

    @pytest.mark.parametrize("engine", ("object", "kernel"))
    def test_two_path_ring_clean_under_link_faults(self, engine):
        # Partition one arc mid-stream: the disjoint sibling keeps the
        # stream moving and the verdict converges back to CLEAN.
        events = (LinkDownWindow(start=25, end=60, link=(0, 1)),)
        spec = FabricSpec(
            topology="ring", size=8, messages=20, window=8, paths=2,
            engine=engine,
        )
        run = FabricRun(spec, events, seed=0)
        out = run.run()
        assert out.result.completed
        assert out.liveness_passed
        assert run.verdict().startswith("CLEAN")

    def test_single_path_matches_unstriped(self):
        """``paths=1`` must be bit-identical to the unstriped fabric."""
        fingerprints = []
        for paths in (None, 1):
            kwargs = {} if paths is None else {"paths": paths}
            spec = FabricSpec(
                topology="ring", size=6, messages=12, retain="full", **kwargs
            )
            run = FabricRun(spec, (), seed=7)
            out = run.run()
            fingerprints.append(
                (tuple(out.result.trace), run.ticks, run.verdict())
            )
        assert fingerprints[0] == fingerprints[1]

    def test_striping_beats_single_path_protocol_time(self):
        """The bench leg's tick-count win, pinned as a regression test."""
        ticks = {}
        for paths in (1, 2):
            spec = FabricSpec(
                topology="ring", size=8, messages=120, window=16,
                steps_per_tick=4, engine="kernel", paths=paths,
            )
            run = FabricRun(spec, (), seed=0)
            out = run.run()
            assert out.result.completed
            ticks[paths] = run.ticks
        assert ticks[1] / ticks[2] > 1.5

    def test_paths_validation(self):
        with pytest.raises(ConfigurationError):
            FabricSpec(topology="ring", size=6, paths=0)
