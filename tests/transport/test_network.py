"""Unit tests for the network model and topologies."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.random_source import RandomSource
from repro.transport.network import (
    LinkState,
    Network,
    line_network,
    mesh_network,
    ring_network,
)


class TestLinkState:
    def test_stays_up_without_failures(self):
        net = line_network(1, fail_rate=0.0)
        rng = RandomSource(0)
        for __ in range(100):
            net.tick(rng)
        assert net.link_up(0, 1)

    def test_fails_and_repairs(self):
        net = line_network(1, fail_rate=0.5, repair_rate=0.5)
        rng = RandomSource(1)
        saw_down = saw_up_again = False
        for __ in range(200):
            was_up = net.link_up(0, 1)
            net.tick(rng)
            if was_up and not net.link_up(0, 1):
                saw_down = True
            if saw_down and net.link_up(0, 1):
                saw_up_again = True
        assert saw_down and saw_up_again

    @pytest.mark.parametrize("up, attr", [(True, "fail_rate"),
                                          (False, "repair_rate")])
    def test_rate_outside_unit_interval_raises_on_tick(self, up, attr):
        net = line_network(1)
        state = net.link(0, 1)
        state.up = up
        setattr(state, attr, 1.5)  # bypasses configure_link's check
        with pytest.raises(ValueError, match="outside"):
            net.tick(RandomSource(0))


def _reference_tick(net: Network, rng: RandomSource) -> None:
    """The Markov step as one ``RandomSource.bernoulli`` per link, in link order."""
    for a, b in net.graph.edges():
        state = net.link(a, b)
        if state.up:
            if state.fail_rate and rng.bernoulli(state.fail_rate):
                state.up = False
        else:
            if rng.bernoulli(state.repair_rate):
                state.up = True


#: Per-link overrides, cycled over the links in order: a link that never
#: fails, one never repaired, one repaired at once, and two churning ones.
_LINK_RATES = (
    {"fail_rate": 0.0},
    {"repair_rate": 0.0},
    {"repair_rate": 1.0},
    {"fail_rate": 0.3, "repair_rate": 0.5},
    {"fail_rate": 1.0, "repair_rate": 0.05},
)


class TestMarkovTape:
    @pytest.mark.parametrize("build", [
        lambda: line_network(4, fail_rate=0.1, repair_rate=0.3),
        lambda: ring_network(8, fail_rate=0.1, repair_rate=0.3),
        lambda: mesh_network(3, fail_rate=0.1, repair_rate=0.3),
    ], ids=["line4", "ring8", "mesh3"])
    def test_tick_draws_the_reference_tape(self, build):
        nets = build(), build()
        for net in nets:
            for i, (a, b) in enumerate(net.graph.edges()):
                net.configure_link(a, b, **_LINK_RATES[i % len(_LINK_RATES)])
        edges = list(nets[0].graph.edges())
        rngs = RandomSource(2024), RandomSource(2024)
        for tick in range(2000):
            if tick == 1000:
                for net in nets:
                    net.configure_link(*edges[0], up=False)
            nets[0].tick(rngs[0])
            _reference_tick(nets[1], rngs[1])
            assert nets[0].up_key() == nets[1].up_key(), tick
        assert rngs[0].random_float() == rngs[1].random_float()


class TestTopologies:
    def test_line(self):
        net = line_network(4)
        assert net.source == 0 and net.destination == 4
        assert net.edge_count == 4

    def test_ring(self):
        net = ring_network(8)
        assert net.edge_count == 8
        assert len(net.shortest_up_path()) == 5  # 0..4 along the cycle

    def test_mesh(self):
        net = mesh_network(3)
        assert net.source == (0, 0) and net.destination == (2, 2)
        assert net.edge_count == 12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_network(0)
        with pytest.raises(ConfigurationError):
            ring_network(2)
        with pytest.raises(ConfigurationError):
            mesh_network(1)


class TestNetwork:
    def test_rejects_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        with pytest.raises(ConfigurationError):
            Network(graph, source=0, destination=2)

    def test_rejects_same_endpoints(self):
        with pytest.raises(ConfigurationError):
            Network(nx.path_graph(3), source=1, destination=1)

    def test_rejects_foreign_endpoints(self):
        with pytest.raises(ConfigurationError):
            Network(nx.path_graph(3), source=0, destination=99)

    def test_link_lookup_and_configure(self):
        net = line_network(3)
        net.configure_link(0, 1, latency=5, fail_rate=0.1)
        assert net.link(0, 1).latency == 5
        assert net.link(1, 0).latency == 5  # undirected
        with pytest.raises(ConfigurationError):
            net.link(0, 3)
        with pytest.raises(ConfigurationError):
            net.configure_link(0, 1, nonsense=1)

    def test_up_subgraph_excludes_down_links(self):
        net = line_network(3)
        net.configure_link(1, 2, up=False)
        assert not net.link_up(1, 2)
        assert net.shortest_up_path() is None  # the line is cut

    def test_ring_survives_single_cut(self):
        net = ring_network(6)
        net.configure_link(0, 1, up=False)
        path = net.shortest_up_path()
        assert path is not None  # the other way around survives
        assert path[0] == 0 and path[-1] == 3

    @pytest.mark.parametrize("rates", [
        {"fail_rate": 1.5}, {"fail_rate": -0.1}, {"repair_rate": 2.0},
    ])
    def test_rejects_out_of_range_rates(self, rates):
        with pytest.raises(ConfigurationError):
            line_network(3, **rates)
        net = line_network(3)
        with pytest.raises(ConfigurationError):
            net.configure_link(0, 1, latency=5, **rates)
        assert net.link(0, 1) == LinkState()  # nothing half-applied

    @pytest.mark.parametrize("origin, target", [(99, 0), (0, 99)])
    def test_route_rejects_unknown_endpoint(self, origin, target):
        net = line_network(3)
        with pytest.raises(ConfigurationError, match="99"):
            net.route(origin, target)
        assert net._routes == {}  # nothing memoised
        assert net.route(0, 3) == [0, 1, 2, 3]

    def test_tick_advances_all_links(self):
        net = line_network(5, fail_rate=1.0, repair_rate=0.0)
        net.tick(RandomSource(0))
        assert all(not net.link_up(i, i + 1) for i in range(5))
