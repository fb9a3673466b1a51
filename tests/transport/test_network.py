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
        state = LinkState(fail_rate=0.0)
        rng = RandomSource(0)
        for __ in range(100):
            state.tick(rng)
        assert state.up

    def test_fails_and_repairs(self):
        state = LinkState(fail_rate=0.5, repair_rate=0.5)
        rng = RandomSource(1)
        saw_down = saw_up_again = False
        for __ in range(200):
            was_up = state.up
            state.tick(rng)
            if was_up and not state.up:
                saw_down = True
            if saw_down and state.up:
                saw_up_again = True
        assert saw_down and saw_up_again


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

    def test_tick_advances_all_links(self):
        net = line_network(5, fail_rate=1.0, repair_rate=0.0)
        net.tick(RandomSource(0))
        assert all(not net.link_up(i, i + 1) for i in range(5))
