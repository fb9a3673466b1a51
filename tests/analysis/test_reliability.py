"""The exact source–destination reliability oracle."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.reliability import (
    MAX_LINKS,
    connected_up_sets,
    reliability,
    stationary_up_probability,
)
from repro.core.exceptions import ConfigurationError
from repro.transport.network import line_network, mesh_network, ring_network

P = 0.8


class TestClosedForms:
    def test_line_is_a_series_system(self):
        assert reliability(line_network(4), P) == pytest.approx(P ** 4)
        assert reliability(line_network(4), P) == pytest.approx(0.4096)

    def test_ring_is_two_parallel_arcs(self):
        assert reliability(ring_network(6), P) == pytest.approx(
            1 - (1 - P ** 3) ** 2
        )
        assert reliability(ring_network(6), P) == pytest.approx(0.761856)

    def test_even_ring_of_eight(self):
        assert reliability(ring_network(8), P) == pytest.approx(
            1 - (1 - P ** 4) ** 2
        )
        assert reliability(ring_network(8), P) == pytest.approx(0.651428, abs=1e-6)

    def test_mesh_matches_networkx(self):
        net = mesh_network(3)
        edges = list(net.edges)
        expected = 0.0
        for mask in range(2 ** len(edges)):
            up = nx.Graph()
            up.add_nodes_from(net.nodes)
            up.add_edges_from(e for i, e in enumerate(edges) if mask >> i & 1)
            if nx.has_path(up, net.source, net.destination):
                k = bin(mask).count("1")
                expected += P ** k * (1 - P) ** (len(edges) - k)
        assert reliability(net, P) == pytest.approx(expected)
        assert reliability(net, P) == pytest.approx(0.869502, abs=1e-6)


class TestOracle:
    @pytest.mark.parametrize("build,size", (
        (line_network, 3), (ring_network, 5), (mesh_network, 2),
    ))
    def test_endpoints_of_the_unit_interval(self, build, size):
        net = build(size)
        assert reliability(net, 0.0) == 0.0
        assert reliability(net, 1.0) == pytest.approx(1.0)

    def test_counts_are_the_polynomial_coefficients(self):
        # A 4-ring from 0 to 2: two arcs of two links each.  Both arcs up
        # (k=4), one arc up plus any one link of the other (k=3: 4 sets),
        # exactly one arc up (k=2: 2 sets).
        assert connected_up_sets(ring_network(4)) == [0, 0, 2, 4, 1]

    def test_link_flags_restored(self):
        net = ring_network(6)
        net.configure_link(1, 2, up=False)
        flags = [net.link(a, b).up for a, b in net.edges]
        reliability(net, P)
        assert [net.link(a, b).up for a, b in net.edges] == flags
        assert net.shortest_up_path() == [0, 5, 4, 3]

    def test_monotone_in_p(self):
        net = mesh_network(2)
        values = [reliability(net, p / 10) for p in range(11)]
        assert values == sorted(values)

    def test_rejects_bad_p_and_large_networks(self):
        with pytest.raises(ConfigurationError):
            reliability(line_network(2), 1.5)
        with pytest.raises(ConfigurationError):
            connected_up_sets(line_network(MAX_LINKS + 1))


class TestStationaryUpProbability:
    def test_markov_chain_balance(self):
        assert stationary_up_probability(0.05, 0.2) == pytest.approx(0.8)

    def test_never_failing_link_is_always_up(self):
        assert stationary_up_probability(0.0, 0.2) == 1.0
        assert stationary_up_probability(0.0, 0.0) == 1.0
