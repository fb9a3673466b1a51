"""Unit tests for the flooding and path-maintenance relays."""

from __future__ import annotations

import pytest

from repro.core.random_source import RandomSource
from repro.transport.network import line_network, mesh_network, ring_network
from repro.transport.routing import FloodingRelay, PathRelay


RNG = RandomSource(0)


class TestFloodingRelay:
    def test_line_delivers_one_copy(self):
        net = line_network(3)
        relay = FloodingRelay(net)
        arrivals = relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert len(arrivals) == 1
        assert arrivals[0].arrive_at == 3  # three unit-latency hops

    def test_ring_delivers_duplicate_copies(self):
        net = ring_network(6)
        relay = FloodingRelay(net)
        arrivals = relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert len(arrivals) == 2  # both ways around the ring

    def test_duplicate_cap(self):
        net = mesh_network(4)
        relay = FloodingRelay(net, max_duplicates=2)
        arrivals = relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert len(arrivals) <= 2

    def test_cost_scales_with_edges(self):
        net = mesh_network(4)
        relay = FloodingRelay(net)
        relay.inject("tok", now=0, direction="fwd", rng=RNG)
        # Flooding touches on the order of |E| links.
        assert relay.transmissions >= net.edge_count - 1

    def test_duplicate_storm_bounded_per_token_edge(self):
        # The PR-9 satellite fix: each link carries at most one copy of a
        # token per inject, so a dense mesh cannot amplify the storm past
        # |E| transmissions — previously every forwarder echoed the token
        # back across the link it arrived on (~2|E|).
        net = mesh_network(5)
        relay = FloodingRelay(net, max_duplicates=3)
        arrivals = relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert relay.transmissions <= net.edge_count
        assert len(arrivals) <= 3
        # Repeated injects stay within the per-inject bound each time.
        relay.inject("tok2", now=1, direction="fwd", rng=RNG)
        assert relay.transmissions <= 2 * net.edge_count

    def test_cut_network_loses_packet(self):
        net = line_network(2)
        net.configure_link(0, 1, up=False)
        relay = FloodingRelay(net)
        assert relay.inject("tok", now=0, direction="fwd", rng=RNG) == []

    def test_reverse_direction(self):
        net = line_network(2)
        relay = FloodingRelay(net)
        arrivals = relay.inject("tok", now=5, direction="rev", rng=RNG)
        assert len(arrivals) == 1
        assert arrivals[0].arrive_at == 7

    def test_direction_validated(self):
        relay = FloodingRelay(line_network(2))
        with pytest.raises(ValueError):
            relay.inject("tok", now=0, direction="sideways", rng=RNG)

    def test_max_duplicates_validated(self):
        with pytest.raises(ValueError):
            FloodingRelay(line_network(2), max_duplicates=0)


class TestPathRelay:
    def test_delivers_along_shortest_path(self):
        net = ring_network(8)
        relay = PathRelay(net)
        arrivals = relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert len(arrivals) == 1
        assert arrivals[0].arrive_at == 4  # 0 -> 4 is four hops

    def test_cost_is_path_length(self):
        net = ring_network(8)
        relay = PathRelay(net)
        relay.inject("tok", now=0, direction="fwd", rng=RNG)
        assert relay.transmissions == 4

    def test_path_cached_between_packets(self):
        net = ring_network(8)
        relay = PathRelay(net)
        relay.inject("a", now=0, direction="fwd", rng=RNG)
        repairs_after_first = relay.path_repairs
        relay.inject("b", now=1, direction="fwd", rng=RNG)
        assert relay.path_repairs == repairs_after_first  # no recompute

    def test_stale_path_reroutes_without_losing_packet(self):
        # The PR-9 satellite fix: a link on the cached route going down
        # mid-stream must trigger a recompute *before* the next send, not
        # cost a packet to discover the failure.
        net = ring_network(8)
        relay = PathRelay(net)
        relay.inject("a", now=0, direction="fwd", rng=RNG)
        path = relay.current_path("fwd")
        net.configure_link(path[0], path[1], up=False)
        arrivals = relay.inject("b", now=1, direction="fwd", rng=RNG)
        assert len(arrivals) == 1  # delivered via the fresh path
        assert relay.losses == 0
        assert relay.reroutes == 1
        # The repaired path avoids the dead link.
        new_path = relay.current_path("fwd")
        assert new_path is not None
        assert (path[0], path[1]) not in zip(new_path, new_path[1:])

    def test_recovered_path_delivers(self):
        net = ring_network(8)
        relay = PathRelay(net)
        relay.inject("a", now=0, direction="fwd", rng=RNG)
        path = relay.current_path("fwd")
        net.configure_link(path[0], path[1], up=False)
        relay.inject("b", now=1, direction="fwd", rng=RNG)  # reroutes
        arrivals = relay.inject("c", now=2, direction="fwd", rng=RNG)
        assert len(arrivals) == 1

    def test_fully_cut_network(self):
        net = line_network(2)
        net.configure_link(0, 1, up=False)
        relay = PathRelay(net)
        assert relay.inject("a", now=0, direction="fwd", rng=RNG) == []
        assert relay.losses == 1

    def test_directions_have_independent_paths(self):
        net = ring_network(8)
        relay = PathRelay(net)
        relay.inject("a", now=0, direction="fwd", rng=RNG)
        assert relay.current_path("rev") is None
        relay.inject("b", now=0, direction="rev", rng=RNG)
        assert relay.current_path("rev") is not None
