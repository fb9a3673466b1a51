"""Route memoisation: :meth:`Network.route` against networkx, and the fabric
against recorded runs.

``Network.route`` memoises the shortest up path on (up-set, origin,
target) and fills a miss with its own bidirectional search.  Part (a)
checks every route against a fresh networkx search on every up-set of
lines of 1-8 hops, rings of 3-10 nodes and the 2x2 and 3x3 meshes, over
every ordered node pair, and that a revisited up-set returns the memoised
path.  Part (b) pins whole fabric runs to a recorded table (``GOLDEN``
says when each row was recorded): the kernel-vs-object differential
suite cannot catch a routing change, since both engines share the router.
"""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest

from repro.core.events import ReceiveMsg
from repro.resilience.faultplan import LinkDownWindow, RelayCrashAt, RouteFlapAt
from repro.transport.fabric import FabricRun, FabricSpec
from repro.transport.network import Network, line_network, mesh_network, ring_network

# -- (a) routes agree with networkx on every up-set --------------------------------


def _set_up_links(net, mask: int) -> None:
    """Bit i of ``mask`` is the up flag of the i-th link."""
    for i, (a, b) in enumerate(net.edges):
        net.link(a, b).up = bool(mask >> i & 1)


def _up_graph(net) -> nx.Graph:
    """The up links as a networkx graph, added in link order."""
    up = nx.Graph()
    up.add_nodes_from(net.nodes)
    up.add_edges_from(edge for edge in net.edges if net.link(*edge).up)
    return up


def _search(up: nx.Graph, origin, target):
    try:
        return nx.shortest_path(up, origin, target)
    except nx.NetworkXNoPath:
        return None


def _check_against_networkx(net, masks) -> dict:
    """Every pair's route equals networkx's on the first visit to its
    up-set and is the memoised path on every later one; returns them all."""
    nodes = list(net.nodes)
    routes = {}
    for mask in masks:
        _set_up_links(net, mask)
        up = None
        for origin in nodes:
            for target in nodes:
                route = net.route(origin, target)
                key = mask, origin, target
                if key in routes:
                    assert route is routes[key], key
                    continue
                if up is None:
                    up = _up_graph(net)
                assert route == _search(up, origin, target), key
                routes[key] = route
    return routes


def _all_masks_twice(links: int) -> list:
    """Every up-set, then every up-set again in a shuffled order."""
    masks = list(range(2 ** links))
    again = masks[:]
    random.Random(links).shuffle(again)
    return masks + again


NETWORKS = {
    **{f"line{hops}": (line_network, hops) for hops in range(1, 9)},
    **{f"ring{nodes}": (ring_network, nodes) for nodes in range(3, 11)},
    "mesh2": (mesh_network, 2),
    # 4096 up-sets x 81 node pairs: several seconds of networkx searches.
    "mesh3": pytest.param((mesh_network, 3), marks=pytest.mark.slow),
}


@pytest.mark.parametrize("topology", list(NETWORKS.values()), ids=list(NETWORKS))
def test_every_up_set_matches_networkx(topology):
    build, size = topology
    net = build(size)
    _check_against_networkx(net, _all_masks_twice(net.edge_count))


def test_revisited_up_sets_are_memo_hits(monkeypatch):
    net = ring_network(8)
    routes = _check_against_networkx(net, range(2 ** 8))

    def no_search(*args, **kwargs):
        raise AssertionError("searched an up-set already memoised")

    monkeypatch.setattr(Network, "_search", no_search)
    for mask, origin, target in reversed(list(routes)):
        _set_up_links(net, mask)
        assert net.route(origin, target) is routes[mask, origin, target]


def test_partition_is_memoised_as_none():
    net = line_network(3)
    net.configure_link(1, 2, up=False)
    assert net.route(0, 3) is None
    assert net.shortest_up_path() is None
    net.configure_link(1, 2, up=True)
    assert net.shortest_up_path() == [0, 1, 2, 3]


# -- (b) fabric runs match a recorded table ----------------------------------------

SEEDS = (0, 1, 7, 42, 1234, 99991)

#: The benchmark's two stream shapes, at its fail_rate on the kernel engine.
BENCH_SHAPES = {
    "line4": dict(topology="line", size=4, paths=1),
    "ring8x2": dict(topology="ring", size=8, paths=2),
}

#: One scripted partition + flap + relay crash per shape, object engine.
SCRIPTED = {
    "ring6": (dict(topology="ring", size=6), (
        LinkDownWindow(start=5, end=40, link=(0, 1)),
        RouteFlapAt(step=60),
        RelayCrashAt(step=90, node=4),
    )),
    "mesh3": (dict(topology="mesh", size=3), (
        LinkDownWindow(start=5, end=40, link=((0, 0), (0, 1))),
        RouteFlapAt(step=60),
        RelayCrashAt(step=90, node=(1, 1)),
    )),
}

#: (ticks, reroutes, retransmits, dup_drops, dropped_down, packets_sent,
#: bits_sent, digest of the per-message delivery ticks).  The line4 rows
#: were recorded with routes searched afresh by networkx on every lookup.
#: The ring8x2, ring6 and mesh3 rows were re-recorded when the source and
#: destination gained transit queues: a frame a detour hands to an
#: endpoint it does not terminate at is now forwarded instead of dropped,
#: so those runs recover without waiting for the RTO.  A line never
#: detours through an endpoint, so its rows did not move.
GOLDEN = {
    ("line4", 0): (1191, 77, 5, 5, 314, 3265, 646704, "ca58d6e7b93b06eb"),
    ("line4", 1): (1300, 109, 4, 4, 458, 3389, 669640, "b5332b1eaf179397"),
    ("line4", 7): (1234, 100, 9, 9, 416, 3370, 666096, "335aa5528e7f5d4f"),
    ("line4", 42): (1372, 112, 8, 7, 405, 3245, 641224, "3e8674c62187d84f"),
    ("line4", 1234): (1667, 119, 18, 18, 530, 3509, 692680, "2ff3c0d56811ae79"),
    ("line4", 99991): (1328, 97, 2, 2, 514, 3385, 667536, "37ad3a9bec744dbb"),
    ("ring8x2", 0): (1192, 121, 11, 11, 587, 4208, 825680, "cd0ac900cd4af75b"),
    ("ring8x2", 1): (1090, 113, 8, 8, 528, 4118, 807872, "1cf494f24bd42731"),
    ("ring8x2", 7): (1075, 109, 5, 5, 486, 3859, 757280, "1e13f3b5c5cbd948"),
    ("ring8x2", 42): (1168, 122, 9, 8, 576, 4084, 801624, "838f5830c4d2ef02"),
    ("ring8x2", 1234): (1353, 122, 15, 15, 491, 4256, 836496, "11c3d802d7dcf0a0"),
    ("ring8x2", 99991): (1249, 125, 20, 20, 579, 4282, 840968, "60a707be316c67bf"),
    ("ring6", 3): (275, 28, 3, 3, 152, 1011, 194280, "834948ef046ae005"),
    ("ring6", 11): (299, 34, 2, 2, 108, 917, 176744, "d6279d5bf0152912"),
    ("mesh3", 3): (440, 71, 6, 5, 278, 1458, 279160, "ed587acce604f02e"),
    ("mesh3", 11): (311, 53, 4, 4, 225, 1372, 262552, "0f26ca107a29ecbe"),
}


def _row(spec: FabricSpec, events, seed: int) -> tuple:
    run = FabricRun(spec, events, seed)
    ticks = []
    run.trace.subscribe(lambda index, event: ticks.append(run.ticks),
                        types=(ReceiveMsg,))
    metrics = run.run().result.metrics
    digest = hashlib.sha256(",".join(map(str, ticks)).encode()).hexdigest()
    return (run.ticks, run.reroutes, run.retransmits, run.dup_drops,
            run.dropped_down, metrics.packets_sent, metrics.bits_sent,
            digest[:16])


@pytest.mark.parametrize("shape", BENCH_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bench_streams_match_recorded(shape, seed):
    spec = FabricSpec(messages=200, fail_rate=0.05, engine="kernel",
                      **BENCH_SHAPES[shape])
    assert _row(spec, (), seed) == GOLDEN[shape, seed]


@pytest.mark.parametrize("shape", SCRIPTED)
@pytest.mark.parametrize("seed", (3, 11))
def test_scripted_faults_match_recorded(shape, seed):
    topology, events = SCRIPTED[shape]
    spec = FabricSpec(messages=60, fail_rate=0.05, **topology)
    assert _row(spec, events, seed) == GOLDEN[shape, seed]
