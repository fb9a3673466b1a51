"""Route memoisation: :meth:`Network.route` against networkx, and the fabric
against recorded runs.

``Network.route`` memoises the shortest up path on (up-set, origin,
target).  Part (a) checks the memo against a fresh networkx search for
every up-set of a 4-hop line and an 8-node ring (and a seeded sample of
3x3-mesh up-sets), over every ordered node pair, including after the
up-set returns to one seen before.  Part (b) pins whole fabric runs to a
table recorded before routes were memoised: the kernel-vs-object
differential suite cannot catch a routing change, since both engines
share the router.
"""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest

from repro.core.events import ReceiveMsg
from repro.resilience.faultplan import LinkDownWindow, RelayCrashAt, RouteFlapAt
from repro.transport.fabric import FabricRun, FabricSpec
from repro.transport.network import line_network, mesh_network, ring_network

# -- (a) the memo agrees with networkx on every up-set ------------------------------


def _set_up_links(net, mask: int) -> None:
    """Bit i of ``mask`` is the up flag of the i-th graph edge."""
    for i, (a, b) in enumerate(net.graph.edges()):
        net.link(a, b).up = bool(mask >> i & 1)


def _search(up: nx.Graph, origin, target):
    try:
        return nx.shortest_path(up, origin, target)
    except nx.NetworkXNoPath:
        return None


def _check_against_networkx(net, masks) -> dict:
    """Every pair's memoised route equals a fresh search; returns them all."""
    nodes = list(net.graph.nodes())
    routes = {}
    for mask in masks:
        _set_up_links(net, mask)
        up = net.up_subgraph()
        for origin in nodes:
            for target in nodes:
                route = net.route(origin, target)
                assert route == _search(up, origin, target), (mask, origin, target)
                routes[mask, origin, target] = route
    return routes


def _all_masks_twice(links: int) -> list:
    """Every up-set, then every up-set again in a shuffled order."""
    masks = list(range(2 ** links))
    again = masks[:]
    random.Random(links).shuffle(again)
    return masks + again


@pytest.mark.parametrize("net", [line_network(4), ring_network(8)],
                         ids=["line4", "ring8"])
def test_every_up_set_matches_networkx(net):
    _check_against_networkx(net, _all_masks_twice(net.edge_count))


def test_sampled_mesh_up_sets_match_networkx():
    rng = random.Random(3)
    masks = [rng.getrandbits(12) for _ in range(48)]
    _check_against_networkx(mesh_network(3), masks + masks[::-3])


def test_revisited_up_sets_are_memo_hits(monkeypatch):
    net = ring_network(8)
    routes = _check_against_networkx(net, range(2 ** 8))

    def no_search(*args, **kwargs):
        raise AssertionError("networkx searched an up-set already memoised")

    monkeypatch.setattr(nx, "shortest_path", no_search)
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


# -- (b) fabric runs match a table recorded before the memo --------------------------

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
#: bits_sent, digest of the per-message delivery ticks), recorded with
#: routes searched afresh on every lookup.
GOLDEN = {
    ("line4", 0): (1191, 77, 5, 5, 314, 3265, 646704, "ca58d6e7b93b06eb"),
    ("line4", 1): (1300, 109, 4, 4, 458, 3389, 669640, "b5332b1eaf179397"),
    ("line4", 7): (1234, 100, 9, 9, 416, 3370, 666096, "335aa5528e7f5d4f"),
    ("line4", 42): (1372, 112, 8, 7, 405, 3245, 641224, "3e8674c62187d84f"),
    ("line4", 1234): (1667, 119, 18, 18, 530, 3509, 692680, "2ff3c0d56811ae79"),
    ("line4", 99991): (1328, 97, 2, 2, 514, 3385, 667536, "37ad3a9bec744dbb"),
    ("ring8x2", 0): (2717, 180, 106, 64, 608, 4873, 959608, "6de7078a5da7ddb6"),
    ("ring8x2", 1): (2626, 165, 94, 55, 657, 4826, 949368, "3f19bc18b82e0750"),
    ("ring8x2", 7): (2381, 170, 84, 58, 588, 4493, 883520, "5e8ead1efc8a3d2c"),
    ("ring8x2", 42): (3008, 186, 119, 73, 693, 5037, 990208, "1e339596ffe6eba0"),
    ("ring8x2", 1234): (2381, 167, 82, 52, 654, 4698, 923120, "f01258f0c843d618"),
    ("ring8x2", 99991): (2019, 151, 60, 38, 482, 4239, 833464, "7ca4c2a9d85a8a12"),
    ("ring6", 3): (666, 68, 26, 10, 191, 1106, 212616, "3b04adb24f6459c9"),
    ("ring6", 11): (528, 58, 19, 11, 139, 1002, 193192, "575d2ff4039db2c5"),
    ("mesh3", 3): (504, 82, 13, 7, 251, 1474, 282584, "292f1c1c93e3f9e4"),
    ("mesh3", 11): (551, 86, 14, 10, 244, 1443, 276232, "4a36be83d81df9d3"),
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
