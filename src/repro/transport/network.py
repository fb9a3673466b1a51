"""Multi-node network model for the transport-layer application.

Section 1 of the paper proposes running the protocol in the source and
destination processors of a *network*, with the intermediate processors
running any semi-reliable relay ("a trivial implementation ... is by
flooding each packet; a more efficient method is to try to find a reliable
path ... replacing the path only when an error is detected [HK89]").

:class:`Network` is built from a node list and a link list; every link
carries dynamic up/down state (a two-state Markov chain per link) and a
latency.  The relay strategies in :mod:`repro.transport.routing` propagate
packets across it, producing the loss, duplication and reordering the
end-to-end data link must survive.  :meth:`Network.route` is the one
routing primitive the relays and the fabric share: the shortest up path,
memoised on the up-set and searched over the network's adjacency lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigurationError
from repro.core.random_source import RandomSource

__all__ = [
    "LinkState",
    "Network",
    "check_rates",
    "line_network",
    "ring_network",
    "mesh_network",
]

Edge = Tuple[object, object]
UpKey = Tuple[bool, ...]


def check_rates(**rates: float) -> None:
    """Reject a link fail/repair rate outside [0, 1]: both are probabilities."""
    for name, value in rates.items():
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def _join(pred: Dict, succ: Dict, meet) -> List:
    """The path through ``meet``: its predecessor chain, then its successors."""
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


@dataclass
class LinkState:
    """One link's dynamic state: up/down plus the Markov toggle rates.

    :meth:`Network.tick` steps the chain: an up link fails with
    probability ``fail_rate``, a down link is repaired with probability
    ``repair_rate``.
    """

    up: bool = True
    fail_rate: float = 0.0
    repair_rate: float = 0.2
    latency: int = 1


class Network:
    """An undirected connected network with per-link failure dynamics.

    Parameters
    ----------
    nodes:
        The node ids.
    edges:
        The links, as ``(a, b)`` pairs of distinct nodes.  Their order is
        the Markov step's draw order and every node's neighbour order in
        route searches, so it is part of every seeded run.
    source / destination:
        The two endpoints running the data-link protocol.
    fail_rate / repair_rate / latency:
        Defaults applied to every link (overridable per link via
        :meth:`configure_link`).  Both rates must lie in [0, 1].
    """

    def __init__(
        self,
        nodes: Iterable,
        edges: Iterable[Edge],
        source,
        destination,
        fail_rate: float = 0.0,
        repair_rate: float = 0.2,
        latency: int = 1,
    ) -> None:
        self.nodes = tuple(nodes)
        self.edges = tuple((a, b) for a, b in edges)
        # Every node's (neighbour, link state) pairs in link order.
        adjacency: Dict[object, List[Tuple[object, LinkState]]] = {
            node: [] for node in self.nodes
        }
        if source not in adjacency or destination not in adjacency:
            raise ConfigurationError("source and destination must be network nodes")
        if source == destination:
            raise ConfigurationError("source and destination must differ")
        check_rates(fail_rate=fail_rate, repair_rate=repair_rate)
        self.source = source
        self.destination = destination
        # Each link's one LinkState, under both orientations.
        self._links: Dict[Edge, LinkState] = {}
        # Link states in link order: the Markov step's draw order.
        self._states: List[LinkState] = []
        for a, b in self.edges:
            if a == b or (a, b) in self._links or not {a, b} <= adjacency.keys():
                raise ConfigurationError(
                    f"link ({a!r}, {b!r}) is a loop, a repeat or names an unknown node"
                )
            state = LinkState(
                fail_rate=fail_rate, repair_rate=repair_rate, latency=latency
            )
            self._links[a, b] = self._links[b, a] = state
            self._states.append(state)
            adjacency[a].append((b, state))
            adjacency[b].append((a, state))
        self._adjacency = adjacency
        reached = [source]
        seen = {source}
        for node in reached:
            for neighbour, _ in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    reached.append(neighbour)
        if len(seen) < len(adjacency):
            raise ConfigurationError("the network must be connected")
        # route() results keyed on (up_key(), origin, target).
        self._routes: Dict[Tuple[UpKey, object, object], Optional[List]] = {}

    # -- link management ------------------------------------------------------------

    def link(self, a, b) -> LinkState:
        """The dynamic state of the link between two adjacent nodes."""
        try:
            return self._links[a, b]
        except KeyError:
            raise ConfigurationError(f"no link between {a!r} and {b!r}") from None

    def configure_link(self, a, b, **attrs) -> None:
        """Override fail_rate / repair_rate / latency / up on one link."""
        state = self.link(a, b)
        for key in attrs:
            if not hasattr(state, key):
                raise ConfigurationError(f"LinkState has no attribute {key!r}")
        check_rates(**{
            key: value for key, value in attrs.items()
            if key in ("fail_rate", "repair_rate")
        })
        for key, value in attrs.items():
            setattr(state, key, value)

    def tick(self, rng: RandomSource) -> None:
        """Advance every link's two-state Markov chain by one step.

        Links draw in link order, one uniform each: an up link with
        ``fail_rate`` 0 draws nothing, a down link always draws.  A rate
        outside [0, 1] raises the ``ValueError`` of
        :meth:`RandomSource.bernoulli`, whose tape this is.
        """
        draw = rng.random_float
        for state in self._states:
            if state.up:
                rate = state.fail_rate
                if not rate:
                    continue
            else:
                rate = state.repair_rate
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"probability {rate} outside [0, 1]")
            if draw() < rate:
                state.up = not state.up

    def link_up(self, a, b) -> bool:
        """True iff the link between two adjacent nodes is currently up."""
        return self.link(a, b).up

    def up_subgraph(self) -> Dict[object, List]:
        """Every node's neighbours over currently-up links, in link order."""
        return {
            node: [neighbour for neighbour, state in links if state.up]
            for node, links in self._adjacency.items()
        }

    def path_up(self, path: Sequence) -> bool:
        """True iff every link along ``path`` is up."""
        links = self._links
        a = path[0]
        for b in path[1:]:
            if not links[a, b].up:
                return False
            a = b
        return True

    def up_key(self) -> UpKey:
        """The up-set as a hashable key: every link's up flag, in link order."""
        return tuple([state.up for state in self._states])

    def route(self, origin, target, up_key: Optional[UpKey] = None) -> Optional[List]:
        """Shortest origin→target path over up links, or None if cut off.

        The path depends only on which links are up, so it is memoised for
        the life of this network on ``(up-set, origin, target)``; a miss
        runs :meth:`_search`, and a partition is memoised as None.  A
        caller that knows no link changed since it read :meth:`up_key` may
        pass that key instead of having it re-read.  Returned paths are
        shared between callers: never mutate one.
        """
        adjacency = self._adjacency
        for node in (origin, target):
            if node not in adjacency:
                raise ConfigurationError(f"{node!r} is not a node of this network")
        key = (self.up_key() if up_key is None else up_key, origin, target)
        try:
            return self._routes[key]
        except KeyError:
            pass
        path = self._routes[key] = self._search(origin, target)
        return path

    def _search(self, origin, target, adjacency=None) -> Optional[List]:
        """Bidirectional breadth-first search over the up links of
        ``adjacency`` (the network's own by default).

        Takes the steps of networkx's ``bidirectional_shortest_path`` on
        the graph of :meth:`up_subgraph` — expand the smaller fringe (the
        forward one on a tie), test every scanned neighbour for a meeting,
        then join the predecessor and successor chains at it — over the
        same neighbour order, so it returns the path networkx would.
        """
        if origin == target:
            return [origin]
        if adjacency is None:
            adjacency = self._adjacency
        pred = {origin: None}
        succ = {target: None}
        forward = [origin]
        reverse = [target]
        while forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                fringe, seen, other = forward, pred, succ
            else:
                level, reverse = reverse, []
                fringe, seen, other = reverse, succ, pred
            for v in level:
                for w, state in adjacency[v]:
                    if not state.up:
                        continue
                    if w not in seen:
                        fringe.append(w)
                        seen[w] = v
                    if w in other:
                        return _join(pred, succ, w)
        return None

    def shortest_up_path(self) -> Optional[List]:
        """Shortest source→destination path over up links, or None."""
        return self.route(self.source, self.destination)

    def disjoint_routes(self, k: int) -> List[List]:
        """Up to ``k`` vertex-disjoint source→destination routes.

        Greedy shortest-first over every link, up or down: repeatedly take
        a shortest path (:meth:`_search`), then drop its interior nodes
        (and, for a direct source–destination link, the link itself) from
        a working adjacency, so later routes cannot share any relay with
        earlier ones — the Bunn–Ostrovsky condition for running fully
        independent protocol instances per route.  Deterministic (BFS in
        link order), shortest routes first, and degrades gracefully: a
        line yields exactly one route, a ring two, a grid corner-to-corner
        two (the corner degree caps it).  May return fewer than ``k``
        routes; never zero.
        """
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        up = LinkState()  # every link counts as up here
        work = {
            node: [(neighbour, up) for neighbour, _ in links]
            for node, links in self._adjacency.items()
        }
        routes: List[List] = []
        while len(routes) < k:
            route = self._search(self.source, self.destination, work)
            if route is None:
                break
            routes.append(route)
            if len(route) == 2:
                a, b = route
                work[a] = [pair for pair in work[a] if pair[0] != b]
                work[b] = [pair for pair in work[b] if pair[0] != a]
            else:
                interior = set(route[1:-1])
                for node, links in work.items():
                    work[node] = [pair for pair in links if pair[0] not in interior]
        return routes

    @property
    def edge_count(self) -> int:
        """|E| — the unit of flooding's per-packet cost."""
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={len(self.nodes)}, "
            f"edges={self.edge_count}, {self.source!r}->{self.destination!r})"
        )


# The builders list links in the order the recorded fabric runs were made
# with (networkx's path, cycle and grid graphs): link order is the Markov
# draw order and the neighbour order of every route search.


def line_network(hops: int, **kwargs) -> Network:
    """A path of ``hops`` links: the minimal multi-hop topology."""
    if hops < 1:
        raise ConfigurationError("hops must be >= 1")
    nodes = range(hops + 1)
    return Network(nodes, zip(nodes, nodes[1:]), source=0, destination=hops, **kwargs)


def ring_network(nodes: int, **kwargs) -> Network:
    """A cycle of ``nodes`` nodes: two disjoint source→destination paths.

    Node 0's two links come first, then the rest of the cycle in order.
    """
    if nodes < 3:
        raise ConfigurationError("a ring needs at least 3 nodes")
    edges = [(0, 1), (0, nodes - 1)] + [(i, i + 1) for i in range(1, nodes - 1)]
    return Network(range(nodes), edges, source=0, destination=nodes // 2, **kwargs)


def mesh_network(side: int, **kwargs) -> Network:
    """A side×side grid: rich path diversity for the flooding relay.

    Nodes ``(i, j)`` run row-major; each lists its link down to
    ``(i + 1, j)`` before its link across to ``(i, j + 1)``.
    """
    if side < 2:
        raise ConfigurationError("a mesh needs side >= 2")
    nodes = [(i, j) for i in range(side) for j in range(side)]
    edges = []
    for i, j in nodes:
        if i + 1 < side:
            edges.append(((i, j), (i + 1, j)))
        if j + 1 < side:
            edges.append(((i, j), (i, j + 1)))
    return Network(
        nodes, edges, source=(0, 0), destination=(side - 1, side - 1), **kwargs
    )
