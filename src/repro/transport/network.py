"""Multi-node network model for the transport-layer application.

Section 1 of the paper proposes running the protocol in the source and
destination processors of a *network*, with the intermediate processors
running any semi-reliable relay ("a trivial implementation ... is by
flooding each packet; a more efficient method is to try to find a reliable
path ... replacing the path only when an error is detected [HK89]").

:class:`Network` wraps a :mod:`networkx` graph whose edges carry dynamic
up/down state (a two-state Markov chain per link) and a latency.  The relay
strategies in :mod:`repro.transport.routing` propagate packets across it,
producing the loss, duplication and reordering the end-to-end data link
must survive.  :meth:`Network.route` is the one routing primitive the
relays and the fabric share: the shortest up path, memoised on the up-set
and searched over a prebuilt up-adjacency rather than a networkx graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.core.exceptions import ConfigurationError
from repro.core.random_source import RandomSource

__all__ = [
    "LinkState",
    "Network",
    "check_rates",
    "disjoint_routes",
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


def _normalize(edge: Edge) -> Edge:
    a, b = edge
    return (a, b) if repr(a) <= repr(b) else (b, a)


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
    """An undirected network with per-link failure dynamics.

    Parameters
    ----------
    graph:
        Any connected undirected :class:`networkx.Graph`.
    source / destination:
        The two endpoints running the data-link protocol.
    fail_rate / repair_rate / latency:
        Defaults applied to every link (overridable per edge via
        :meth:`configure_link`).  Both rates must lie in [0, 1].
    """

    def __init__(
        self,
        graph: nx.Graph,
        source,
        destination,
        fail_rate: float = 0.0,
        repair_rate: float = 0.2,
        latency: int = 1,
    ) -> None:
        if source not in graph or destination not in graph:
            raise ConfigurationError("source and destination must be graph nodes")
        if source == destination:
            raise ConfigurationError("source and destination must differ")
        if not nx.is_connected(graph):
            raise ConfigurationError("the network graph must be connected")
        check_rates(fail_rate=fail_rate, repair_rate=repair_rate)
        self.graph = graph
        self.source = source
        self.destination = destination
        self._links: Dict[Edge, LinkState] = {
            _normalize(edge): LinkState(
                fail_rate=fail_rate, repair_rate=repair_rate, latency=latency
            )
            for edge in graph.edges()
        }
        # Link states in link order: the Markov step's draw order.
        self._states: List[LinkState] = list(self._links.values())
        # Every node's (neighbour, link state) pairs in link order, so its
        # up neighbours come out in the order up_subgraph() lists them.
        self._adjacency: Dict[object, List[Tuple[object, LinkState]]] = {
            node: [] for node in graph.nodes()
        }
        for (a, b), state in self._links.items():
            self._adjacency[a].append((b, state))
            if a != b:
                self._adjacency[b].append((a, state))
        # route() results keyed on (up_key(), origin, target).
        self._routes: Dict[Tuple[UpKey, object, object], Optional[List]] = {}

    # -- link management ------------------------------------------------------------

    def link(self, a, b) -> LinkState:
        """The dynamic state of the link between two adjacent nodes."""
        try:
            return self._links[_normalize((a, b))]
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

    def up_subgraph(self) -> nx.Graph:
        """The graph restricted to currently-up links."""
        up_edges = [
            edge for edge, state in self._links.items() if state.up
        ]
        sub = nx.Graph()
        sub.add_nodes_from(self.graph.nodes())
        sub.add_edges_from(up_edges)
        return sub

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

    def _search(self, origin, target) -> Optional[List]:
        """Bidirectional breadth-first search over the up links.

        Takes the steps of networkx's ``bidirectional_shortest_path`` on
        :meth:`up_subgraph` — expand the smaller fringe (the forward one on
        a tie), test every scanned neighbour for a meeting, then join the
        predecessor and successor chains at it — over the same neighbour
        order, so it returns the path networkx would, without building a
        graph.
        """
        if origin == target:
            return [origin]
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

    @property
    def edge_count(self) -> int:
        """|E| — the unit of flooding's per-packet cost."""
        return self.graph.number_of_edges()

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.edge_count}, {self.source!r}->{self.destination!r})"
        )


def disjoint_routes(graph: nx.Graph, source, destination, k: int) -> List[List]:
    """Up to ``k`` vertex-disjoint source→destination routes.

    Greedy shortest-first: repeatedly take a shortest path, then delete its
    interior nodes (and, for a direct source–destination edge, the edge
    itself) from a working copy, so later routes cannot share any relay
    with earlier ones — the Bunn–Ostrovsky condition for running fully
    independent protocol instances per route.  Deterministic for a given
    graph (BFS order), shortest routes first, and degrades gracefully:
    a line yields exactly one route, a ring two, a grid corner-to-corner
    two (the corner degree caps it).  May return fewer than ``k`` routes;
    never zero for a connected graph.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if source not in graph or destination not in graph:
        raise ConfigurationError("source and destination must be graph nodes")
    work = graph.copy()
    routes: List[List] = []
    while len(routes) < k:
        try:
            route = nx.shortest_path(work, source, destination)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            break
        routes.append(route)
        if len(route) == 2:
            work.remove_edge(source, destination)
        else:
            work.remove_nodes_from(route[1:-1])
    return routes


def line_network(hops: int, **kwargs) -> Network:
    """A path graph of ``hops`` links: the minimal multi-hop topology."""
    if hops < 1:
        raise ConfigurationError("hops must be >= 1")
    graph = nx.path_graph(hops + 1)
    return Network(graph, source=0, destination=hops, **kwargs)


def ring_network(nodes: int, **kwargs) -> Network:
    """A cycle of ``nodes`` nodes: two disjoint source→destination paths."""
    if nodes < 3:
        raise ConfigurationError("a ring needs at least 3 nodes")
    graph = nx.cycle_graph(nodes)
    return Network(graph, source=0, destination=nodes // 2, **kwargs)


def mesh_network(side: int, **kwargs) -> Network:
    """A side×side grid: rich path diversity for the flooding relay."""
    if side < 2:
        raise ConfigurationError("a mesh needs side >= 2")
    graph = nx.grid_2d_graph(side, side)
    return Network(graph, source=(0, 0), destination=(side - 1, side - 1), **kwargs)
