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
relays and the fabric share: the shortest up path, memoised on the up-set.
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


def _normalize(edge: Edge) -> Edge:
    a, b = edge
    return (a, b) if repr(a) <= repr(b) else (b, a)


@dataclass
class LinkState:
    """One link's dynamic state: up/down plus the Markov toggle rates."""

    up: bool = True
    fail_rate: float = 0.0
    repair_rate: float = 0.2
    latency: int = 1

    def tick(self, rng: RandomSource) -> None:
        """Advance the two-state Markov chain by one time step."""
        if self.up:
            if self.fail_rate and rng.bernoulli(self.fail_rate):
                self.up = False
        else:
            if rng.bernoulli(self.repair_rate):
                self.up = True


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
        """Advance every link's failure process by one step."""
        for state in self._links.values():
            state.tick(rng)

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
        return tuple([state.up for state in self._links.values()])

    def route(self, origin, target, up_key: Optional[UpKey] = None) -> Optional[List]:
        """Shortest origin→target path over up links, or None if cut off.

        The path networkx picks depends only on which links are up, so it
        is memoised for the life of this network on ``(up-set, origin,
        target)``; a miss searches :meth:`up_subgraph`, and a partition is
        memoised as None.  A caller that knows no link changed since it
        read :meth:`up_key` may pass that key instead of having it re-read.
        Returned paths are shared between callers: never mutate one.
        """
        key = (self.up_key() if up_key is None else up_key, origin, target)
        try:
            return self._routes[key]
        except KeyError:
            pass
        try:
            path = nx.shortest_path(self.up_subgraph(), origin, target)
        except nx.NetworkXNoPath:
            path = None
        self._routes[key] = path
        return path

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
