"""Semi-reliable relay strategies: flooding and path maintenance.

A relay strategy answers one question per injected packet: *when, and how
many times, does a copy reach the far end?*  That is all the end-to-end
data link can observe, and it is exactly the semi-reliable contract of
Section 1 — copies may be lost (no up path / path broke mid-flight),
duplicated (flooding finds several routes), and reordered (different
latencies), but contents are never modified.

* :class:`FloodingRelay` — "a trivial implementation ... is by flooding
  each packet": breadth-first propagation over up links with a
  per-(token, edge) seen-set, so each link carries at most one copy of a
  token — at most |E| transmissions per packet, arrivals capped.
* :class:`PathRelay` — the [HK89] approach: keep one current path, send
  along it, and when a transit link is down (an "error is detected")
  recompute from the live topology *before* sending.  Costs path-length
  transmissions per packet when quiet; reroutes (without losing the
  packet) on failure, and loses the packet only when no up path exists.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.random_source import RandomSource
from repro.transport.network import Network

__all__ = ["Arrival", "RelayStrategy", "FloodingRelay", "PathRelay"]


@dataclass(frozen=True)
class Arrival:
    """One copy of an injected packet reaching the destination side."""

    token: object
    arrive_at: int


class RelayStrategy(ABC):
    """Common interface: inject a token now, receive arrivals later."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.transmissions = 0  # per-hop copies sent (communication cost)

    @abstractmethod
    def inject(self, token: object, now: int, direction: str, rng: RandomSource) -> List[Arrival]:
        """Relay one packet submitted at time ``now``.

        ``direction`` is ``"fwd"`` (source→destination) or ``"rev"``;
        the returned arrivals say when copies reach the other side.
        """

    def endpoints(self, direction: str) -> Tuple[object, object]:
        """(origin, target) nodes for a direction."""
        if direction == "fwd":
            return self.network.source, self.network.destination
        if direction == "rev":
            return self.network.destination, self.network.source
        raise ValueError(f"direction must be 'fwd' or 'rev', got {direction!r}")


class FloodingRelay(RelayStrategy):
    """Breadth-first flooding over currently-up links.

    Every node forwards the first copy it sees to all neighbours; the
    destination registers one arrival per distinct neighbour that hands it
    a copy (bounded duplication, the way real flooding behaves with
    per-node duplicate suppression).  Cost accounting charges one
    transmission per traversed up link.
    """

    def __init__(self, network: Network, max_duplicates: int = 4) -> None:
        super().__init__(network)
        if max_duplicates < 1:
            raise ValueError("max_duplicates must be >= 1")
        self._max_duplicates = max_duplicates

    def inject(self, token, now, direction, rng) -> List[Arrival]:
        origin, target = self.endpoints(direction)
        up = self.network.up_subgraph()
        # BFS wavefront with duplicate suppression at every node except the
        # target, which registers each incoming copy (up to the cap).  A
        # per-(token, edge) seen-set caps each link at one copy of this
        # token, bounding the storm at |E| transmissions per inject —
        # without it every forwarder echoes the token back across the
        # link it arrived on, and dense meshes amplify without bound.
        seen: Set[object] = {origin}
        traversed: Set[frozenset] = set()
        frontier = [(origin, 0)]
        arrivals: List[Arrival] = []
        while frontier:
            next_frontier: List[Tuple[object, int]] = []
            for node, depth in frontier:
                for neighbour in up[node]:
                    edge = frozenset((node, neighbour))
                    if edge in traversed:
                        continue
                    traversed.add(edge)
                    self.transmissions += 1
                    latency = self.network.link(node, neighbour).latency
                    if neighbour == target:
                        if len(arrivals) < self._max_duplicates:
                            arrivals.append(
                                Arrival(token=token, arrive_at=now + depth + latency)
                            )
                        continue
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append((neighbour, depth + latency))
            frontier = next_frontier
        return arrivals


class PathRelay(RelayStrategy):
    """[HK89]-style path maintenance: one cached route per direction.

    A packet travels its direction's current path hop by hop.  The cached
    route is validated against the live topology before every send: when a
    transit link has gone down since the route was cached (the "error
    detected" case) the stale route is discarded — counted in
    :attr:`reroutes` — and the packet rides the recomputed path instead of
    dying at the dead hop.  Only when *no* up path exists is the packet
    lost; the data link's retransmission machinery is what recovers then,
    exactly the division of labour the paper describes.
    """

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        self._paths: Dict[str, Optional[List]] = {"fwd": None, "rev": None}
        self.path_repairs = 0
        self.reroutes = 0
        self.losses = 0

    def current_path(self, direction: str) -> Optional[List]:
        """The cached route for a direction (None until first use)."""
        return self._paths.get(direction)

    def inject(self, token, now, direction, rng) -> List[Arrival]:
        origin, target = self.endpoints(direction)
        path = self._paths[direction]
        if path is not None and not self.network.path_up(path):
            # Stale route: a transit link went down after it was cached.
            # Repair *before* sending so the packet takes the fresh path
            # instead of being sacrificed to discover the failure.
            self._paths[direction] = path = None
            self.reroutes += 1
        if path is None:
            self.path_repairs += 1
            path = self.network.route(origin, target)
        if path is None:
            self.losses += 1
            return []
        elapsed = 0
        for hop_from, hop_to in zip(path, path[1:]):
            self.transmissions += 1
            elapsed += self.network.link(hop_from, hop_to).latency
        self._paths[direction] = path
        return [Arrival(token=token, arrive_at=now + elapsed)]
