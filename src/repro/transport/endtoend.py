"""End-to-end composition: the data link over a relayed network.

:class:`NetworkRelay` is an :class:`~repro.adversary.Adversary` whose
"malice" is simply physics: each announced packet is handed to a relay
strategy over a failing network, and the copies that survive become
deliveries at the times the relay computed.  Loss (no route), duplication
(flooding's multiple routes) and reordering (different latencies / repair
delays) all arise naturally, so running the ordinary
:class:`~repro.sim.Simulator` with this adversary *is* the transport-layer
deployment of Section 1 — and the Section 2.6 checkers apply unchanged.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.adversary.base import (
    PASS,
    Adversary,
    Move,
    make_deliver,
)
from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId
from repro.transport.network import Network
from repro.transport.routing import RelayStrategy

__all__ = ["NetworkRelay"]


class NetworkRelay(Adversary):
    """Adversary backed by a network simulation.

    Each adversary move advances network time by one tick: link failure
    processes step, due arrivals are delivered (earliest first), and newly
    announced packets are injected into the relay.

    Parameters
    ----------
    network:
        The failing multi-hop topology.
    relay:
        The semi-reliable strategy (flooding or path maintenance) built on
        the same network.
    """

    def __init__(self, network: Network, relay: RelayStrategy) -> None:
        super().__init__()
        if relay.network is not network:
            raise ValueError("relay must be built on the given network")
        self.network = network
        self.relay = relay
        self._now = 0
        self._heap: List[Tuple[int, int, PacketInfo]] = []
        self._tiebreak = 0
        self._pending_injections: List[PacketInfo] = []
        self.delivered_copies = 0
        self.lost_packets = 0

    @property
    def now(self) -> int:
        """Current network time (one tick per adversary move)."""
        return self._now

    def on_new_pkt(self, info: PacketInfo) -> None:
        self._pending_injections.append(info)

    def _decide(self) -> Move:
        self._now += 1
        self.network.tick(self.rng)
        self._inject_pending()
        if self._heap and self._heap[0][0] <= self._now:
            __, __, info = heapq.heappop(self._heap)
            self.delivered_copies += 1
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def _inject_pending(self) -> None:
        for info in self._pending_injections:
            direction = "fwd" if info.channel == ChannelId.T_TO_R else "rev"
            arrivals = self.relay.inject(
                token=info, now=self._now, direction=direction, rng=self.rng
            )
            if not arrivals:
                self.lost_packets += 1
            for arrival in arrivals:
                self._tiebreak += 1
                heapq.heappush(
                    self._heap, (arrival.arrive_at, self._tiebreak, info)
                )
        self._pending_injections.clear()

    def describe(self) -> str:
        return (
            f"network-relay({type(self.relay).__name__}, "
            f"edges={self.network.edge_count})"
        )
