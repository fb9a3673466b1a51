"""Multi-hop relay fabric: every edge runs a full TM/RM data link.

Section 1 of the paper proposes running the protocol "in the source and
destination processors" over a network of semi-reliable relays; the
transport seeds (:mod:`repro.transport.network`, ``routing``) model the
relays as arrival schedules.  This module promotes that sketch into an
operational scenario family:

* every *directed* edge ``u→v`` of a line/ring/mesh topology runs a full
  per-link protocol instance (:class:`_LinkSimulator`) — TM at ``u``, RM
  at ``v`` — over a wire whose delivery is gated by the physical link's
  up/down state (:class:`_LinkAdversary`);
* interior nodes are store-and-forward relays with *bounded* queues:
  a message delivered by hop ``u→v``'s RM is re-submitted to the next
  hop's TM, data frames routed toward the destination and acknowledgement
  frames toward the source along the currently-up shortest path;
* the source end pipelines a window of messages with timeout-driven
  retransmission; the destination deduplicates and resequences, returning
  cumulative acknowledgements — the Bunn–Ostrovsky-style end-to-end layer
  that turns per-link reliability into source→destination reliability;
* an :class:`~repro.checkers.endtoend.EndToEndMonitor` rides the
  network-scope stream (``send_msg`` at submission, ``receive_msg`` at
  exactly-once delivery, ``OK`` as acknowledgements reach the source) and
  verdicts the Section 2.6 conditions *end to end* — per Dolev–Spielrein,
  per-hop verdicts cannot substitute.

Faults come from the topology events of
:mod:`repro.resilience.faultplan` — ``link_down``/``link_up`` windows
(partition/heal), ``relay_crash`` (amnesia: the relay queue is wiped and
every adjacent station takes its crash transition) and ``route_flap``.
Everything is seed-pinned: same spec, plan and seed replay the identical
execution, which is what lets ``repro shrink`` minimise fabric failures.

A deliberate asymmetry worth naming: per-link Axiom 2 (never submit the
same payload twice) is enforced by the *fabric*, which stamps every frame
with a per-link monotonically increasing uid that survives relay crashes
— the volatile relay could not keep that promise itself.  End-to-end
exactly-once is then re-established above the links by the destination's
dedup/resequencing layer; disable it (``exactly_once=False``) and the
end-to-end no-duplication condition observably fails under retransmission
races, which is the ablation the differential tests pin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple

from repro.adversary.base import PASS, Adversary, Move, PacketInfo, make_deliver
from repro.checkers.endtoend import EndToEndMonitor
from repro.checkers.trace import Trace
from repro.core.events import OK, ReceiveMsg, make_receive_msg, make_send_msg
from repro.core.exceptions import ConfigurationError
from repro.core.protocol import make_data_link
from repro.core.random_source import RandomSource, split_seed
from repro.resilience.faultplan import (
    FaultPlan,
    LinkDownWindow,
    LinkUpWindow,
    RelayCrashAt,
    RouteFlapAt,
    TopologyEvent,
)
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import RunOutcome
from repro.sim.simulator import SimulationResult, Simulator
from repro.transport.network import (
    LinkState,
    Network,
    UpKey,
    check_rates,
    disjoint_routes,
    line_network,
    mesh_network,
    ring_network,
)

__all__ = ["FabricSpec", "FabricRun", "DATA", "ACK"]

DATA = b"D"
ACK = b"A"

#: Each topology with the smallest size its network function accepts
#: (line hops, ring nodes, mesh side).
_MIN_SIZE = {"line": 1, "ring": 3, "mesh": 2}
_TOPOLOGIES = tuple(_MIN_SIZE)


def _encode_frame(kind: bytes, seq: int, uid: int) -> bytes:
    return b"%s:%d:%d" % (kind, seq, uid)


def _decode_frame(payload: bytes) -> Tuple[bytes, int]:
    kind, seq, _uid = payload.split(b":")
    return kind, int(seq)


class _LinkAdversary(Adversary):
    """A FIFO wire gated by the physical link's up/down state.

    While the link is up, packets are delivered in announcement order, one
    per simulation step.  A packet announced while the link is down is lost
    in transit; packets still in flight when the link goes down are dropped
    at the wire's next move.  Per-link RETRY polling (the receiver's
    internal action, forced by the harness cadence) is what re-solicits the
    lost traffic after a heal — no fabric-level bookkeeping needed below
    the end-to-end retransmission layer.
    """

    def __init__(self, state: LinkState) -> None:
        super().__init__()
        self._state = state
        self._queue: Deque[PacketInfo] = deque()
        self.dropped = 0

    def on_new_pkt(self, info: PacketInfo) -> None:
        if self._state.up:
            self._queue.append(info)
        else:
            self.dropped += 1

    def _decide(self) -> Move:
        if not self._state.up:
            if self._queue:
                self.dropped += len(self._queue)
                self._queue.clear()
            return PASS
        if self._queue:
            info = self._queue.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS

    @property
    def pending(self) -> int:
        return len(self._queue)


class _LinkSimulator(Simulator):
    """One directed hop's protocol instance, fed frames by the fabric.

    Replaces the pull-style workload with a push-style ``feed`` deque (the
    origin node's outgoing memory) and collects the far end's deliveries
    via a trace observer (so they surface even under ``retain="none"``).
    Frame uids are stamped here — per directed link, monotone, and *not*
    wiped by crashes, because they are the environment's Axiom 2
    bookkeeping, not station memory.
    """

    def __init__(
        self,
        wire: _LinkAdversary,
        seed: int,
        epsilon: float,
        retry_every: int,
        engine: str = "object",
    ) -> None:
        self.feed: Deque[bytes] = deque()
        self.delivered: Deque[bytes] = deque()
        self._uid = 0
        self.wire = wire
        super().__init__(
            link=make_data_link(epsilon=epsilon, seed=split_seed(seed, "stations")),
            adversary=wire,
            workload=(),
            seed=split_seed(seed, "wire"),
            retry_every=retry_every,
            max_steps=2 ** 62,
            enforce_fairness=False,
            retain="none",
            engine=engine,
        )
        self._trace.subscribe(self._collect, types=(ReceiveMsg,))
        # Kernel mode: a persistent flat-state executor owns this hop's
        # state between bursts; the object graph goes stale until
        # finalize_engine() syncs it back at the end of the fabric run.
        self._hop: Optional["HopKernel"] = None
        if engine == "kernel":
            from repro.kernel.hop import HopKernel

            self._hop = HopKernel(self)

    # -- fabric-facing API ----------------------------------------------------------

    def push_frame(self, kind: bytes, seq: int) -> None:
        """Queue one frame for submission on this hop (fresh uid)."""
        self._uid += 1
        self.feed.append(_encode_frame(kind, seq, self._uid))

    def tick(self, steps: int) -> None:
        """Advance this hop by ``steps`` simulation steps."""
        hop = self._hop
        if hop is not None:
            hop.tick(steps)
            return
        if self._next_message is None and self.feed:
            self._advance_workload()
        for _ in range(steps):
            self.step()

    @property
    def active(self) -> bool:
        """Does this hop have any work an idle step could progress?"""
        hop = self._hop
        if hop is not None:
            return hop.active
        return bool(
            self.feed
            or self._next_message is not None
            or self._tx_busy
            or self.wire.pending
        )

    def crash_transmitter_station(self) -> None:
        if self._hop is not None:
            self._hop.crash_transmitter()
        else:
            self._crash_transmitter(None)

    def crash_receiver_station(self) -> None:
        if self._hop is not None:
            self._hop.crash_receiver()
        else:
            self._crash_receiver(None)

    def wipe_feed(self) -> int:
        """Amnesia for the origin node's outgoing queue on this hop."""
        if self._hop is not None:
            return self._hop.wipe_feed()
        wiped = len(self.feed) + (1 if self._next_message is not None else 0)
        self.feed.clear()
        self._next_message = None
        return wiped

    def finalize_engine(self) -> None:
        """Sync kernel-resident state back to the objects (no-op otherwise)."""
        if self._hop is not None:
            self._hop.finalize()

    @property
    def wire_dropped(self) -> int:
        """Frames lost to link-down on this hop (live under either engine)."""
        if self._hop is not None:
            return self._hop.wire_dropped
        return self.wire.dropped

    # -- Simulator overrides ---------------------------------------------------------

    def _advance_workload(self) -> None:
        self._next_message = self.feed.popleft() if self.feed else None
        self._workload_exhausted = False

    def _collect(self, index: int, event: ReceiveMsg) -> None:
        self.delivered.append(event.message)


@dataclass
class FabricSpec:
    """Everything needed to launch one seeded relay-fabric execution.

    The fabric analogue of :class:`~repro.sim.runner.RunSpec`: the
    campaign supervisor detects the :meth:`run_supervised` hook and routes
    execution here instead of building a single-link simulator, so
    timeouts, retries, classification, forensics and shrinking all work
    unchanged on fabric runs.
    """

    topology: str = "line"
    size: int = 4
    messages: int = 50
    epsilon: float = 2.0 ** -12
    retry_every: int = 4
    steps_per_tick: int = 2
    max_ticks: int = 60_000
    queue_limit: int = 16
    window: int = 4
    rto: int = 64
    exactly_once: bool = True
    fail_rate: float = 0.0
    repair_rate: float = 0.2
    label: str = ""
    retain: str = "none"
    tail_size: int = 256
    engine: str = "object"
    paths: int = 1

    def __post_init__(self) -> None:
        if self.topology not in _TOPOLOGIES:
            raise ConfigurationError(
                f"topology must be one of {_TOPOLOGIES}, got {self.topology!r}"
            )
        for name in ("size", "steps_per_tick", "max_ticks", "queue_limit",
                     "window", "rto", "retry_every", "paths"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.size < _MIN_SIZE[self.topology]:
            raise ConfigurationError(
                f"a {self.topology} needs size >= {_MIN_SIZE[self.topology]}, "
                f"got {self.size}"
            )
        if self.messages < 0:
            raise ConfigurationError("messages must be >= 0")
        check_rates(fail_rate=self.fail_rate, repair_rate=self.repair_rate)
        if self.engine not in ("object", "kernel"):
            raise ConfigurationError(
                f"engine must be 'object' or 'kernel', got {self.engine!r}"
            )

    def build_network(self) -> Network:
        """The topology instance this spec runs over."""
        kwargs = {"fail_rate": self.fail_rate, "repair_rate": self.repair_rate}
        if self.topology == "line":
            return line_network(self.size, **kwargs)
        if self.topology == "ring":
            return ring_network(self.size, **kwargs)
        return mesh_network(self.size, **kwargs)

    def run_supervised(
        self,
        fault_plan: Optional[FaultPlan],
        index: int,
        seed: int,
    ) -> RunOutcome:
        """Execute one supervised fabric run (the campaign entry point)."""
        events: Tuple[TopologyEvent, ...] = ()
        if fault_plan is not None:
            events = fault_plan.for_run(index).events
        return FabricRun(self, events, seed).run()


class FabricRun:
    """One seeded execution of the relay fabric.

    Construction validates the fault plan against the topology and builds
    every directed hop eagerly (deterministic per-hop seeding); :meth:`run`
    drives the tick loop and returns a standard
    :class:`~repro.sim.runner.RunOutcome` whose safety/liveness verdicts
    come from the end-to-end monitor.  The instance stays inspectable
    afterwards — tests read :attr:`monitor`, :attr:`reroutes`,
    :attr:`queue_drops` and friends.
    """

    def __init__(
        self,
        spec: FabricSpec,
        events: Tuple[TopologyEvent, ...] = (),
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.network = spec.build_network()
        self._rng = RandomSource(split_seed(seed, "fabric-topology"))
        self.trace = Trace(retain=spec.retain, tail_size=spec.tail_size)
        self.monitor = EndToEndMonitor()
        self.trace.subscribe(self.monitor.observe, types=self.monitor.observed_types)

        # One protocol instance per *directed* edge: TM at u, RM at v.
        # ``_edge_state`` doubles each undirected LinkState under both
        # orientations so hot-path up checks are one dict hit instead of
        # Network.link's normalise-and-lookup.
        self.links: Dict[Tuple[object, object], _LinkSimulator] = {}
        self._edge_state: Dict[Tuple[object, object], LinkState] = {}
        for a, b in self.network.graph.edges():
            state = self.network.link(a, b)
            for u, v in ((a, b), (b, a)):
                self._edge_state[(u, v)] = state
                self.links[(u, v)] = _LinkSimulator(
                    wire=_LinkAdversary(state),
                    seed=split_seed(seed, "fabric-link", repr(u), repr(v)),
                    epsilon=spec.epsilon,
                    retry_every=spec.retry_every,
                    engine=spec.engine,
                )

        # Multi-path striping (Bunn–Ostrovsky): vertex-disjoint routes
        # computed once on the full graph; data frames stripe round-robin
        # by sequence number.  Vertex-disjointness means each relay is
        # interior to at most one stripe, so relays infer their stripe
        # from their own identity — no frame-format change.  paths=1 (or
        # a topology with a single route) leaves behaviour bit-identical
        # to the unstriped fabric.
        self._stripes: Optional[List[List]] = None
        self._stripe_next: Dict[object, object] = {}
        if spec.paths > 1:
            routes = disjoint_routes(
                self.network.graph,
                self.network.source,
                self.network.destination,
                spec.paths,
            )
            if len(routes) > 1:
                self._stripes = routes
                for route in routes:
                    for i in range(1, len(route) - 1):
                        self._stripe_next[route[i]] = route[i + 1]

        src, dst = self.network.source, self.network.destination
        self.queues: Dict[object, Deque[Tuple[bytes, int]]] = {
            node: deque()
            for node in self.network.graph.nodes()
            if node not in (src, dst)
        }
        # Delivery drain plan: (delivered deque, lands-at-destination,
        # lands-at-source, relay queue or None) per directed hop, so the
        # per-tick drain is one flat scan with no node comparisons.
        self._drain_plan: List[Tuple[Deque[bytes], bool, bool, Optional[Deque]]] = [
            (link.delivered, v == dst, v == src, self.queues.get(v))
            for (u, v), link in self.links.items()
        ]

        self._sort_events(events)

        # Source endpoint: windowed pipeline with timeout retransmission.
        self._next_seq = 0
        self._base = 0  # lowest unacknowledged sequence number
        self._sent_at: Dict[int, int] = {}
        self._rto_guard = 0  # lower bound on min(_sent_at.values())
        # Destination endpoint: dedup + resequencer + cumulative acks.
        self._next_expected = 0
        self._reorder: Dict[int, bool] = {}

        # Diagnostics the tests and bench read.
        self.reroutes = 0
        self.queue_drops = 0
        self.relay_crashes = 0
        self.retransmits = 0
        self.dup_drops = 0
        self.misrouted = 0
        self.ticks = 0
        self.completed = False

        self._route: Optional[List] = None
        # This tick's up-set, read on the first route lookup that needs it.
        self._up_key: Optional[UpKey] = None

    # -- fault-plan interpretation ----------------------------------------------------

    def _sort_events(self, events: Tuple[TopologyEvent, ...]) -> None:
        src, dst = self.network.source, self.network.destination
        self._down_windows: List[LinkDownWindow] = []
        self._up_windows: List[LinkUpWindow] = []
        self._crashes: Dict[int, List[object]] = {}
        self._flaps: Dict[int, int] = {}
        for event in events:
            if not isinstance(event, TopologyEvent):
                raise ConfigurationError(
                    f"fault event {type(event).kind!r} targets a single-link "
                    "station; a fabric run only interprets topology events"
                )
            if isinstance(event, (LinkDownWindow, LinkUpWindow)):
                a, b = event.link
                self.network.link(a, b)  # raises if not an edge
                windows = (
                    self._down_windows
                    if isinstance(event, LinkDownWindow)
                    else self._up_windows
                )
                windows.append(event)
            elif isinstance(event, RelayCrashAt):
                if event.node not in self.network.graph:
                    raise ConfigurationError(
                        f"relay_crash names unknown node {event.node!r}"
                    )
                if event.node in (src, dst):
                    raise ConfigurationError(
                        "relay_crash cannot target the source or destination "
                        "endpoint; script those with crash_t/crash_r on a "
                        "single link"
                    )
                self._crashes.setdefault(event.step, []).append(event.node)
            elif isinstance(event, RouteFlapAt):
                self._flaps[event.step] = self._flaps.get(event.step, 0) + 1

    def _apply_topology(self, tick: int) -> None:
        """Markov dynamics, then scripted windows (down overrides up)."""
        self.network.tick(self._rng)
        for window in self._up_windows:
            if window.start <= tick <= window.end:
                self.network.link(*window.link).up = True
        for window in self._down_windows:
            state = self.network.link(*window.link)
            if window.start <= tick <= window.end:
                state.up = False
            elif tick == window.end + 1:
                state.up = True  # deterministic heal closes the partition
        self._up_key = None
        route = self._route
        if route is not None and not self._route_up(route):
            self._route = None
            self.reroutes += 1
        for node in self._crashes.get(tick, ()):
            self._crash_relay(node)
        if self._flaps.get(tick):
            if self._route is not None:
                self.reroutes += 1
            self._route = None

    def _crash_relay(self, node: object) -> None:
        """Amnesia: wipe the relay queue and crash every adjacent station."""
        self.relay_crashes += 1
        self.queues[node].clear()
        for (u, v), link in self.links.items():
            if u == node:
                link.crash_transmitter_station()
                link.wipe_feed()
            elif v == node:
                link.crash_receiver_station()

    # -- routing ----------------------------------------------------------------------

    def _path(self, origin: object, target: object) -> Optional[List]:
        """This tick's shortest up path (memoised by :meth:`Network.route`)."""
        key = self._up_key
        if key is None:
            key = self._up_key = self.network.up_key()
        return self.network.route(origin, target, key)

    def _route_up(self, route: List) -> bool:
        edge_state = self._edge_state
        a = route[0]
        for b in route[1:]:
            if not edge_state[(a, b)].up:
                return False
            a = b
        return True

    def _ensure_route(self) -> Optional[List]:
        # A cached route is always up here: link state only changes in
        # _apply_topology, which runs first in the tick and drops any
        # route with a downed edge, so no per-frame re-verification.
        route = self._route
        if route is None:
            route = self._route = self._path(
                self.network.source, self.network.destination
            )
        return route

    def _next_hop(self, node: object, toward_destination: bool) -> Optional[object]:
        """The next node for a frame at ``node``, or None while partitioned."""
        route = self._ensure_route()
        if route is not None and node in route:
            # Route edges are up by construction (see _ensure_route).
            i = route.index(node)
            if toward_destination and i + 1 < len(route):
                return route[i + 1]
            elif not toward_destination and i > 0:
                return route[i - 1]
        # Off the main route (it changed underneath a queued frame): detour
        # along the shortest up path from here.
        target = (
            self.network.destination if toward_destination else self.network.source
        )
        if node == target:
            return None
        path = self._path(node, target)
        return None if path is None else path[1]

    # -- endpoints --------------------------------------------------------------------

    def _body(self, seq: int) -> bytes:
        return b"msg-%05d" % seq

    def _stripe_hop(self, seq: int) -> Optional[object]:
        """First hop for ``seq``'s stripe, falling back to dynamic routing."""
        stripes = self._stripes
        route = stripes[seq % len(stripes)]
        src = self.network.source
        first = route[1]
        if self._edge_state[(src, first)].up:
            return first
        return self._next_hop(src, toward_destination=True)

    def _source_phase(self, tick: int) -> None:
        spec = self.spec
        src = self.network.source
        if self._stripes is not None:
            while (
                self._next_seq < spec.messages
                and self._next_seq - self._base < spec.window
            ):
                seq = self._next_seq
                hop = self._stripe_hop(seq)
                if hop is None:
                    return  # partitioned at the source; retry next tick
                self.trace.append(make_send_msg(self._body(seq)))
                self.links[(src, hop)].push_frame(DATA, seq)
                self._sent_at[seq] = tick
                self._next_seq += 1
            if tick - self._rto_guard >= spec.rto:
                sent_at = self._sent_at
                for seq in range(self._base, self._next_seq):
                    if tick - sent_at[seq] >= spec.rto:
                        hop = self._stripe_hop(seq)
                        if hop is None:
                            continue
                        self.links[(src, hop)].push_frame(DATA, seq)
                        sent_at[seq] = tick
                        self.retransmits += 1
                self._rto_guard = min(sent_at.values()) if sent_at else tick
            return
        hop = self._next_hop(src, toward_destination=True)
        if hop is None:
            return  # partitioned at the source; retry next tick
        link = self.links[(src, hop)]
        while (
            self._next_seq < spec.messages
            and self._next_seq - self._base < spec.window
        ):
            seq = self._next_seq
            self.trace.append(make_send_msg(self._body(seq)))
            link.push_frame(DATA, seq)
            self._sent_at[seq] = tick
            self._next_seq += 1
        # The guard is a lower bound on min(sent_at): the scan only runs
        # when some frame could actually be due for retransmission.
        if tick - self._rto_guard >= spec.rto:
            sent_at = self._sent_at
            for seq in range(self._base, self._next_seq):
                if tick - sent_at[seq] >= spec.rto:
                    link.push_frame(DATA, seq)
                    sent_at[seq] = tick
                    self.retransmits += 1
            self._rto_guard = min(sent_at.values()) if sent_at else tick

    def _source_ack(self, ack: int) -> None:
        """Cumulative acknowledgement: every seq ≤ ack is resolved."""
        while self._base <= ack:
            self._sent_at.pop(self._base, None)
            self.trace.append(OK)
            self._base += 1

    def _destination_data(self, seq: int) -> None:
        if not self.spec.exactly_once:
            # Ablation: raw arrival stream straight to the monitor —
            # duplicates and reordering reach the destination application.
            self.trace.append(make_receive_msg(self._body(seq)))
            if seq == self._next_expected:
                self._next_expected += 1
            return
        if seq < self._next_expected or seq in self._reorder:
            self.dup_drops += 1
            return
        self._reorder[seq] = True
        while self._next_expected in self._reorder:
            del self._reorder[self._next_expected]
            self.trace.append(make_receive_msg(self._body(self._next_expected)))
            self._next_expected += 1

    def _destination_ack_phase(self) -> None:
        if self._next_expected == 0:
            return
        hop = self._next_hop(self.network.destination, toward_destination=False)
        if hop is None:
            return
        self.links[(self.network.destination, hop)].push_frame(
            ACK, self._next_expected - 1
        )

    # -- relays -----------------------------------------------------------------------

    def _drain_deliveries(self) -> bool:
        """Route every per-hop delivery to its node; True if data reached dst."""
        data_arrived = False
        queue_limit = self.spec.queue_limit
        for delivered, at_dst, at_src, queue in self._drain_plan:
            while delivered:
                kind, seq = _decode_frame(delivered.popleft())
                if at_dst and kind == DATA:
                    self._destination_data(seq)
                    data_arrived = True
                elif at_src and kind == ACK:
                    self._source_ack(seq)
                elif queue is not None:
                    if len(queue) >= queue_limit:
                        self.queue_drops += 1
                    else:
                        queue.append((kind, seq))
                else:
                    self.misrouted += 1
        return data_arrived

    def _forward_phase(self) -> None:
        stripe_next = self._stripe_next if self._stripes is not None else None
        for node, queue in self.queues.items():
            if not queue:
                continue
            kept: Deque[Tuple[bytes, int]] = deque()
            while queue:
                kind, seq = queue.popleft()
                hop = None
                if stripe_next is not None and kind == DATA:
                    nxt = stripe_next.get(node)
                    if nxt is not None and self._edge_state[(node, nxt)].up:
                        hop = nxt
                if hop is None:
                    hop = self._next_hop(node, toward_destination=kind == DATA)
                if hop is None:
                    kept.append((kind, seq))
                else:
                    self.links[(node, hop)].push_frame(kind, seq)
            queue.extend(kept)

    # -- drive ------------------------------------------------------------------------

    def run(self) -> RunOutcome:
        """Drive ticks until the stream is fully acknowledged or budget ends."""
        spec = self.spec
        started = perf_counter()
        ack_due = False
        # Bind each hop's executor once: the kernel object itself when the
        # spec asks for it, the link veneer otherwise.  Both expose the
        # same ``active``/``tick(burst)`` surface; skipping the veneer's
        # per-tick dispatch matters at eight calls per fabric tick.
        drivers = [
            link._hop if link._hop is not None else link
            for link in self.links.values()
        ]
        kernel_mode = spec.engine == "kernel"
        steps_per_tick = spec.steps_per_tick
        for tick in range(spec.max_ticks):
            if self._base >= spec.messages:
                self.completed = True
                break
            self.ticks = tick + 1
            self._apply_topology(tick)
            self._source_phase(tick)
            if kernel_mode:
                # Inlined HopKernel.active: plain attribute reads beat a
                # property call at eight hops per fabric tick.
                for driver in drivers:
                    if (
                        driver.wire_q
                        or driver.t_busy
                        or driver.feed
                        or driver.next_message is not None
                    ):
                        driver.tick(steps_per_tick)
            else:
                for driver in drivers:
                    if driver.active:
                        driver.tick(steps_per_tick)
            if self._drain_deliveries():
                ack_due = True
            if ack_due:
                self._destination_ack_phase()
                ack_due = False
            self._forward_phase()
        else:
            self.completed = self._base >= spec.messages
        # Kernel hops hold their state in flat slots; sync every hop's
        # object graph before anything (metrics aggregation, tests) reads
        # stations, channels or wire queues.  Counted inside the wall —
        # it is part of the kernel engine's cost.
        for link in self.links.values():
            link.finalize_engine()
        wall = perf_counter() - started
        return self._outcome(wall)

    def _outcome(self, wall_seconds: float) -> RunOutcome:
        metrics = self._aggregate_metrics(wall_seconds)
        result = SimulationResult(
            trace=self.trace,
            metrics=metrics,
            completed=self.completed,
            steps=self.ticks,
            link=None,
            adversary=None,
        )
        safety = self.monitor.safety_report()
        liveness = self.monitor.liveness_report(run_completed=self.completed)
        return RunOutcome(
            seed=self.seed,
            result=result,
            safety=safety,
            liveness_passed=liveness.passed,
        )

    def verdict(self) -> str:
        """The end-to-end CLEAN/VIOLATED summary for the finished run."""
        return self.monitor.verdict(run_completed=self.completed)

    @property
    def dropped_overflow(self) -> int:
        """Frames dropped because a relay's bounded FIFO was full."""
        return self.queue_drops

    @property
    def dropped_down(self) -> int:
        """Frames lost to link-down wires (announced while down or purged
        in flight), summed over every directed hop."""
        return sum(link.wire_dropped for link in self.links.values())

    def drop_report(self) -> str:
        """One-line drop accounting to accompany :meth:`verdict`."""
        return (
            f"dropped_overflow={self.dropped_overflow} "
            f"dropped_down={self.dropped_down}"
        )

    def _aggregate_metrics(self, wall_seconds: float) -> SimulationMetrics:
        packets_sent = packets_delivered = bits_sent = 0
        retries = crashes_t = crashes_r = 0
        t_ext = r_ext = t_err = r_err = 0
        storage_bits = 0
        for link in self.links.values():
            channels = link.channels
            packets_sent += channels.total_packets_sent
            packets_delivered += (
                channels.t_to_r.delivered_count + channels.r_to_t.delivered_count
            )
            bits_sent += channels.total_bits_sent
            retries += link._metrics.retries
            crashes_t += link._metrics.crashes_t
            crashes_r += link._metrics.crashes_r
            stats_t = link._link.transmitter.stats
            stats_r = link._link.receiver.stats
            t_ext += stats_t.extensions
            r_ext += stats_r.extensions
            t_err += stats_t.errors_counted
            r_err += stats_r.errors_counted
            storage_bits += link._link.total_storage_bits()
        return SimulationMetrics(
            steps=self.ticks,
            messages_submitted=self._next_seq,
            messages_ok=self._base,
            messages_delivered=self._next_expected,
            packets_sent=packets_sent,
            packets_delivered=packets_delivered,
            bits_sent=bits_sent,
            retries=retries,
            crashes_t=crashes_t,
            crashes_r=crashes_r,
            corruptions_t=0,
            corruptions_r=0,
            transmitter_extensions=t_ext,
            receiver_extensions=r_ext,
            transmitter_errors_counted=t_err,
            receiver_errors_counted=r_err,
            storage_peak_bits=storage_bits,
            storage_final_bits=storage_bits,
            storage_samples=[],
            wall_seconds=wall_seconds,
            checker_seconds=0.0,
            events_recorded=self.trace.total_events,
            dropped_overflow=self.dropped_overflow,
            dropped_down=self.dropped_down,
        )
