"""End-to-end transport tests: the data link over relayed networks."""

from __future__ import annotations

import pytest

from repro.checkers.safety import check_all_safety
from repro.core.protocol import make_data_link
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload
from repro.transport.endtoend import NetworkRelay
from repro.transport.network import line_network, mesh_network, ring_network
from repro.transport.routing import FloodingRelay, PathRelay


def run(net, relay, messages=8, seed=0, max_steps=60_000):
    adversary = NetworkRelay(net, relay)
    link = make_data_link(epsilon=2.0 ** -16, seed=seed)
    sim = Simulator(
        link, adversary, SequentialWorkload(messages), seed=seed, max_steps=max_steps
    )
    return sim.run(), adversary


class TestConstruction:
    def test_relay_must_match_network(self):
        net_a, net_b = line_network(2), line_network(2)
        with pytest.raises(ValueError):
            NetworkRelay(net_a, FloodingRelay(net_b))


class TestFloodingTransport:
    def test_stable_mesh_completes(self):
        net = mesh_network(3)
        result, __ = run(net, FloodingRelay(net))
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_flooding_duplicates_absorbed_by_data_link(self):
        net = ring_network(6)  # two routes => duplicated deliveries
        result, adversary = run(net, FloodingRelay(net))
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed
        # More copies delivered than distinct packets injected.
        assert adversary.delivered_copies > result.metrics.packets_sent * 0.9

    def test_failing_mesh_still_safe(self):
        net = mesh_network(4, fail_rate=0.03, repair_rate=0.3)
        result, __ = run(net, FloodingRelay(net), seed=4)
        assert result.completed
        assert check_all_safety(result.trace).passed


class TestPathTransport:
    def test_stable_ring_completes(self):
        net = ring_network(8)
        result, __ = run(net, PathRelay(net))
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_failing_ring_repairs_and_completes(self):
        net = ring_network(8, fail_rate=0.04, repair_rate=0.4)
        relay = PathRelay(net)
        result, __ = run(net, relay, seed=7)
        assert result.completed
        assert relay.path_repairs > 1  # it actually exercised repair
        assert check_all_safety(result.trace).passed

    def test_path_relay_cheaper_than_flooding(self):
        net_flood = mesh_network(4)
        flood = FloodingRelay(net_flood)
        run(net_flood, flood, messages=6, seed=9)

        net_path = mesh_network(4)
        path = PathRelay(net_path)
        run(net_path, path, messages=6, seed=9)

        # Section 1's efficiency claim: path maintenance beats flooding's
        # Theta(|E|)-per-packet cost by a wide margin.
        assert path.transmissions * 3 < flood.transmissions


class TestPartitionRecovery:
    def test_temporary_partition_heals(self):
        # Cut the only link of a line mid-run; the fairness of the repair
        # process (repair_rate > 0) restores progress.
        net = line_network(1, fail_rate=0.1, repair_rate=0.5)
        result, __ = run(net, PathRelay(net), messages=5, seed=11)
        assert result.completed
        assert check_all_safety(result.trace).passed


class TestLossAccounting:
    def _drive(self, net, packets=5, turns=30):
        from repro.adversary.base import Deliver, Pass
        from repro.channel.channel import PacketInfo
        from repro.core.events import ChannelId
        from repro.core.random_source import RandomSource

        adversary = NetworkRelay(net, FloodingRelay(net))
        adversary.bind(RandomSource(5))
        for pid in range(packets):
            adversary.on_new_pkt(
                PacketInfo(channel=ChannelId.T_TO_R, packet_id=pid, length_bits=32)
            )
        delivered = sum(
            isinstance(adversary.next_move(), Deliver) for __ in range(turns)
        )
        return adversary, delivered

    def test_partitioned_line_counts_every_packet_lost(self):
        # The only link is down and never repairs: no route, total loss.
        net = line_network(1, repair_rate=0.0)
        net.configure_link(0, 1, up=False)
        adversary, delivered = self._drive(net)
        assert adversary.lost_packets == 5
        assert adversary.delivered_copies == 0
        assert delivered == 0

    def test_healthy_line_loses_nothing(self):
        # A single up route: every packet arrives exactly once.
        net = line_network(2)
        adversary, delivered = self._drive(net, packets=3)
        assert adversary.lost_packets == 0
        assert adversary.delivered_copies == 3
        assert delivered == 3

    def test_partial_partition_is_not_a_loss(self):
        # Cutting one of the ring's two disjoint routes must not count as
        # loss: flooding still reaches the destination the other way.
        net = ring_network(4, repair_rate=0.0)
        net.configure_link(0, 1, up=False)
        adversary, delivered = self._drive(net, packets=4)
        assert adversary.lost_packets == 0
        assert adversary.delivered_copies == delivered == 4


# -- the relay fabric (PR 9 tentpole) ----------------------------------------------


from repro.checkers.endtoend import EndToEndMonitor
from repro.core.events import make_receive_msg, make_send_msg, OK
from repro.core.exceptions import ConfigurationError
from repro.resilience.faultplan import (
    CrashAt,
    FaultPlan,
    LinkDownWindow,
    RelayCrashAt,
    RouteFlapAt,
)
from repro.transport.fabric import FabricRun, FabricSpec

# The acceptance scenario: one relay crash-amnesia plus one partition/heal
# window longer than the RTO, timed mid-stream so both faults bite (the
# partition forces end-to-end retransmissions that race their own delayed
# acknowledgements).
ACCEPTANCE_EVENTS = (
    RelayCrashAt(step=40, node=2),
    LinkDownWindow(start=48, end=130, link=(1, 2)),
)
ACCEPTANCE_SEED = 11


class TestEndToEndMonitor:
    def _feed(self, monitor, events):
        for index, event in enumerate(events):
            monitor.observe(index, event)

    def test_clean_pipelined_stream(self):
        monitor = EndToEndMonitor()
        sends = [make_send_msg(b"m%d" % i) for i in range(3)]
        self._feed(monitor, [
            sends[0], sends[1], sends[2],
            make_receive_msg(b"m0"), OK,
            make_receive_msg(b"m1"), OK,
            make_receive_msg(b"m2"), OK,
        ])
        assert monitor.safety_report().passed
        assert monitor.verdict(run_completed=True) == "CLEAN"

    def test_replay_after_cumulative_ack_flags(self):
        # Under pipelining the k-th OK resolves the k-th submission; a
        # delivery of an already-acknowledged message is a replay.
        monitor = EndToEndMonitor()
        self._feed(monitor, [
            make_send_msg(b"m0"),
            make_receive_msg(b"m0"), OK,
            make_receive_msg(b"m0"),  # ghost copy after the ack
        ])
        report = monitor.safety_report()
        assert report.no_replay.failure_count == 1
        assert report.no_duplication.failure_count == 1
        assert monitor.verdict() == "VIOLATED"

    def test_out_of_order_delivery_flags_order(self):
        monitor = EndToEndMonitor()
        self._feed(monitor, [
            make_send_msg(b"m0"), make_send_msg(b"m1"),
            make_receive_msg(b"m1"),
        ])
        assert monitor.safety_report().order.failure_count == 1

    def test_pipelined_window_is_not_a_false_positive(self):
        # The per-link no-replay monitor would mis-attribute this shape
        # (ack for m0 lands while m1..m3 are pending); the end-to-end
        # monitor must not.
        monitor = EndToEndMonitor()
        sends = [make_send_msg(b"m%d" % i) for i in range(4)]
        self._feed(monitor, [
            *sends,
            make_receive_msg(b"m0"), OK,
            make_receive_msg(b"m1"),
            make_receive_msg(b"m2"),
            make_receive_msg(b"m3"), OK, OK, OK,
        ])
        assert monitor.safety_report().passed


class TestRelayFabric:
    def test_clean_line_delivers_and_verdicts_clean(self):
        run = FabricRun(FabricSpec(topology="line", size=4, messages=10), (), seed=7)
        outcome = run.run()
        assert outcome.result.completed
        assert run.verdict() == "CLEAN"
        assert outcome.metrics.messages_ok == 10
        assert outcome.metrics.messages_delivered == 10

    def test_acceptance_crash_and_partition_stay_clean(self):
        # The PR-9 acceptance criterion: a pinned-seed 4-hop line delivers
        # 50 messages across one relay crash-amnesia and one healed
        # partition with every Section 2.6 condition holding end to end.
        spec = FabricSpec(topology="line", size=4, messages=50)
        run = FabricRun(spec, ACCEPTANCE_EVENTS, seed=ACCEPTANCE_SEED)
        outcome = run.run()
        assert outcome.result.completed
        assert run.verdict() == "CLEAN"
        assert outcome.safety.passed and outcome.liveness_passed
        assert run.relay_crashes == 1
        assert outcome.metrics.crashes_t > 0  # amnesia hit adjacent stations
        assert outcome.metrics.crashes_r > 0
        assert outcome.metrics.messages_ok == 50

    def test_healed_partition_differential(self):
        # Differential: the same pinned seed with and without the
        # partition/heal window must both converge to CLEAN — the window
        # only costs time (and dedup work), never correctness.
        spec = FabricSpec(topology="line", size=4, messages=50)
        quiet = FabricRun(spec, (), seed=ACCEPTANCE_SEED)
        faulted = FabricRun(spec, ACCEPTANCE_EVENTS, seed=ACCEPTANCE_SEED)
        quiet_outcome, faulted_outcome = quiet.run(), faulted.run()
        assert quiet.verdict() == faulted.verdict() == "CLEAN"
        assert quiet_outcome.result.completed and faulted_outcome.result.completed
        assert faulted.ticks > quiet.ticks  # the faults did bite
        assert faulted.dup_drops > 0  # retransmissions raced their acks

    def test_exactly_once_ablation_violates_no_duplication(self):
        # Same seed, same faults: only the destination's dedup layer
        # differs.  Without it the retransmission races reach the
        # application and the end-to-end no-duplication condition fails.
        clean_spec = FabricSpec(topology="line", size=4, messages=50)
        ablated_spec = FabricSpec(
            topology="line", size=4, messages=50, exactly_once=False
        )
        clean = FabricRun(clean_spec, ACCEPTANCE_EVENTS, seed=ACCEPTANCE_SEED)
        ablated = FabricRun(ablated_spec, ACCEPTANCE_EVENTS, seed=ACCEPTANCE_SEED)
        clean_outcome, ablated_outcome = clean.run(), ablated.run()
        assert clean.verdict() == "CLEAN"
        assert ablated.verdict() == "VIOLATED"
        assert clean_outcome.safety.no_duplication.failure_count == 0
        assert ablated_outcome.safety.no_duplication.failure_count > 0

    def test_ring_reroutes_around_partition(self):
        spec = FabricSpec(topology="ring", size=6, messages=30)
        events = (LinkDownWindow(start=20, end=200, link=(1, 2)),)
        run = FabricRun(spec, events, seed=3)
        outcome = run.run()
        assert outcome.result.completed
        assert run.verdict() == "CLEAN"
        assert run.reroutes >= 1

    def test_mesh_tuple_nodes_route_and_deliver(self):
        spec = FabricSpec(topology="mesh", size=3, messages=12)
        events = (LinkDownWindow(start=10, end=80, link=((0, 0), (0, 1))),)
        run = FabricRun(spec, events, seed=3)
        assert run.run().result.completed
        assert run.verdict() == "CLEAN"

    def test_route_flap_forces_recompute(self):
        spec = FabricSpec(topology="line", size=4, messages=10)
        run = FabricRun(spec, (RouteFlapAt(step=5),), seed=7)
        assert run.run().result.completed
        assert run.reroutes >= 1

    def test_fabric_rejects_bad_plans(self):
        spec = FabricSpec(topology="line", size=4)
        bad_plans = [
            (RelayCrashAt(step=1, node=0),),     # source is not a relay
            (RelayCrashAt(step=1, node=9),),     # unknown node
            (LinkDownWindow(start=1, end=2, link=(0, 2)),),  # not an edge
            (CrashAt(step=1, station="T"),),     # single-link event
        ]
        for events in bad_plans:
            with pytest.raises(ConfigurationError):
                FabricRun(spec, events, seed=0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FabricSpec(topology="torus")
        with pytest.raises(ConfigurationError):
            FabricSpec(window=0)
        for rates in ({"fail_rate": 1.5}, {"fail_rate": -0.1},
                      {"repair_rate": 2.0}):
            with pytest.raises(ConfigurationError):
                FabricSpec(**rates)
        # Sizes ring_network and mesh_network refuse are refused up front,
        # not silently run at the smallest size they take.
        for topology, size in (("ring", 2), ("mesh", 1)):
            with pytest.raises(ConfigurationError, match=topology):
                FabricSpec(topology=topology, size=size)
        assert FabricSpec(topology="ring", size=3).build_network().edge_count == 3
        assert FabricSpec(topology="mesh", size=2).build_network().edge_count == 4

    def test_run_supervised_interprets_plan_projection(self):
        spec = FabricSpec(topology="line", size=4, messages=10)
        plan = FaultPlan.of(
            RelayCrashAt(step=15, node=2, run=0),
            RelayCrashAt(step=15, node=3, run=1),
        )
        outcome = spec.run_supervised(plan, 0, seed=7)
        assert outcome.result.completed
        assert outcome.safety.passed


class TestFabricCampaignAndShrink:
    def test_campaign_classifies_fabric_runs(self):
        from repro.resilience.supervisor import CampaignConfig, run_campaign

        plan = FaultPlan.of(*ACCEPTANCE_EVENTS)
        spec = FabricSpec(topology="line", size=4, messages=50, label="fabric")
        result = run_campaign(
            spec, 2, base_seed=ACCEPTANCE_SEED,
            config=CampaignConfig(jobs=1, timeout=120.0), fault_plan=plan,
        )
        assert result.status_counts["ok"] == 2
        assert all(r.completed for r in result.reports)

    def test_shrink_minimizes_seeded_relay_failure(self):
        # The acceptance criterion for the shrinker: a seeded fabric
        # failure (the dedup ablation under the relay-crash plan) must
        # minimize to a smaller workload while still reproducing.
        from repro.resilience.shrink import shrink_repro

        plan = FaultPlan.of(*ACCEPTANCE_EVENTS)

        def build(messages):
            return FabricSpec(
                topology="line", size=4, messages=messages, exactly_once=False
            )

        result = shrink_repro(
            build, seed=ACCEPTANCE_SEED, plan=plan, messages=50,
            run_index=0, timeout=120.0, max_probes=40,
        )
        assert result.status.value == "safety_failed"
        assert result.messages < 50
        assert len(result.plan.events) <= 2
