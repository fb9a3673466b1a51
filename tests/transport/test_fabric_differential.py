"""Differential pinning: the kernel hop engine vs the object engine.

The fabric's ``engine="kernel"`` executor reimplements the per-hop
protocol step loop over flat local state (with idle fast-forward); these
tests pin it bit-for-bit against the object engine.  Every observable —
the full event trace, the verdict string, the fabric diagnostics, the
aggregated metrics wire and the liveness verdict — must be identical for
the same spec at the same seed, across every topology shape and under
scripted topology faults.  Any divergence is a kernel bug by definition.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.events import (
    CrashR,
    CrashT,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)
from repro.kernel.engine import _extract_receiver, _extract_transmitter
from repro.resilience.faultplan import (
    LinkDownWindow,
    RelayCrashAt,
    RouteFlapAt,
)
from repro.transport.fabric import (
    FabricRun,
    FabricSpec,
    _LinkAdversary,
    _LinkSimulator,
)
from repro.transport.network import LinkState

SEEDS = (0, 1, 7, 42, 1234)

TOPOLOGIES = (
    ("line", 4),
    ("ring", 6),
    ("mesh", 3),
)

# Per-topology fault targets: an edge adjacent to the source and an
# interior relay node (mesh nodes are (row, col) grid coordinates).
_EDGE = {"line": (0, 1), "ring": (0, 1), "mesh": ((0, 0), (0, 1))}
_RELAY = {"line": 1, "ring": 1, "mesh": (0, 1)}


def _fingerprint(spec: FabricSpec, events, seed: int):
    """Every observable of one fabric run, wall-clock terms excluded."""
    run = FabricRun(spec, events, seed)
    out = run.run()
    metrics_wire = run._aggregate_metrics(1.0).to_wire()
    return {
        "trace": tuple(out.result.trace.events),
        "verdict": run.verdict(),
        "diagnostics": {
            "ticks": run.ticks,
            "completed": out.result.completed,
            "reroutes": run.reroutes,
            "queue_drops": run.queue_drops,
            "dup_drops": run.dup_drops,
            "retransmits": run.retransmits,
            "dropped_overflow": run.dropped_overflow,
            "dropped_down": run.dropped_down,
        },
        # Positions 16-17 carry wall seconds / checker overhead -- the
        # only host-dependent fields in the wire tuple.
        "metrics": metrics_wire[:16] + metrics_wire[18:],
        "liveness": out.liveness_passed,
    }


def _assert_engines_match(topology: str, size: int, events=(), **overrides):
    overrides.setdefault("messages", 12)
    for seed in SEEDS:
        prints = {}
        for engine in ("object", "kernel"):
            spec = FabricSpec(
                topology=topology,
                size=size,
                retain="full",
                engine=engine,
                **overrides,
            )
            prints[engine] = _fingerprint(spec, events, seed)
        assert prints["kernel"] == prints["object"], (
            f"kernel/object divergence: topology={topology} seed={seed}"
        )


class TestCleanTopologies:
    @pytest.mark.parametrize("topology,size", TOPOLOGIES)
    def test_engines_identical(self, topology, size):
        _assert_engines_match(topology, size)

    @pytest.mark.parametrize("steps_per_tick", (2, 4, 8, 12))
    def test_engines_identical_across_burst_sizes(self, steps_per_tick):
        _assert_engines_match("line", 4, steps_per_tick=steps_per_tick)

    def test_engines_identical_lossy_links(self):
        _assert_engines_match("ring", 6, fail_rate=0.05)


class TestFaultedTopologies:
    @pytest.mark.parametrize("topology,size", TOPOLOGIES)
    def test_link_down_window(self, topology, size):
        events = (LinkDownWindow(start=5, end=25, link=_EDGE[topology]),)
        _assert_engines_match(topology, size, events)

    @pytest.mark.parametrize("topology,size", TOPOLOGIES)
    def test_relay_crash(self, topology, size):
        events = (RelayCrashAt(step=10, node=_RELAY[topology]),)
        _assert_engines_match(topology, size, events)

    @pytest.mark.parametrize("topology,size", TOPOLOGIES)
    def test_route_flap(self, topology, size):
        events = (RouteFlapAt(step=8),)
        _assert_engines_match(topology, size, events)

    def test_compound_fault_script(self):
        events = (
            LinkDownWindow(start=4, end=18, link=((0, 0), (0, 1))),
            RouteFlapAt(step=6),
            RelayCrashAt(step=22, node=(1, 1)),
        )
        _assert_engines_match("mesh", 3, events)


class TestStripedDifferential:
    def test_two_path_ring_engines_identical(self):
        _assert_engines_match("ring", 6, paths=2)

    def test_two_path_ring_under_link_faults(self):
        events = (LinkDownWindow(start=5, end=30, link=(0, 1)),)
        _assert_engines_match("ring", 6, events, paths=2)


# -- per-hop observability and state -------------------------------------------

ENGINES = ("object", "kernel")

#: Every event class a hop's trace records.
HOP_EVENTS = (SendMsg, ReceiveMsg, Ok, CrashT, CrashR, PktSent, PktDelivered, Retry)

#: The fault scripts of the cases above, per topology.
_SCRIPTS = {
    "clean": lambda topology: (),
    "link_down": lambda topology: (
        LinkDownWindow(start=5, end=25, link=_EDGE[topology]),
    ),
    "relay_crash": lambda topology: (
        RelayCrashAt(step=10, node=_RELAY[topology]),
    ),
    "route_flap": lambda topology: (RouteFlapAt(step=8),),
}


def _observed_hops(spec: FabricSpec, events, seed: int):
    """Run with one observer subscribed to every hop's trace after
    ``FabricRun(...)`` and before ``run()``; return the run and, per hop,
    the ``(index, event)`` pairs its observer saw."""
    run = FabricRun(spec, events, seed)
    seen = {}
    for key, link in run.links.items():
        pairs = seen[key] = []
        link.trace.subscribe(
            lambda index, event, pairs=pairs: pairs.append((index, event))
        )
    run.run()
    return run, seen


def _assert_observers_see_every_hop_event(topology, size, events, **overrides):
    overrides.setdefault("messages", 12)
    for seed in SEEDS:
        observed = {}
        for engine in ENGINES:
            spec = FabricSpec(
                topology=topology, size=size, engine=engine, **overrides
            )
            run, seen = _observed_hops(spec, events, seed)
            for key, link in run.links.items():
                trace = link.trace
                pairs = seen[key]
                where = f"{engine} hop {key} seed {seed}"
                assert [index for index, _ in pairs] == list(
                    range(trace.total_events)
                ), where
                counts = Counter(type(event) for _, event in pairs)
                assert {cls: counts[cls] for cls in HOP_EVENTS} == {
                    cls: trace.count(cls) for cls in HOP_EVENTS
                }, where
            observed[engine] = seen
        assert observed["kernel"] == observed["object"], (
            f"hop observers diverge: topology={topology} seed={seed}"
        )


class TestHopObservers:
    """An observer subscribed to a hop's trace before ``run()`` sees every
    event of that hop, and the same ``(index, event)`` pairs on both
    engines: the hop's recording flags and (on the kernel) its loop's
    observers are settled when the fabric run starts, not when the hop is
    built."""

    @pytest.mark.parametrize("script", tuple(_SCRIPTS))
    @pytest.mark.parametrize("topology,size", TOPOLOGIES)
    def test_observer_sees_every_hop_event(self, topology, size, script):
        _assert_observers_see_every_hop_event(
            topology, size, _SCRIPTS[script](topology)
        )

    def test_lossy_line_with_relay_crash(self):
        # Lossy links plus amnesia: every packet, delivery and RETRY event
        # (which the object engine tallied unseen when the recording flags
        # were read at construction) reaches the observer.
        events = (RelayCrashAt(step=30, node=1),)
        _assert_observers_see_every_hop_event(
            "line", 3, events, messages=20, fail_rate=0.05
        )
        run, seen = _observed_hops(
            FabricSpec(topology="line", size=3, messages=20, fail_rate=0.05,
                       engine="kernel"),
            events,
            7,
        )
        classes = Counter(type(e) for pairs in seen.values() for _, e in pairs)
        assert all(classes[cls] for cls in (PktSent, PktDelivered, Retry))
        assert sum(classes.values()) == sum(
            link.trace.total_events for link in run.links.values()
        )


def _hop_state(link):
    """Everything one hop's objects hold once the fabric run is over."""
    metrics = link._metrics
    channels = []
    for channel in (link.channels.t_to_r, link.channels.r_to_t):
        channels.append((
            tuple(
                (pid, channel.peek(pid), channel.packet_length_bits(pid))
                for pid in channel.all_packet_ids()
            ),
            channel.sent_count,
            channel.delivered_count,
            channel.bits_sent,
        ))
    return {
        "transmitter": _extract_transmitter(link._transmitter),
        "receiver": _extract_receiver(link._receiver),
        "bits_drawn": (
            link._transmitter._rng._bits_drawn,
            link._receiver._rng._bits_drawn,
        ),
        "channels": channels,
        "wire": (tuple(link.wire._queue), link.wire.dropped),
        "steps": link.steps_taken,
        "metrics": (
            metrics.messages_submitted,
            metrics.messages_ok,
            metrics.messages_delivered,
            metrics.retries,
            metrics.crashes_t,
            metrics.crashes_r,
            metrics._storage_peak,
        ),
        "counts": tuple(link.trace.count(cls) for cls in HOP_EVENTS),
    }


class TestHopStateDifferential:
    """Every hop's objects read the same on both engines after a run:
    stations, tapes, channel stores and counters, the wire and the trace
    counters -- not just the aggregates ``_fingerprint`` compares."""

    CASES = (
        ("line", 4, (RelayCrashAt(step=10, node=1),), {}),
        (
            "ring",
            6,
            (LinkDownWindow(start=5, end=25, link=(0, 1)), RouteFlapAt(step=8)),
            {},
        ),
        ("mesh", 3, (RelayCrashAt(step=10, node=(0, 1)),), {}),
        ("ring", 8, (), {"paths": 2}),
    )

    @pytest.mark.parametrize("seed", (0, 1, 7, 42))
    @pytest.mark.parametrize("topology,size,events,overrides", CASES)
    def test_every_hop_matches(self, topology, size, events, overrides, seed):
        _assert_every_hop_matches(
            topology, size, events, seed, messages=12, **overrides
        )


def _assert_every_hop_matches(topology, size, events, seed, **overrides):
    states = {}
    for engine in ENGINES:
        spec = FabricSpec(
            topology=topology, size=size, engine=engine, **overrides
        )
        run = FabricRun(spec, events, seed)
        run.run()
        states[engine] = {
            key: _hop_state(link) for key, link in run.links.items()
        }
    for key, state in states["object"].items():
        assert states["kernel"][key] == state, f"hop {key} diverges"


# -- bursts longer than the RETRY period ---------------------------------------


def _hop_script(seed: int):
    """A random schedule of everything the fabric does to one hop."""
    rng = random.Random(seed)
    script = []
    for _ in range(120):
        roll = rng.random()
        if roll < 0.25:
            script.append(("push", rng.randint(1, 4)))
        elif roll < 0.8:
            script.append(("tick", rng.choice((1, 2, 3, 5, 8, 16, 33, 64))))
        elif roll < 0.9:
            script.append(("up", rng.random() < 0.6))
        else:
            script.append((rng.choice(("crash_t", "crash_r", "wipe")), None))
    return script


def _drive_hop(engine: str, seed: int, script):
    """Apply ``script`` to a fresh hop; return its state after each step."""
    state = LinkState()
    link = _LinkSimulator(
        wire=_LinkAdversary(state),
        seed=seed,
        epsilon=2.0 ** -12,
        retry_every=4,
        engine=engine,
    )
    hop = link.start()
    frames = 0
    states = []
    for op, arg in script:
        if op == "push":
            for _ in range(arg):
                link.push_frame(b"D", frames)
                frames += 1
        elif op == "tick":
            hop.tick(arg)
        elif op == "up":
            state.up = arg
        elif op == "crash_t":
            link.crash_transmitter_station()
        elif op == "crash_r":
            link.crash_receiver_station()
        else:
            link.wipe_feed()
        link.finalize_engine()
        states.append((_hop_state(link), tuple(link.delivered)))
    return states


class TestHopBursts:
    """Bursts that outlast the RETRY period read the same on both engines.

    A hop that goes idle inside such a burst takes the burst's remaining
    RETRY polls at once on the kernel, on an up and on a down wire.  The
    scripted hop is ticked whether or not it has work (the fabric skips
    idle hops), with frames, link flaps, crashes and wipes in between.
    """

    LONG = (
        (
            "line",
            4,
            (RelayCrashAt(step=3, node=1),),
            {"steps_per_tick": 64, "window": 32, "messages": 40},
        ),
        (
            "ring",
            6,
            (LinkDownWindow(start=2, end=9, link=(0, 1)), RouteFlapAt(step=4)),
            {"steps_per_tick": 7, "messages": 20},
        ),
        (
            "mesh",
            3,
            (RelayCrashAt(step=5, node=(0, 1)),),
            {"steps_per_tick": 13, "fail_rate": 0.05, "messages": 20},
        ),
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scripted_hop(self, seed):
        script = _hop_script(seed)
        kernel = _drive_hop("kernel", seed, script)
        for i, state in enumerate(_drive_hop("object", seed, script)):
            assert kernel[i] == state, f"diverges at {script[i]} (op {i})"

    @pytest.mark.parametrize("seed", (0, 7, 42))
    @pytest.mark.parametrize("topology,size,events,overrides", LONG)
    def test_every_hop_matches(self, topology, size, events, overrides, seed):
        _assert_every_hop_matches(topology, size, events, seed, **overrides)

    @pytest.mark.parametrize("topology,size,events,overrides", LONG)
    def test_engines_identical(self, topology, size, events, overrides):
        _assert_engines_match(topology, size, events, **overrides)
