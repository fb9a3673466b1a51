"""Fabric recovery: endpoints forward detoured frames, and streams finish
within a constant of the connectivity bound.

Every node of the fabric, the source and the destination included, has a
transit queue (PROTOCOL.md §16).  A detour can hand a data frame back to
the source or an acknowledgement to the destination; the endpoint then
forwards it toward its target like any relay, so the stream recovers by
rerouting instead of by the end-to-end RTO.
"""

from __future__ import annotations

import pytest

from repro.analysis.reliability import reliability, stationary_up_probability
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
from repro.resilience.faultplan import LinkDownWindow, RelayCrashAt, RouteFlapAt
from repro.transport.fabric import FabricRun, FabricSpec

ENGINES = ("object", "kernel")

# -- endpoints forward transit frames ------------------------------------------

#: Ring-6 runs whose single outage detours a frame through an endpoint.
#: (0, 1) is the source's first hop, (2, 3) the last hop of the upper arc.
TRANSIT = {
    # Data frames already past node 1 turn back through the source to
    # reach the destination over the lower arc.
    "data_through_source": LinkDownWindow(link=(2, 3), start=4, end=10),
    # Cumulative acks of the upper arc, cut at the source, turn back
    # through the destination to reach the source over the lower arc.
    "acks_through_destination": LinkDownWindow(link=(0, 1), start=15, end=17),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", tuple(TRANSIT))
def test_endpoint_forwards_detoured_frames(case, engine):
    spec = FabricSpec(
        topology="ring", size=6, messages=4, fail_rate=0, engine=engine
    )
    run = FabricRun(spec, (TRANSIT[case],), 0)
    outcome = run.run()
    assert outcome.result.completed
    assert run.verdict() == "CLEAN"
    assert run.retransmits == 0
    assert run.ticks < spec.rto


# -- object hops settle their tallies when the run ends ------------------------

HOP_EVENTS = (SendMsg, ReceiveMsg, Ok, CrashT, CrashR, PktSent, PktDelivered, Retry)


def _hop_counts(spec: FabricSpec, events, seed: int) -> dict:
    """Every hop's trace counters right after ``run()``, read without the
    ``link.trace`` property (which flushes an object hop's tallies)."""
    run = FabricRun(spec, events, seed)
    run.run()
    return {
        key: (
            link._trace.total_events,
            tuple(link._trace.count(cls) for cls in HOP_EVENTS),
        )
        for key, link in run.links.items()
    }


@pytest.mark.parametrize("topology,size,events,fail_rate", (
    ("line", 4, (RelayCrashAt(step=10, node=1),), 0.05),
    ("ring", 6, (LinkDownWindow(start=5, end=25, link=(0, 1)),), 0.0),
    ("mesh", 3, (RouteFlapAt(step=8),), 0.05),
))
def test_hop_trace_counts_settled_after_run(topology, size, events, fail_rate):
    counts = {
        engine: _hop_counts(
            FabricSpec(topology=topology, size=size, messages=12,
                       fail_rate=fail_rate, engine=engine),
            events,
            7,
        )
        for engine in ENGINES
    }
    assert counts["object"] == counts["kernel"]
    for total, per_class in counts["object"].values():
        assert total == sum(per_class)


# -- within a constant of the connectivity bound -------------------------------

BOUND_SEEDS = range(10)


def _mean_ticks(topology: str, size: int, fail_rate: float) -> float:
    spec = FabricSpec(topology=topology, size=size, messages=40,
                      fail_rate=fail_rate, engine="kernel")
    ticks = []
    for seed in BOUND_SEEDS:
        run = FabricRun(spec, (), seed)
        assert run.run().result.completed
        assert run.verdict() == "CLEAN"
        if fail_rate == 0:
            assert run.retransmits == 0
        ticks.append(run.ticks)
    return sum(ticks) / len(ticks)


@pytest.mark.parametrize("topology,size", (("ring", 6), ("mesh", 3)))
def test_fail_rate_005_within_twice_fault_free_over_reliability(topology, size):
    spec = FabricSpec(topology=topology, size=size, fail_rate=0.05)
    p = stationary_up_probability(spec.fail_rate, spec.repair_rate)
    bound = 2 * _mean_ticks(topology, size, 0.0) / reliability(
        spec.build_network(), p
    )
    assert _mean_ticks(topology, size, 0.05) <= bound


@pytest.mark.parametrize("topology,size", (("line", 4), ("ring", 6), ("mesh", 3)))
def test_no_retransmits_without_faults(topology, size):
    _mean_ticks(topology, size, 0.0)
