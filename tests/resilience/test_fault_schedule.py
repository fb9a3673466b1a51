"""The one reading of a fault plan: :class:`FaultSchedule`.

Every harness that interprets a plan (the simulator's scripted adversary,
the live chaos proxy, the relay fabric) reads the same schedule, so these
tests pin where each event kind is filed, how a crash plan plays over
FIFO delivery, and how the simulator reads events that share a turn.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adversary.base import CrashReceiver, CrashTransmitter, Deliver, Pass
from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId, Corruption, CrashR, CrashT
from repro.core.random_source import RandomSource
from repro.resilience.faultplan import (
    AbortAt,
    CorruptAt,
    CrashAt,
    DropWindow,
    DuplicateBurst,
    FaultPlan,
    FaultSchedule,
    HangAt,
    LinkDownWindow,
    LinkUpWindow,
    RelayCrashAt,
    RouteFlapAt,
    ScriptedAdversary,
    StallWindow,
    apply_fault_plan,
)
from repro.sim.runner import run_once
from tests.resilience.conftest import make_paper_spec

_TABLES = (
    "crashes", "scrambles", "bursts", "hangs", "aborts", "drops", "stalls",
    "down_windows", "up_windows", "relay_crashes", "flaps",
)

_SCRAMBLE = CorruptAt(step=3, station="T", seed=4)
_BURST = DuplicateBurst(step=3, copies=2, spacing=2)
_HANG = HangAt(step=3, seconds=0.5)
_ABORT = AbortAt(step=3, hard=True)
_DROP = DropWindow(start=3, end=5, channel="T->R")
_STALL = StallWindow(start=3, end=5)
_DOWN = LinkDownWindow(start=3, end=5, link=(0, 1))
_UP = LinkUpWindow(start=3, end=5, link=(1, 2))


@pytest.mark.parametrize(
    "event, table, filed, span",
    [
        (CrashAt(step=3, station="R"), "crashes", {3: ["R"]}, (3, 3)),
        # A wipe is filed as the crash it is.
        (CorruptAt(step=3, station="T", mode="wipe"), "crashes", {3: ["T"]}, (3, 3)),
        (_SCRAMBLE, "scrambles", {3: [_SCRAMBLE]}, (3, 3)),
        (_BURST, "bursts", {3: [_BURST]}, (3, 3)),
        (_HANG, "hangs", {3: [_HANG]}, (3, 3)),
        (_ABORT, "aborts", {3: [_ABORT]}, (3, 3)),
        (_DROP, "drops", [_DROP], (3, 5)),
        (_STALL, "stalls", [_STALL], (3, 5)),
        # Topology events leave the station events' span empty.
        (_DOWN, "down_windows", [_DOWN], (1, 0)),
        (_UP, "up_windows", [_UP], (1, 0)),
        (RelayCrashAt(step=3, node=2), "relay_crashes", {3: [2]}, (1, 0)),
        (RouteFlapAt(step=3), "flaps", {3}, (1, 0)),
    ],
)
def test_each_event_kind_is_filed_in_one_table(event, table, filed, span):
    schedule = FaultSchedule([event])
    for name in _TABLES:
        value = getattr(schedule, name)
        assert value == filed if name == table else not value, name
    topology = table in ("down_windows", "up_windows", "relay_crashes", "flaps")
    assert schedule.topology_events == ([event] if topology else [])
    assert schedule.station_events == ([] if topology else [event])
    assert (schedule.first_turn, schedule.last_turn) == span
    # Only a drop window drops, and only on its channel inside the window.
    for turn in range(1, 8):
        for channel in ChannelId:
            expected = (
                event is _DROP and 3 <= turn <= 5 and channel is ChannelId.T_TO_R
            )
            assert schedule.dropped(turn, channel) is expected
        assert schedule.stalled(turn) is (event is _STALL and 3 <= turn <= 5)


def test_a_schedule_keeps_plan_order_within_a_turn_and_spans_every_station_event():
    schedule = FaultSchedule([
        CrashAt(step=9, station="T"),
        DropWindow(start=2, end=4),  # both directions
        RouteFlapAt(step=30),
        CorruptAt(step=9, station="R", mode="wipe"),
        CrashAt(step=9, station="R"),
    ])
    assert schedule.crashes == {9: ["T", "R", "R"]}
    assert schedule.dropped(2, ChannelId.R_TO_T)
    assert schedule.dropped(4, ChannelId.T_TO_R)
    assert (schedule.first_turn, schedule.last_turn) == (2, 9)
    assert [event.kind for event in schedule.station_events] == [
        "crash", "drop", "corrupt", "crash",
    ]
    assert [event.kind for event in schedule.topology_events] == ["route_flap"]


def test_wants_stabilization_reads_scrambles_only():
    assert FaultPlan.of(CorruptAt(step=2, station="R")).wants_stabilization
    assert not FaultPlan.of(
        CorruptAt(step=2, station="R", mode="wipe"), CrashAt(step=3, station="T")
    ).wants_stabilization
    assert not FaultPlan().wants_stabilization


def test_a_crash_plan_crashes_on_its_turns_and_delivers_fifo_otherwise():
    # Plan order across turns does not matter; every move no crash takes
    # delivers the announced packets in order, and passes once none wait.
    adversary = ScriptedAdversary(
        FaultPlan.of(CrashAt(step=4, station="R"), CrashAt(step=2, station="T"))
    )
    adversary.bind(RandomSource(0))
    for packet_id in (1, 2, 3):
        adversary.on_new_pkt(
            PacketInfo(channel=ChannelId.T_TO_R, packet_id=packet_id, length_bits=64)
        )
    moves = [adversary.next_move() for _ in range(6)]
    assert [type(move) for move in moves] == [
        Deliver, CrashTransmitter, Deliver, CrashReceiver, Deliver, Pass,
    ]
    assert [move.packet_id for move in moves if isinstance(move, Deliver)] == [
        1, 2, 3,
    ]


# -- events that share a turn -------------------------------------------------------


def _scripted(adversary) -> ScriptedAdversary:
    while not isinstance(adversary, ScriptedAdversary):
        adversary = adversary.inner  # the fairness wrapper
    return adversary


@pytest.mark.parametrize("engine", ["object", "kernel"])
@pytest.mark.parametrize(
    "events, crashes_t, crashes_r, corruptions, duplicated",
    [
        ((CrashAt(step=5, station="T"), CrashAt(step=5, station="R")), 1, 1, 0, 0),
        ((CrashAt(step=5, station="T"), CorruptAt(step=5, station="R", seed=3)),
         1, 0, 1, 0),
        ((CorruptAt(step=5, station="T", seed=1),
          CorruptAt(step=5, station="R", seed=2)), 0, 0, 2, 0),
        ((HangAt(step=5, seconds=0.0), CrashAt(step=5, station="T")), 1, 0, 0, 0),
        ((DuplicateBurst(step=5), CrashAt(step=5, station="T")), 1, 0, 0, 2),
    ],
    ids=["crash+crash", "crash+scramble", "scramble+scramble", "hang+crash",
         "burst+crash"],
)
def test_every_event_of_a_shared_turn_fires(
    engine, events, crashes_t, crashes_r, corruptions, duplicated
):
    # The first event fires on the turn; the rest fire on the next moves.
    plan = FaultPlan.of(*events)
    spec = replace(
        make_paper_spec(messages=6),
        engine=engine,
        stabilization=plan.wants_stabilization,
    )
    result = run_once(apply_fault_plan(spec, plan), 1).result
    trace = result.trace
    assert trace.count(CrashT) == crashes_t
    assert trace.count(CrashR) == crashes_r
    assert trace.count(Corruption) == corruptions
    assert _scripted(result.adversary).duplicated == duplicated
