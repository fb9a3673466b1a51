"""Fabric replay pin: whole fabric runs against a recorded table, and the
entry points a traced benchmark run wraps.

``REPLAY`` was recorded before ``FabricRun.run`` became one flat tick
loop, so a restructured tick must replay every row exactly.  A row pins
more than ``test_route_memo.GOLDEN`` does: a digest of every end-to-end
event (``send_msg``, ``receive_msg``, ``OK``) with the tick it was
recorded at, the fabric's retransmit, duplicate and overflow counters,
and the steps every hop took.  The shapes are chosen for the paths the
benchmark streams never take:

* a striped ring-8 at ``fail_rate`` 0.2, where the source is often
  blocked on a new frame while older ones are due for retransmission;
* a ring-6 with two slots per relay queue and a window of eight, two
  relay crashes on consecutive ticks and a route flap: at seeds 2 and 3
  relay queues overflow (the rows' ``queue_drops``) and a crash wipes a
  queue holding two frames;
* the benchmark's own line-4 and striped ring-8 streams.

The seam test counts calls of the entry points ``e2ebench``'s traced
split wraps by name (``HopKernel.tick``, ``Network.tick``,
``EndToEndMonitor.observe``): a fabric that stopped calling one would
still run, but its layer would read zero.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.checkers.endtoend import EndToEndMonitor
from repro.core.events import Ok, ReceiveMsg, SendMsg
from repro.kernel.hop import HopKernel
from repro.resilience.faultplan import LinkDownWindow, RelayCrashAt, RouteFlapAt
from repro.transport.fabric import FabricRun, FabricSpec
from repro.transport.network import Network

#: Two relay crashes on consecutive ticks, then a route flap.
_AMNESIA = (
    RelayCrashAt(step=30, node=1),
    RelayCrashAt(step=31, node=4),
    RouteFlapAt(step=40),
)

#: name -> (spec arguments, topology events).
SHAPES = {
    "ring8x2-churn": (
        dict(topology="ring", size=8, paths=2, messages=60, fail_rate=0.2), ()
    ),
    "ring6-overflow": (
        dict(topology="ring", size=6, messages=60, fail_rate=0.1,
             queue_limit=2, window=8),
        _AMNESIA,
    ),
    "line4": (dict(topology="line", size=4, messages=200, fail_rate=0.05), ()),
    "ring8x2": (
        dict(topology="ring", size=8, paths=2, messages=200, fail_rate=0.05), ()
    ),
}

#: (ticks, reroutes, retransmits, dup_drops, queue_drops, summed hop
#: steps_taken, digest of every end-to-end event with its tick).
REPLAY = {
    ("ring8x2-churn", 53): (1373, 70, 48, 48, 0, 5694, "9b194195de6eafcb"),
    ("ring8x2-churn", 61): (2368, 92, 109, 109, 0, 8766, "ac543d3eba1cf46d"),
    ("ring8x2-churn", 90): (2473, 76, 115, 114, 0, 8396, "c3e645c5038f74f8"),
    ("ring6-overflow", 1): (364, 50, 14, 11, 0, 3074, "5700f65677090aac"),
    ("ring6-overflow", 2): (384, 66, 15, 9, 2, 3010, "f5408107e6452e9b"),
    ("ring6-overflow", 3): (494, 73, 26, 16, 8, 3146, "9d770d2f6d1ec612"),
    ("line4", 3): (1293, 97, 9, 9, 0, 7386, "880daf3d644979a0"),
    ("line4", 5): (1469, 120, 17, 17, 0, 7914, "e097e5135bb4d4b2"),
    ("ring8x2", 3): (1284, 123, 12, 12, 0, 9096, "b0f8524fc0dfe217"),
    ("ring8x2", 5): (1506, 150, 16, 16, 0, 9536, "6b91dd2043c055ec"),
}


def _replay(shape: str, seed: int) -> tuple:
    kwargs, events = SHAPES[shape]
    run = FabricRun(FabricSpec(**kwargs), events, seed)
    stamped = hashlib.sha256()

    def stamp(index, event):
        stamped.update(b"%d %d %r\n" % (run.ticks, index, event))

    run.trace.subscribe(stamp, types=(SendMsg, ReceiveMsg, Ok))
    run.run()
    steps = sum(link.steps_taken for link in run.links.values())
    return (run.ticks, run.reroutes, run.retransmits, run.dup_drops,
            run.queue_drops, steps, stamped.hexdigest()[:16])


@pytest.mark.parametrize("shape, seed", list(REPLAY))
def test_fabric_run_replays_recorded_row(shape, seed):
    assert _replay(shape, seed) == REPLAY[shape, seed]


# -- the traced entry points --------------------------------------------------------

SEAM_RUNS = {
    "line": (dict(topology="line", size=4, messages=40, fail_rate=0.05), ()),
    "striped ring": (
        dict(topology="ring", size=8, paths=2, messages=40, fail_rate=0.05), ()
    ),
    "scripted mesh": (
        dict(topology="mesh", size=3, messages=40, fail_rate=0.05,
             steps_per_tick=3),
        (
            LinkDownWindow(start=5, end=40, link=((0, 0), (0, 1))),
            RouteFlapAt(step=60),
            RelayCrashAt(step=90, node=(1, 1)),
        ),
    ),
}


@pytest.mark.parametrize("name", SEAM_RUNS)
def test_traced_entry_points_see_every_call(monkeypatch, name):
    calls = Counter()
    for owner, attr in ((HopKernel, "tick"), (Network, "tick"),
                        (EndToEndMonitor, "observe")):
        original = getattr(owner, attr)

        def counted(*args, _original=original, _key=owner.__name__, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    kwargs, events = SEAM_RUNS[name]
    spec = FabricSpec(**kwargs)
    run = FabricRun(spec, events, 5)
    assert run.run().result.completed
    steps = sum(link.steps_taken for link in run.links.values())
    assert calls["Network"] == run.ticks
    assert calls["HopKernel"] * spec.steps_per_tick == steps > 0
    assert calls["EndToEndMonitor"] == run.trace.total_events > 0
