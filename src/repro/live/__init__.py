"""Live deployment: the GHM protocol on real sockets under injected chaos.

The simulator (:mod:`repro.sim`) proves properties of the automata under a
scheduled adversary; this package redeploys the *same automata* as
concurrent asyncio datagram endpoints exchanging the canonical byte
encoding over loopback UDP, with an in-path chaos proxy playing the
adversary at wire level and a crash orchestrator delivering the paper's
amnesia crashes against a real clock.  Every externally visible action is
mirrored into the PR-2 streaming checkers, so live traces receive the same
Section 2.6 verdicts as simulated ones.

There is one wire and one endpoint shape: every socket is a batched
drain/flush socket, and every station holds K lanes (``lanes=1`` is a
group of one), so each datagram carries a lane byte and each message a
stripe header that lets the receiver deliver it exactly once.

Layout:

* :mod:`repro.live.backoff` — jittered exponential poll backoff (the live
  pacing of the RM's RETRY obligation);
* :mod:`repro.live.wire` — :class:`~repro.live.wire.BatchedDatagramIO`,
  zero-copy drain/flush datagram I/O over a non-blocking UDP socket
  (``recv_into`` into a receive ring, ``sendto`` per flushed datagram);
* :mod:`repro.live.proxy` — :class:`ChaosProxy`, compiling the campaign
  fault-plan schema plus a stochastic :class:`LinkProfile` into wire
  faults while honouring Section 2.3 adversary visibility (identifiers
  and lengths only);
* :mod:`repro.live.endpoints` — the station socket base: lane-byte
  dispatch, codec-error accounting and the audited timers it shares with
  the proxy;
* :mod:`repro.live.lanes` — the TM/RM endpoints: K independent protocol
  instances striped over one socket pair (shared resequencer), with
  per-lane crash-amnesia restarts;
* :mod:`repro.live.scenario` — scripted end-to-end runs with a hard
  wall-clock budget and a bounded give-up (UNRECONCILABLE, never a hang).
"""

from repro.live.backoff import AdaptiveBackoff, BackoffPolicy
from repro.live.lanes import (
    LaneMetrics,
    LanedReceiverEndpoint,
    LanedTransmitterEndpoint,
)
from repro.live.proxy import ChaosProxy, LinkProfile, ProxyStats
from repro.live.scenario import (
    LiveRunReport,
    LiveScenario,
    LiveStatus,
    run_live_scenario,
    run_live_scenario_async,
)

__all__ = [
    "AdaptiveBackoff",
    "BackoffPolicy",
    "ChaosProxy",
    "LaneMetrics",
    "LanedReceiverEndpoint",
    "LanedTransmitterEndpoint",
    "LinkProfile",
    "LiveRunReport",
    "LiveScenario",
    "LiveStatus",
    "ProxyStats",
    "run_live_scenario",
    "run_live_scenario_async",
]
