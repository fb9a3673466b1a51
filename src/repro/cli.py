"""Command-line interface: drive the protocol and experiments from a shell.

The subcommands cover the common workflows::

    python -m repro simulate --messages 25 --loss 0.3 --duplicate 0.3 \\
        --reorder 0.5 --crash-rate 0.002 --epsilon-bits 16 --seed 7

    python -m repro attack --protocol fixed:5 --harvest 80 --runs 10
    python -m repro attack --protocol paper --harvest 80 --runs 10

    python -m repro sweep-loss --losses 0,0.2,0.4,0.6 --runs 5

    python -m repro campaign --runs 50 --jobs 4 --timeout 30 --retries 1 \\
        --fault-plan plan.json --artifacts-dir artifacts/

    python -m repro shrink --fault-plan artifacts/.../faultplan.json \\
        --seed 1234 --messages 40 --out minimal.json

    python -m repro campaign --runs 200 --jobs 4 --corrupt-rate 0.01

    python -m repro live --messages 50 --drop 0.08 --duplicate 0.05 \\
        --reorder 0.05 --fault-plan crashes.json --budget 45

    python -m repro live --messages 30 --corrupt T@12,R@30

    python -m repro bench --out BENCH_core.json
    python -m repro bench --quick --check BENCH_core.json

``simulate`` runs one execution of ``D(A, ADV)`` and prints metrics plus
the Section 2.6 checker verdicts; ``attack`` stages the Section 3
crash-then-replay attack against either the fixed-nonce strawman
(``fixed:<bits>``) or the real protocol (``paper``); ``sweep-loss``
reproduces the E7 cost curve; ``campaign`` runs a supervised,
fault-tolerant Monte-Carlo campaign with scripted fault injection and
failure forensics; ``shrink`` minimizes an archived failing repro;
``live`` deploys the stations as real asyncio UDP endpoints behind the
chaos proxy (docs/PROTOCOL.md §11); ``bench`` runs the engine
performance suite and enforces the regression gate against a committed
baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.adversary.replay import ReplayAttacker
from repro.analysis.bounds import expected_handshake_packets
from repro.baselines.naive_handshake import make_naive_handshake_link
from repro.checkers.safety import check_all_safety
from repro.core.exceptions import ConfigurationError
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec, monte_carlo
from repro.sim.simulator import ENGINES, Simulator
from repro.sim.workload import SequentialWorkload
from repro.util.stats import wilson_interval
from repro.util.tables import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument grammar (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Goldreich-Herzberg-Mansour (PODC 1989) randomized data link: "
            "simulate, attack, and sweep."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one execution of D(A, ADV)")
    sim.add_argument("--messages", type=int, default=25)
    sim.add_argument("--epsilon-bits", type=int, default=16,
                     help="security parameter as epsilon = 2^-BITS")
    sim.add_argument("--loss", type=float, default=0.0)
    sim.add_argument("--duplicate", type=float, default=0.0)
    sim.add_argument("--reorder", type=float, default=0.0)
    sim.add_argument("--crash-rate", type=float, default=0.0,
                     help="per-turn crash probability for each station")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-steps", type=int, default=200_000)
    sim.add_argument("--engine", choices=ENGINES, default="kernel",
                     help="execution engine: the flat step kernel or the "
                          "object reference loop (identical executions)")

    atk = sub.add_parser("attack", help="stage the Section 3 replay attack")
    atk.add_argument("--protocol", default="paper",
                     help='"paper" or "fixed:<nonce-bits>"')
    atk.add_argument("--harvest", type=int, default=80)
    atk.add_argument("--rounds", type=int, default=6)
    atk.add_argument("--runs", type=int, default=10)
    atk.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep-loss", help="packets/message vs loss rate")
    sweep.add_argument("--losses", default="0,0.2,0.4,0.6",
                       help="comma-separated loss rates")
    sweep.add_argument("--runs", type=int, default=5)
    sweep.add_argument("--messages", type=int, default=20)
    sweep.add_argument("--epsilon-bits", type=int, default=16)

    relay = sub.add_parser(
        "sweep-relay",
        help="fail_rate x topology sweep over the relay fabric",
    )
    relay.add_argument("--topologies", default="line,ring,mesh",
                       help="comma-separated subset of line,ring,mesh")
    relay.add_argument("--fail-rates", default="0,0.01,0.05,0.1",
                       help="comma-separated per-step link failure rates")
    relay.add_argument("--runs", type=int, default=10,
                       help="campaign runs per (topology, fail_rate) cell")
    relay.add_argument("--messages", type=int, default=40)
    relay.add_argument("--jobs", type=int, default=2,
                       help="parallel worker processes per cell campaign")
    relay.add_argument("--engine", choices=ENGINES, default="kernel",
                       help="execution engine for every hop")
    relay.add_argument("--paths", type=int, default=1,
                       help="stripe frames over up to K disjoint routes")
    relay.add_argument("--base-seed", type=int, default=0)
    relay.add_argument("--markdown", action="store_true",
                       help="emit the grid as a GFM table (EXPERIMENTS.md)")

    scenario = sub.add_parser("scenario", help="run a named scenario")
    scenario.add_argument("name", nargs="?", default=None,
                          help="scenario name (omit to list all)")
    scenario.add_argument("--seed", type=int, default=0)

    camp = sub.add_parser(
        "campaign",
        help="supervised fault-tolerant Monte-Carlo campaign",
    )
    camp.add_argument("--runs", type=int, default=50)
    camp.add_argument("--jobs", "--workers", type=int, default=2, dest="jobs",
                      help="parallel worker processes")
    camp.add_argument("--chunk-size", type=int, default=None,
                      help="runs per dispatched shard (default: auto-size "
                           "to about four shards per worker)")
    camp.add_argument("--timeout", type=float, default=None,
                      help="per-run wall-clock budget in seconds")
    camp.add_argument("--retries", type=int, default=0,
                      help="extra attempts (fresh seeds) after timeout/crash")
    camp.add_argument("--artifacts-dir", default=None,
                      help="archive forensics for every non-ok run here")
    camp.add_argument("--fault-plan", default=None,
                      help="JSON fault plan to inject (see docs/PROTOCOL.md)")
    camp.add_argument("--protocol", default="paper",
                      help='"paper" or "fixed:<nonce-bits>"')
    camp.add_argument("--messages", type=int, default=20)
    camp.add_argument("--epsilon-bits", type=int, default=16,
                      help="epsilon = 2^-BITS (paper protocol only)")
    camp.add_argument("--loss", type=float, default=0.0)
    camp.add_argument("--duplicate", type=float, default=0.0)
    camp.add_argument("--reorder", type=float, default=0.0)
    camp.add_argument("--crash-rate", type=float, default=0.0)
    camp.add_argument("--corrupt-rate", type=float, default=0.0,
                      help="per-turn in-place state-corruption probability "
                           "for each station; enables stabilization "
                           "(convergence) verdicts")
    camp.add_argument("--corrupt-window", type=int, default=8,
                      help="clean progress events that end a corruption "
                           "probation window")
    camp.add_argument("--max-steps", type=int, default=200_000)
    camp.add_argument("--base-seed", type=int, default=0)
    camp.add_argument("--label", default="",
                      help="row label for the campaign tables")
    camp.add_argument("--retain", choices=["full", "tail", "none"],
                      default="tail",
                      help="trace retention per run: full event list, "
                           "forensic tail ring, or counters only")
    camp.add_argument("--tail-size", type=int, default=256,
                      help="ring-buffer size for --retain tail")
    camp.add_argument("--engine", choices=ENGINES, default="kernel",
                      help="execution engine for every run (identical "
                           "executions; kernel is several times faster)")
    _add_topology_options(camp)

    shr = sub.add_parser("shrink", help="minimize a failing repro (seed + plan)")
    shr.add_argument("--fault-plan", required=True,
                     help="JSON fault plan of the failing run")
    shr.add_argument("--seed", type=int, required=True,
                     help="the failing run's derived seed (meta.json: seed)")
    shr.add_argument("--messages", type=int, default=20,
                     help="the failing run's workload size")
    shr.add_argument("--run-index", type=int, default=0,
                     help="the failing run's campaign index")
    shr.add_argument("--protocol", default="paper")
    shr.add_argument("--epsilon-bits", type=int, default=16)
    shr.add_argument("--max-steps", type=int, default=200_000)
    shr.add_argument("--corrupt-rate", type=float, default=0.0,
                     help="match the failing campaign's --corrupt-rate so "
                          "probe runs replay its corruption schedule")
    shr.add_argument("--corrupt-window", type=int, default=8,
                     help="match the failing campaign's --corrupt-window")
    shr.add_argument("--timeout", type=float, default=5.0,
                     help="per-probe wall-clock bound in seconds")
    shr.add_argument("--max-probes", type=int, default=200)
    shr.add_argument("--out", default=None,
                     help="write the minimal fault plan JSON here")
    shr.add_argument("--engine", choices=ENGINES, default="kernel",
                     help="execution engine for probe runs (identical "
                          "executions)")
    _add_topology_options(shr)

    live = sub.add_parser(
        "live",
        help="run the protocol over real UDP through the chaos proxy",
    )
    live.add_argument("--messages", type=int, default=50)
    live.add_argument("--seed", type=int, default=0)
    live.add_argument("--epsilon-bits", type=int, default=16,
                      help="security parameter as epsilon = 2^-BITS")
    live.add_argument("--drop", type=float, default=0.0,
                      help="per-datagram stochastic drop rate")
    live.add_argument("--duplicate", type=float, default=0.0,
                      help="per-datagram stochastic duplication rate")
    live.add_argument("--reorder", type=float, default=0.0,
                      help="per-datagram stochastic reorder rate")
    live.add_argument("--delay", type=float, default=0.0,
                      help="fixed one-way latency in seconds")
    live.add_argument("--jitter", type=float, default=0.0,
                      help="extra uniform latency in seconds")
    live.add_argument("--fault-plan", default=None,
                      help="scripted JSON fault plan (campaign schema; "
                           "turns count proxy-observed datagrams)")
    live.add_argument("--budget", type=float, default=60.0,
                      help="hard wall-clock ceiling in seconds")
    live.add_argument("--give-up", type=float, default=5.0,
                      help="no-progress deadline before UNRECONCILABLE")
    live.add_argument("--poll-base", type=float, default=0.01,
                      help="base poll retransmission delay in seconds")
    live.add_argument("--poll-cap", type=float, default=0.25,
                      help="poll backoff delay cap in seconds")
    live.add_argument("--poll-jitter", type=float, default=0.5,
                      help="poll backoff jitter fraction in [0, 1)")
    live.add_argument("--lanes", type=int, default=1,
                      help="protocol instances striped over the socket pair")
    live.add_argument("--corrupt", default=None,
                      help='in-place corruption triggers as STATION@TURN '
                           'items, e.g. "T@12,R@30" (turns count '
                           'proxy-observed datagrams)')
    live.add_argument("--corrupt-window", type=int, default=8,
                      help="clean progress events that end a corruption "
                           "probation window")
    live.add_argument("--restart-delay", type=float, default=0.02,
                      help="how long a crashed station stays down")
    live.add_argument("--loop", choices=("asyncio", "uvloop", "auto"),
                      default="asyncio",
                      help="event loop backend; uvloop falls back to "
                           "asyncio when not installed (auto: use uvloop "
                           "if available)")
    live.add_argument("--label", default="", help="row label for the report")

    bench = sub.add_parser(
        "bench",
        help="run the engine perf suite; write/check BENCH_core.json",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads and run counts (CI smoke)")
    bench.add_argument("--out", default=None,
                       help="write the benchmark payload JSON here")
    bench.add_argument("--check", default=None,
                       help="baseline BENCH_core.json to gate against")
    bench.add_argument("--threshold", type=float, default=0.25,
                       help="allowed relative drop in the gated ratios")
    bench.add_argument("--base-seed", type=int, default=0)
    bench.add_argument("--only", choices=["all", "kernel", "relay"],
                       default="all",
                       help='"kernel" runs just the step-kernel speedup leg '
                            '(the CI kernel-differential job); "relay" runs '
                            "just the relay fabric legs (hop efficiency, "
                            "kernel engine, striping)")
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile; dump pstats next to --out "
                            "and print the top-25 cumulative table")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    link = make_data_link(epsilon=2.0 ** -args.epsilon_bits, seed=args.seed)
    adversary = RandomFaultAdversary(
        FaultProfile(
            loss=args.loss,
            duplicate=args.duplicate,
            reorder=args.reorder,
            crash_t=args.crash_rate,
            crash_r=args.crash_rate,
        )
    )
    simulator = Simulator(
        link,
        adversary,
        SequentialWorkload(args.messages),
        seed=args.seed,
        max_steps=args.max_steps,
        engine=args.engine,
    )
    result = simulator.run()
    report = check_all_safety(result.trace)

    print(render_table(
        ["metric", "value"],
        [
            ["completed", result.completed],
            ["messages OK", f"{result.metrics.messages_ok}/{result.metrics.messages_submitted}"],
            ["packets sent", result.metrics.packets_sent],
            ["packets/message", result.metrics.per_message_packets],
            ["bits/message", result.metrics.per_message_bits],
            ["crashes (T/R)", f"{result.metrics.crashes_t}/{result.metrics.crashes_r}"],
            ["nonce extensions", result.metrics.transmitter_extensions
             + result.metrics.receiver_extensions],
            ["peak storage bits", result.metrics.storage_peak_bits],
            ["steps", result.steps],
        ],
        title="simulation",
    ))
    print()
    print(render_table(
        ["condition", "verdict", "trials"],
        [[c.condition, "OK" if c.passed else "VIOLATED", c.trials]
         for c in report.all_reports],
        title="Section 2.6 conditions",
    ))
    return 0 if (result.completed and report.passed) else 1


def _parse_protocol(spec: str):
    if spec == "paper":
        return lambda seed: make_data_link(epsilon=2.0 ** -12, seed=seed)
    if spec.startswith("fixed:"):
        bits = int(spec.split(":", 1)[1])
        return lambda seed: make_naive_handshake_link(nonce_bits=bits, seed=seed)
    raise SystemExit(f'unknown protocol {spec!r}: use "paper" or "fixed:<bits>"')


def _cmd_attack(args: argparse.Namespace) -> int:
    factory = _parse_protocol(args.protocol)
    broken = 0
    for run in range(args.runs):
        seed = args.seed + run
        link = factory(seed)
        attacker = ReplayAttacker(
            harvest_messages=args.harvest, replay_rounds=args.rounds
        )
        simulator = Simulator(
            link,
            attacker,
            SequentialWorkload(args.harvest * 3),
            seed=seed,
            max_steps=60_000,
        )
        result = simulator.run()
        report = check_all_safety(result.trace)
        if not (report.no_replay.passed and report.no_duplication.passed):
            broken += 1
    estimate = wilson_interval(broken, args.runs)
    print(render_table(
        ["protocol", "broken", "runs", "rate", "95% interval"],
        [[args.protocol, broken, args.runs, estimate.point,
          f"[{estimate.low:.3g}, {estimate.high:.3g}]"]],
        title="Section 3 crash-then-replay attack",
    ))
    return 0


def _cmd_sweep_loss(args: argparse.Namespace) -> int:
    losses = [float(x) for x in args.losses.split(",") if x.strip()]
    rows = []
    for loss in losses:
        spec = RunSpec(
            link_factory=lambda seed: make_data_link(
                epsilon=2.0 ** -args.epsilon_bits, seed=seed
            ),
            adversary_factory=lambda loss=loss: RandomFaultAdversary(
                FaultProfile(loss=loss)
            ),
            workload_factory=lambda seed: SequentialWorkload(args.messages),
            max_steps=300_000,
            label=f"loss={loss:g}",
        )
        mc = monte_carlo(spec, runs=args.runs, base_seed=int(loss * 1000))
        rows.append([
            spec.label,
            loss,
            mc.mean_packets_per_message,
            expected_handshake_packets(loss),
            mc.completion_rate,
        ])
    print(render_table(
        ["label", "loss", "pkts/msg", "analytic 2/(1-p)", "completion"],
        rows,
        title="packets per message vs loss",
    ))
    return 0


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    """Relay-fabric options shared by ``campaign`` and ``shrink``."""
    parser.add_argument("--topology", choices=["line", "ring", "mesh"],
                        default=None,
                        help="run the multi-hop relay fabric over this "
                             "topology instead of a single link: every edge "
                             "runs a full TM/RM instance, interior nodes are "
                             "bounded store-and-forward relays, and verdicts "
                             "are end-to-end (Section 2.6 over the "
                             "source->destination stream)")
    parser.add_argument("--topology-size", type=int, default=4,
                        help="hops (line), nodes (ring) or grid side (mesh)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="bounded relay queue depth; overflow drops "
                             "frames (fabric only)")
    parser.add_argument("--e2e-window", type=int, default=4,
                        help="end-to-end pipeline window at the source "
                             "(fabric only)")
    parser.add_argument("--rto", type=int, default=64,
                        help="end-to-end retransmission timeout in fabric "
                             "ticks (fabric only)")
    parser.add_argument("--no-dedup", action="store_true",
                        help="ablation: disable the destination's "
                             "exactly-once dedup/resequencing layer; "
                             "retransmission races then reach the verdicts "
                             "(fabric only)")
    parser.add_argument("--paths", type=int, default=1,
                        help="stripe source frames over up to K "
                             "vertex-disjoint routes (Bunn-Ostrovsky "
                             "multi-path; fabric only, ring/mesh have "
                             "route diversity)")


def _fabric_spec(args: argparse.Namespace, messages: int):
    """Build the relay-fabric spec for ``campaign --topology`` / ``shrink``."""
    from repro.transport.fabric import FabricSpec

    return FabricSpec(
        topology=args.topology,
        size=args.topology_size,
        messages=messages,
        epsilon=2.0 ** -args.epsilon_bits,
        max_ticks=args.max_steps,
        queue_limit=args.queue_limit,
        window=args.e2e_window,
        rto=args.rto,
        exactly_once=not args.no_dedup,
        label=getattr(args, "label", "") or f"fabric-{args.topology}",
        retain=getattr(args, "retain", "none"),
        tail_size=getattr(args, "tail_size", 256),
        engine=args.engine,
        paths=getattr(args, "paths", 1),
    )


def _campaign_link_factory(protocol: str, epsilon_bits: int):
    """Link factory for campaign/shrink: honors --epsilon-bits for "paper"."""
    if protocol == "paper":
        return lambda seed: make_data_link(epsilon=2.0 ** -epsilon_bits, seed=seed)
    return _parse_protocol(protocol)


def _campaign_spec(args: argparse.Namespace, messages: int) -> RunSpec:
    link_factory = _campaign_link_factory(args.protocol, args.epsilon_bits)
    rates = (
        getattr(args, "loss", 0.0),
        getattr(args, "duplicate", 0.0),
        getattr(args, "reorder", 0.0),
        getattr(args, "crash_rate", 0.0),
    )
    if any(rates):
        loss, duplicate, reorder, crash = rates
        adversary_factory = lambda: RandomFaultAdversary(FaultProfile(
            loss=loss, duplicate=duplicate, reorder=reorder,
            crash_t=crash, crash_r=crash,
        ))
    else:
        from repro.adversary.benign import ReliableAdversary

        adversary_factory = ReliableAdversary
    corrupt_rate = getattr(args, "corrupt_rate", 0.0)
    if corrupt_rate:
        from repro.adversary.corruption import StateCorruptionAdversary

        inner_factory = adversary_factory
        adversary_factory = lambda: StateCorruptionAdversary(
            rate_t=corrupt_rate, rate_r=corrupt_rate, inner=inner_factory()
        )
    return RunSpec(
        link_factory=link_factory,
        adversary_factory=adversary_factory,
        workload_factory=lambda seed: SequentialWorkload(messages),
        max_steps=args.max_steps,
        label=getattr(args, "label", "") or args.protocol,
        retain=getattr(args, "retain", "full"),
        tail_size=getattr(args, "tail_size", 256),
        stabilization=bool(corrupt_rate),
        stabilization_window=getattr(args, "corrupt_window", 8),
        engine=args.engine,
    )


def _load_fault_plan(path: str):
    from repro.resilience.faultplan import FaultPlan

    try:
        return FaultPlan.load(path)
    except OSError as error:
        raise SystemExit(f"cannot read fault plan {path!r}: {error.strerror}")
    except ValueError as error:
        raise SystemExit(f"invalid fault plan {path!r}: {error}")


def _plan_wants_stabilization(plan) -> bool:
    """True when a loaded plan injects in-place (scramble) corruption."""
    from repro.resilience.faultplan import CorruptAt

    return plan is not None and any(
        isinstance(e, CorruptAt) and e.mode == "scramble" for e in plan.events
    )


def _parse_corrupt_triggers(spec: str, base_seed: int):
    """Compile ``"T@12,R@30"`` into seed-pinned :class:`CorruptAt` events."""
    from repro.core.random_source import split_seed
    from repro.resilience.faultplan import CorruptAt

    events = []
    for index, item in enumerate(x.strip() for x in spec.split(",")):
        if not item:
            continue
        station, _, turn_text = item.partition("@")
        try:
            turn = int(turn_text)
        except ValueError:
            raise SystemExit(
                f"bad --corrupt item {item!r}: use STATION@TURN, e.g. T@12"
            )
        try:
            events.append(
                CorruptAt(
                    step=turn,
                    station=station.strip().upper(),
                    seed=split_seed(base_seed, "live-corrupt", index),
                )
            )
        except ValueError as error:
            raise SystemExit(f"bad --corrupt item {item!r}: {error}")
    if not events:
        raise SystemExit("--corrupt given but no STATION@TURN items found")
    return events


def _cmd_sweep_relay(args: argparse.Namespace) -> int:
    from repro.resilience.relay_sweep import RelaySweepConfig, run_relay_sweep
    from repro.resilience.supervisor import CampaignConfig

    try:
        config = RelaySweepConfig(
            topologies=tuple(
                t.strip() for t in args.topologies.split(",") if t.strip()
            ),
            fail_rates=tuple(
                float(r) for r in args.fail_rates.split(",") if r.strip()
            ),
            runs=args.runs,
            messages=args.messages,
            engine=args.engine,
            paths=args.paths,
            base_seed=args.base_seed,
        )
        campaign = CampaignConfig(jobs=args.jobs)
    except (ConfigurationError, ValueError) as error:
        raise SystemExit(str(error))
    result = run_relay_sweep(config, campaign)
    print(result.to_markdown() if args.markdown else result.render())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.resilience.supervisor import CampaignConfig, run_campaign

    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    try:
        config = CampaignConfig(
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            artifacts_dir=args.artifacts_dir,
            chunk_size=args.chunk_size,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    if args.topology:
        try:
            spec = _fabric_spec(args, args.messages)
        except ConfigurationError as error:
            raise SystemExit(str(error))
    else:
        spec = _campaign_spec(args, args.messages)
        if _plan_wants_stabilization(plan) and not spec.stabilization:
            from dataclasses import replace

            spec = replace(
                spec, stabilization=True, stabilization_window=args.corrupt_window
            )
    result = run_campaign(
        spec, args.runs, base_seed=args.base_seed, config=config, fault_plan=plan
    )
    print(result.render())
    all_ok = all(r.status.value == "ok" for r in result.reports)
    return 0 if all_ok else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    from repro.resilience.shrink import shrink_repro

    plan = _load_fault_plan(args.fault_plan)
    needs_stabilization = _plan_wants_stabilization(plan)

    def spec_builder(messages: int):
        if args.topology:
            return _fabric_spec(args, messages)
        spec = _campaign_spec(args, messages)
        if needs_stabilization and not spec.stabilization:
            from dataclasses import replace

            spec = replace(
                spec,
                stabilization=True,
                stabilization_window=args.corrupt_window,
            )
        return spec

    try:
        result = shrink_repro(
            spec_builder,
            seed=args.seed,
            plan=plan,
            messages=args.messages,
            run_index=args.run_index,
            timeout=args.timeout,
            max_probes=args.max_probes,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(render_table(
        ["", "messages", "events", "status", "probes"],
        [
            ["original", result.original_messages, result.original_events,
             result.status.value, ""],
            ["minimal", result.messages, len(result.plan.events),
             result.status.value, result.probes],
        ],
        title="shrink",
    ))
    print()
    print(f"repro: seed={result.seed} messages={result.messages}")
    print(result.plan.to_json())
    if args.out:
        result.plan.save(args.out)
        print(f"minimal plan written to {args.out}")
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.live import BackoffPolicy, LinkProfile, LiveScenario, run_live_scenario
    from repro.resilience.faultplan import FaultPlan

    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    if args.corrupt:
        extra = _parse_corrupt_triggers(args.corrupt, args.seed)
        base = plan if plan is not None else FaultPlan()
        plan = FaultPlan(events=base.events + tuple(extra), label=base.label)
    try:
        scenario = LiveScenario(
            messages=args.messages,
            seed=args.seed,
            epsilon=2.0 ** -args.epsilon_bits,
            profile=LinkProfile(
                drop=args.drop,
                duplicate=args.duplicate,
                reorder=args.reorder,
                delay=args.delay,
                jitter=args.jitter,
            ),
            plan=plan if plan is not None else FaultPlan(),
            poll=BackoffPolicy(
                base=args.poll_base, cap=args.poll_cap, jitter=args.poll_jitter
            ),
            budget=args.budget,
            give_up_idle=args.give_up,
            restart_delay=args.restart_delay,
            lanes=args.lanes,
            stabilization_window=args.corrupt_window,
            label=args.label,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    report = run_live_scenario(scenario, loop=args.loop)
    print(report.render())
    if report.forensic_tail:
        print()
        print("forensic tail (most recent events):")
        for line in report.forensic_tail[-20:]:
            print(f"  {line}")
    return 0 if report.ok else 1


def _profiled_call(fn, out_path):
    """Run ``fn()`` under cProfile; dump pstats and print the hot table."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.dump_stats(out_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    print(f"profile written to {out_path}")
    print(buffer.getvalue())
    return result


def _render_kernel_table(kernel: dict) -> str:
    return render_table(
        ["workload", "object steps/sec", "kernel steps/sec", "speedup (median)"],
        [
            [workload,
             f"{stats['object_steps_per_second']:,.0f}",
             f"{stats['kernel_steps_per_second']:,.0f}",
             f"{stats['steps_speedup_median']:.2f}x"]
            for workload, stats in kernel.items()
        ],
        title="kernel benchmark (step kernel vs object engine, paired runs)",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.perf.bench import (
        compare_payloads,
        dump,
        load,
        run_bench,
        run_kernel_bench,
        run_relay_bench,
    )

    if args.only == "kernel":
        runner = lambda: run_kernel_bench(
            quick=args.quick, base_seed=args.base_seed
        )
    elif args.only == "relay":
        runner = lambda: run_relay_bench(
            quick=args.quick, base_seed=args.base_seed
        )
    else:
        runner = lambda: run_bench(quick=args.quick, base_seed=args.base_seed)
    if args.profile:
        profile_path = (
            os.path.join(
                os.path.dirname(os.path.abspath(args.out)), "bench.pstats"
            )
            if args.out
            else "bench.pstats"
        )
        payload = _profiled_call(runner, profile_path)
    else:
        payload = runner()
    results = payload["results"]
    if "live" in results:
        live = results["live"]
        print(render_table(
            ["lanes", "messages/sec", "wall seconds", "reseq high-water"],
            [
                [stats["lanes"],
                 f"{stats['messages_per_second']:,.0f}",
                 f"{stats['wall_seconds']:.3f}",
                 stats["resequencer_high_water"]]
                for __, stats in sorted(
                    live.items(), key=lambda kv: kv[1]["lanes"]
                )
            ],
            title="live benchmark (loopback UDP, lossless profile)",
        ))
        print()
    if "kernel" in results:
        print(_render_kernel_table(results["kernel"]))
        print()
    if "relay" in results:
        print(render_table(
            ["topology", "hops", "messages/sec", "ticks", "wall seconds"],
            [
                [leg, stats["hops"],
                 f"{stats['messages_per_second']:,.0f}",
                 stats["ticks"],
                 f"{stats['wall_seconds']:.3f}"]
                for leg, stats in sorted(results["relay"].items())
            ],
            title="relay fabric benchmark (end-to-end over per-hop TM/RM)",
        ))
        print()
    if "relay_kernel" in results:
        print(render_table(
            ["engine", "messages/sec", "ticks", "wall seconds"],
            [
                [engine,
                 f"{stats['messages_per_second']:,.0f}",
                 stats["ticks"],
                 f"{stats['wall_seconds']:.3f}"]
                for engine, stats in sorted(results["relay_kernel"].items())
            ],
            title="relay kernel benchmark (4-hop line, kernel vs object engine)",
        ))
        print()
    if "relay_stripe" in results:
        print(render_table(
            ["paths", "messages/sec", "ticks", "wall seconds"],
            [
                [stats["paths"],
                 f"{stats['messages_per_second']:,.0f}",
                 stats["ticks"],
                 f"{stats['wall_seconds']:.3f}"]
                for __, stats in sorted(results["relay_stripe"].items())
            ],
            title="relay striping benchmark (ring-8, protocol ticks to completion)",
        ))
        print()
    print(render_table(
        ["ratio", "value"],
        [[key, f"{value:.2f}"] for key, value in sorted(payload["ratios"].items())],
        title="gated ratios (within-run engine comparisons)",
    ))
    if args.out:
        existing = None
        if args.quick and os.path.exists(args.out):
            try:
                existing = load(args.out)
            except (OSError, ValueError):
                existing = None
        if existing is not None and not existing.get("quick", True):
            # A quick run must never clobber a committed full-run
            # baseline: the full ratios stay authoritative and the quick
            # payload rides along under its own key.
            existing["quick_smoke"] = payload
            dump(existing, args.out)
            print(
                f"\nquick payload merged into {args.out} under "
                f"'quick_smoke' (full-run baseline preserved)"
            )
        else:
            dump(payload, args.out)
            print(f"\nbenchmark payload written to {args.out}")
    if args.check:
        try:
            baseline = load(args.check)
        except OSError as error:
            raise SystemExit(
                f"cannot read baseline {args.check!r}: {error.strerror}"
            )
        failures, warnings = compare_payloads(
            payload, baseline, threshold=args.threshold
        )
        for warning in warnings:
            print(f"WARNING {warning}")
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}")
            return 1
        print(f"regression gate passed (threshold {args.threshold:.0%})")
    else:
        # Absolute floors gate even without a baseline to compare against.
        from repro.perf.bench import _floor_failures

        failures = _floor_failures(payload)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}")
            return 1
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.sim.scenarios import get_scenario, list_scenarios

    if args.name is None:
        print(render_table(
            ["scenario", "description"],
            [[s.name, s.description] for s in list_scenarios()],
            title="available scenarios",
        ))
        return 0
    try:
        scenario = get_scenario(args.name)
    except KeyError as error:
        raise SystemExit(str(error))
    outcome = scenario.run(seed=args.seed)
    sim = outcome.simulation
    print(render_table(
        ["metric", "value"],
        [
            ["scenario", scenario.name],
            ["completed", sim.completed],
            ["messages OK", f"{sim.metrics.messages_ok}/{sim.metrics.messages_submitted}"],
            ["packets/message", sim.metrics.per_message_packets],
            ["crashes (T/R)", f"{sim.metrics.crashes_t}/{sim.metrics.crashes_r}"],
            ["safety", "all OK" if outcome.safety.passed else "VIOLATED"],
        ],
        title=scenario.description,
    ))
    return 0 if outcome.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "sweep-loss":
        return _cmd_sweep_loss(args)
    if args.command == "sweep-relay":
        return _cmd_sweep_relay(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "shrink":
        return _cmd_shrink(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
