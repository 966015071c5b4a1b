"""Command-line interface: ``python -m repro <command>``.

Gives the experiment layer a shell entry point, mirroring how the
original system's reproducibility material drives its simulator:

- ``slot``       run PANDAS slots and print phase distributions;
- ``figure``     regenerate one of the paper's figures/tables
                 (``fig12`` is the four-system comparison, with its CDF);
- ``faults``     dead-node / out-of-view sweeps;
- ``adversary``  Byzantine-fraction degradation sweeps;
- ``security``   the Section 3 sampling math for a given grid;
- ``trace``      summarize a trace written by ``--trace`` (and convert it
                 to Chrome ``trace_event`` JSON);
- ``pipeline``   sustained multi-slot pipeline with churn and overload control;
- ``health``     analyze a telemetry series against run-health SLOs.

The commands are one table, :data:`COMMANDS`. Each entry holds a
command's name, help, argument specs and run function; ``@command``
registers it right above the function's body, and :func:`build_parser`
and :func:`main` only iterate over the table.

Examples::

    python -m repro slot --nodes 350 --policy redundant --slots 2
    python -m repro slot --nodes 200 --faults 'corrupt=0.1,flood=2@20'
    python -m repro slot --nodes 200 --json
    python -m repro figure fig9 --nodes 300
    python -m repro figure fig12 --nodes 300
    python -m repro faults --fault dead --nodes 300
    python -m repro adversary --behavior corrupt --fractions 0,0.1,0.2
    python -m repro security --grid 512 --target 1e-9
    python -m repro slot --nodes 200 --trace trace.jsonl
    python -m repro slot --nodes 200 --trace q.jsonl --trace-kinds query_issue,query_timeout
    python -m repro trace trace.jsonl --chrome trace.json
    python -m repro pipeline --nodes 60 --reduced 32 --slots 4 --churn 0.1
    python -m repro pipeline --nodes 60 --reduced 32 --check-invariants --json
    python -m repro pipeline --nodes 60 --reduced 32 --telemetry series.jsonl
    python -m repro health series.jsonl --min-deadline-hit 0.9 --json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.analysis.plotting import ascii_cdf
from repro.analysis.stats import summarize
from repro.core.seeding import policy_by_name
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.obs.events import KINDS
from repro.obs.telemetry import DEFAULT_CADENCE
from repro.params import SEEDING_REDUNDANCY, PandasParams

__all__ = ["COMMANDS", "Command", "main", "build_parser"]

Arg = tuple[tuple[str, ...], dict[str, Any]]


def arg(*flags: str, **spec: Any) -> Arg:
    """One ``add_argument`` call, as data."""
    return flags, spec


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    args: tuple[Arg, ...]
    run: Callable[[argparse.Namespace], int]


COMMANDS: list[Command] = []


def command(name: str, help: str, *args: Arg):
    """Register the decorated function as the ``name`` command."""

    def register(run: Callable[[argparse.Namespace], int]):
        COMMANDS.append(Command(name, help, args, run))
        return run

    return register


def _checked(
    convert: Callable[[str], Any], valid: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    """Type of a number with a valid range (or a name from a catalog):
    the value, or a usage error saying what was ``expected``."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


def _positive(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """Type of a bound with no unbounded setting: a positive number."""
    return _checked(convert, lambda value: value > 0, "positive")


_COUNT = _checked(int, lambda value: value >= 0, "non-negative")
_FRACTION = _checked(float, lambda value: 0.0 <= value <= 1.0, "in [0, 1]")
_NON_NEGATIVE = _checked(float, lambda value: value >= 0.0, "non-negative")
_KIND = _checked(str, lambda value: value in KINDS, "an event kind of repro.obs.events")


def _list_of(item: Callable[[str], Any]) -> Callable[[str], tuple[Any, ...]]:
    """Type of a comma-separated list: every entry parsed by ``item``."""

    def parse(text: str) -> tuple[Any, ...]:
        return tuple(item(part.strip()) for part in text.split(","))

    return parse


def _fault_plan(spec: str):
    """``--faults`` type: a parsed FaultPlan, or a usage error naming the entry."""
    from repro.faults.plan import FaultPlan

    try:
        return FaultPlan.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# ----------------------------------------------------------------------
# argument specs shared by several commands
# ----------------------------------------------------------------------
SCALE = (
    arg("--nodes", type=_positive(int), default=350),
    arg("--seed", type=int, default=7),
    arg(
        "--reduced",
        type=_checked(
            int, lambda value: value == 0 or value > 0 and 256 % value == 0,
            "0 or a divisor of 256",
        ),
        default=0,
        help="grid reduction factor (0 = full Danksharding parameters)",
    ),
)
POLICY = (
    arg("--policy", default="redundant", help="minimal|single|redundant"),
    arg(
        "--redundancy", type=_positive(int), default=SEEDING_REDUNDANCY,
        help="r for the redundant policy",
    ),
)
FAULTS = arg(
    "--faults",
    type=_fault_plan,
    default=None,
    metavar="SPEC",
    help=(
        "deterministic fault plan, e.g. "
        "'loss=0.05,crash=2@1.0:2.0,partition=0.2@1.0+0.5' "
        "(kinds: loss, dup, jitter, crash=N@T1[:T2], "
        "partition=F@T+D, slow=N@D; Byzantine: corrupt=X, "
        "flood=X@R, withhold=X, equivocate=X@K, stall=X@D — "
        "X below 1 is a fraction, otherwise a node count)"
    ),
)
JSON = arg(
    "--json", action="store_true",
    help="machine-readable output: one JSON object instead of text",
)
TRACE = (
    arg(
        "--trace", default=None, metavar="FILE",
        help="also write a JSONL structured trace of the run(s), for 'repro trace FILE'",
    ),
    arg(
        "--trace-kinds", type=_list_of(_KIND), default=None, metavar="KINDS",
        help="comma-separated event kinds --trace records (default: all)",
    ),
)
TELEMETRY = (
    arg(
        "--telemetry", default=None, metavar="FILE",
        help="sample run-health telemetry and write the JSONL series here",
    ),
    # the three below require --telemetry (None: not given)
    arg(
        "--telemetry-cadence", type=_positive(float), default=None,
        metavar="SECONDS",
        help=f"sim-time sampling cadence for --telemetry (default {DEFAULT_CADENCE})",
    ),
    arg(
        "--prometheus", default=None, metavar="FILE",
        help="also write the final telemetry state as Prometheus text",
    ),
    arg(
        "--heartbeat", type=_checked(float, lambda value: value >= 0.0, "non-negative"),
        default=None, metavar="SECONDS",
        help="print a wall-clock progress line every N seconds (0 = off; "
        "requires --telemetry)",
    ),
)


def _params(args) -> PandasParams:
    if args.reduced:
        return PandasParams.reduced(args.reduced)
    return PandasParams.full()


def _make_tracer(args):
    """A JSONL-backed TraceRecorder from the --trace rider, or None."""
    if not args.trace:
        if args.trace_kinds is not None:
            args.usage_error("argument --trace-kinds: requires --trace")
        return None
    from repro.obs import JsonlSink, TraceRecorder

    return TraceRecorder(kinds=args.trace_kinds, sink=JsonlSink(args.trace))


def _finish_trace(tracer, args) -> None:
    """Close the trace file, if one is being written."""
    if tracer is not None:
        tracer.close()
        print(f"trace: {tracer.accepted} events -> {args.trace}")


def _make_telemetry(args):
    """A configured Telemetry from the --telemetry riders, or None."""
    if not args.telemetry:
        for flag in ("telemetry_cadence", "prometheus", "heartbeat"):
            if getattr(args, flag) is not None:
                args.usage_error(
                    f"argument --{flag.replace('_', '-')}: requires --telemetry"
                )
        return None
    from repro.obs import Heartbeat
    from repro.obs.telemetry import Telemetry

    heartbeat = Heartbeat(args.heartbeat) if args.heartbeat else None
    cadence = args.telemetry_cadence or DEFAULT_CADENCE
    return Telemetry(cadence=cadence, heartbeat=heartbeat)


def _finish_telemetry(telemetry, args) -> dict | None:
    """Write the telemetry series (and optional Prometheus text);
    returns the summary dict for JSON payloads, or None."""
    if telemetry is None:
        return None
    from repro.obs.export import write_prometheus, write_series_jsonl

    records = write_series_jsonl(telemetry, args.telemetry)
    info = {
        "file": args.telemetry,
        "records": records,
        "samples": len(telemetry.samples),
    }
    if args.prometheus:
        write_prometheus(telemetry, args.prometheus)
        info["prometheus"] = args.prometheus
    return info


# ----------------------------------------------------------------------
# the commands, in --help order
# ----------------------------------------------------------------------
@command(
    "slot", "run PANDAS slots and print phase stats",
    *SCALE,
    *POLICY,
    arg("--slots", type=_positive(int), default=1),
    arg("--dead", type=_FRACTION, default=0.0, help="fraction of dead nodes"),
    arg("--out-of-view", type=_FRACTION, default=0.0, help="fraction out of view"),
    arg("--block-gossip", action="store_true", help="also gossip the block"),
    arg("--plot", action="store_true", help="render the sampling CDF"),
    FAULTS,
    arg(
        "--check-invariants", action="store_true",
        help="enforce protocol invariants online; violations abort the run",
    ),
    JSON,
    *TRACE,
    *TELEMETRY,
)
def _cmd_slot(args) -> int:
    faults = args.faults
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    config = ScenarioConfig(
        num_nodes=args.nodes,
        params=_params(args),
        policy=policy_by_name(args.policy, args.redundancy),
        seed=args.seed,
        slots=args.slots,
        dead_fraction=args.dead,
        out_of_view_fraction=args.out_of_view,
        include_block_gossip=args.block_gossip,
        faults=faults,
        check_invariants=args.check_invariants,
        tracer=tracer,
        telemetry=telemetry,
    )
    if args.json:
        scenario = Scenario(config).run()
        phases = scenario.phase_distributions()
        payload = scenario.metrics.summary()
        payload["config"] = {
            "nodes": args.nodes,
            "slots": args.slots,
            "seed": args.seed,
            "policy": config.policy.name,
            "faults": faults.describe() if faults is not None else None,
        }
        payload["phases"] = {
            name: {
                "median": dist.median,
                "p99": dist.p99,
                "max": dist.max,
                "within_4s": dist.fraction_within(4.0),
                "count": dist.count,
            }
            for name, dist in (
                ("seeding", phases.seeding),
                ("consolidation", phases.consolidation),
                ("sampling", phases.sampling),
            )
        }
        if tracer is not None:
            tracer.close()
            payload["trace"] = {"file": args.trace, "events": tracer.accepted}
        telemetry_info = _finish_telemetry(telemetry, args)
        if telemetry_info is not None:
            payload["telemetry"] = telemetry_info
        print(json.dumps(payload, default=float))
        return 0 if phases.sampling.fraction_within(4.0) > 0 else 1
    print(f"running {args.slots} slot(s) over {args.nodes} nodes ({config.policy.name})")
    if faults is not None:
        print(f"  fault plan     {faults.describe()}")
    scenario = Scenario(config).run()
    phases = scenario.phase_distributions()
    print(f"  seeding        {summarize(phases.seeding, 4.0)}")
    print(f"  consolidation  {summarize(phases.consolidation, 4.0)}")
    print(f"  sampling       {summarize(phases.sampling, 4.0)}")
    print(f"  builder egress {scenario.builder_egress_bytes(0) / 1e6:.1f} MB")
    fetch = scenario.fetch_bytes_distribution()
    if fetch.values:
        print(f"  fetch traffic  median {fetch.median / 1e6:.2f} MB, max {fetch.max / 1e6:.2f} MB")
    if scenario.metrics.fault_counts:
        realized = ", ".join(
            f"{kind}={int(count)}"
            for kind, count in sorted(scenario.metrics.fault_counts.items())
        )
        print(f"  faults         {realized}")
    if scenario.metrics.defense_counts:
        triggered = ", ".join(
            f"{kind}={int(count)}"
            for kind, count in sorted(scenario.metrics.defense_counts.items())
        )
        print(f"  defenses       {triggered}")
    if scenario.invariants is not None:
        print(f"  invariants     ok ({scenario.invariants.checks_run} checks)")
    if args.plot:
        print(ascii_cdf({"sampling": phases.sampling}, deadline=4.0))
    telemetry_info = _finish_telemetry(telemetry, args)
    if telemetry_info is not None:
        print(
            f"  telemetry      {telemetry_info['samples']} samples -> "
            f"{telemetry_info['file']}"
        )
    _finish_trace(tracer, args)
    return 0 if phases.sampling.fraction_within(4.0) > 0 else 1


@command(
    "figure", "regenerate a paper figure/table",
    arg(
        "which",
        choices=["fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1"],
    ),
    *SCALE,
    arg(
        "--scales", type=_list_of(_positive(int)), default="250,350,500",
        help="node counts for fig13/14",
    ),
)
def _cmd_figure(args) -> int:
    # benchmark modules contain the printing logic; reuse the figure
    # runners directly and keep the CLI output compact
    from repro.experiments import figures

    params = _params(args)
    if args.which == "fig9" or args.which == "fig10":
        results = figures.run_policy_comparison(num_nodes=args.nodes, seed=args.seed, params=params)
        for name in ("minimal", "single", "redundant"):
            print(f"{name:<10} sampling {summarize(results[name].sampling, 4.0)}")
            print(f"{'':<10} egress {results[name].builder_egress_bytes / 1e6:.1f} MB, "
                  f"fetch max {results[name].fetch_bytes.max / 1e6:.2f} MB")
    elif args.which == "table1":
        table = figures.run_table1(num_nodes=args.nodes, seed=args.seed, params=params)
        for rnd in sorted(table):
            stats = {k: round(v[0], 1) for k, v in sorted(table[rnd].items())}
            print(f"round {rnd}: {stats}")
    elif args.which == "fig11":
        results = figures.run_adaptive_vs_constant(
            num_nodes=args.nodes, seed=args.seed, params=params
        )
        for name, result in results.items():
            print(f"{name:<10} {summarize(result.sampling, 4.0)}")
    elif args.which == "fig12":
        results = figures.run_baseline_comparison(
            num_nodes=args.nodes, seed=args.seed, params=params
        )
        for name, result in results.items():
            print(f"{name:<10} {summarize(result.sampling, 4.0)}")
        print(ascii_cdf({n: r.sampling for n, r in results.items()}, deadline=4.0))
    elif args.which in ("fig13", "fig14"):
        systems = (
            ["pandas"]
            if args.which == "fig13"
            else ["pandas", "gossipsub", "dht", "peerdas"]
        )
        for system in systems:
            results = figures.run_scaling(
                node_counts=args.scales, seed=args.seed, system=system, params=params
            )
            for count, result in results.items():
                print(f"{system:<10} {count:>6} nodes  {summarize(result.sampling, 4.0)}")
    elif args.which == "fig15":
        for fault in ("dead", "out_of_view"):
            results = figures.run_fault_sweep(
                fault=fault, num_nodes=args.nodes, seed=args.seed, params=params
            )
            for fraction, result in results.items():
                print(f"{fault:<12} {fraction:>4.0%}  {summarize(result.sampling, 4.0)}")
    return 0


@command(
    "faults", "fault sweeps (Figure 15)",
    *SCALE,
    arg("--fault", choices=["dead", "out_of_view"], default="dead"),
    arg("--fractions", type=_list_of(_FRACTION), default="0,0.2,0.4,0.6,0.8"),
    *TRACE,
)
def _cmd_faults(args) -> int:
    from repro.experiments import figures

    tracer = _make_tracer(args)
    results = figures.run_fault_sweep(
        fractions=args.fractions,
        fault=args.fault,
        num_nodes=args.nodes,
        seed=args.seed,
        params=_params(args),
        tracer=tracer,
    )
    for fraction, result in results.items():
        print(f"{args.fault:<12} {fraction:>4.0%}  {summarize(result.sampling, 4.0)}")
    _finish_trace(tracer, args)
    return 0


@command(
    "adversary", "Byzantine-fraction degradation sweep (Section 9)",
    *SCALE,
    arg(
        "--behavior",
        default="mix",
        choices=["mix", "corrupt", "flood", "withhold", "equivocate", "stall"],
        help="one behavior, or 'mix' to split the fraction across all five",
    ),
    arg("--fractions", type=_list_of(_FRACTION), default="0,0.05,0.1,0.2,0.3"),
    arg("--slots", type=_positive(int), default=1),
    arg(
        "--details", action="store_true",
        help="also print realized adversary and defense counters",
    ),
    *TRACE,
)
def _cmd_adversary(args) -> int:
    from repro.experiments import figures

    tracer = _make_tracer(args)
    results = figures.run_adversarial_sweep(
        fractions=args.fractions,
        behavior=args.behavior,
        num_nodes=args.nodes,
        slots=args.slots,
        seed=args.seed,
        params=_params(args),
        tracer=tracer,
    )
    print(f"{args.behavior} sweep over {args.nodes} nodes "
          "(measured honest completion vs sybil-model bound)")
    for fraction, point in results.items():
        print(
            f"  {fraction:>4.0%} byzantine ({point.byzantine_count:>3} nodes)  "
            f"sampling {point.sampling_within_deadline:>6.1%} <=4s "
            f"(analytic >= {point.analytic_success:.1%})  "
            f"consolidation {point.consolidation_within_deadline:>6.1%}"
        )
        if args.details:
            for label, counts in (
                ("adversary", point.fault_counts),
                ("defenses", point.defense_counts),
            ):
                if counts:
                    line = ", ".join(
                        f"{kind}={int(count)}" for kind, count in sorted(counts.items())
                    )
                    print(f"       {label:<9} {line}")
    _finish_trace(tracer, args)
    return 0


@command(
    "security", "Section 3 sampling math",
    arg(
        "--grid",
        type=_checked(int, lambda value: value >= 2 and value % 2 == 0, "even and at least 2"),
        default=512,
        help="extended grid dimension",
    ),
    arg("--samples", type=_COUNT, default=None),
    arg(
        "--target", type=_checked(float, lambda value: 0.0 < value < 1.0, "in (0, 1)"),
        default=1e-9,
    ),
)
def _cmd_security(args) -> int:
    from repro.das.security import false_positive_probability, required_samples

    grid = args.grid
    if args.samples is not None and args.samples > grid * grid:
        args.usage_error(
            f"argument --samples: must be at most {grid * grid}, got {str(args.samples)!r}"
        )
    needed = required_samples(grid, grid, args.target)
    print(f"grid {grid}x{grid}: {needed} samples reach FP < {args.target:g}")
    samples = args.samples if args.samples is not None else needed
    fp = false_positive_probability(samples, grid, grid)
    print(f"FP bound at s={samples}: {fp:.3e}")
    return 0


@command(
    "trace", "summarize a JSONL trace written by --trace",
    arg("file", help="trace written by --trace"),
    arg(
        "--chrome", default=None, metavar="OUT",
        help="also write it as Chrome trace_event JSON (load in about://tracing / Perfetto)",
    ),
)
def _cmd_trace(args) -> int:
    from collections import Counter

    from repro.obs.sinks import chrome_trace
    from repro.obs.timeline import read_trace, trace_report

    try:
        records = read_trace(args.file)
        if args.chrome:
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(chrome_trace(records), fh, separators=(",", ":"))
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    counts = Counter(record["kind"] for record in records)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
    print(f"trace: {len(records)} events in {args.file}")
    print("  top kinds      " + ", ".join(f"{k}={n}" for k, n in top))
    if args.chrome:
        print(f"  chrome         {args.chrome} (open in about://tracing or Perfetto)")
    for line in trace_report(records, slot=0):
        print(line)
    return 0


@command(
    "pipeline", "sustained multi-slot pipeline: churn, bounded queues, load shedding",
    *SCALE,
    *POLICY,
    arg("--slots", type=_positive(int), default=4),
    arg(
        "--churn", type=_checked(float, lambda value: 0.0 <= value < 1.0, "in [0, 1)"),
        default=0.05, help="membership turnover per slot",
    ),
    arg("--view-lag", type=_COUNT, default=1, help="slots of view staleness"),
    arg(
        "--retention", type=_positive(int), default=2,
        help="slots of state kept behind the head",
    ),
    arg(
        "--max-inbox", type=_positive(int), default=ScenarioConfig.max_inbox,
        help="bounded transport inbox (datagrams)",
    ),
    arg(
        "--pending-limit", type=_COUNT, default=256,
        help="bounded per-node request buffer (0 = unbounded)",
    ),
    arg(
        "--admit-rate", type=_positive(float), default=PandasParams.retrieval_admit_rate,
        help="per-node retrieval admission tokens/s",
    ),
    arg(
        "--admit-burst", type=_positive(float), default=PandasParams.retrieval_admit_burst,
        help="per-node retrieval admission bucket burst (tokens)",
    ),
    arg("--probes", type=_COUNT, default=2, help="measured retrieval probes per slot"),
    arg(
        "--check-invariants", action="store_true",
        help="enforce protocol invariants online (I5: no unbounded backlog)",
    ),
    JSON,
    *TRACE,
    *TELEMETRY,
)
def _cmd_pipeline(args) -> int:
    from dataclasses import replace

    from repro.experiments.pipeline import PipelineScenario

    params = replace(
        _params(args),
        pending_request_limit=args.pending_limit if args.pending_limit > 0 else None,
        retrieval_admit_rate=args.admit_rate,
        retrieval_admit_burst=args.admit_burst,
    )
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    config = ScenarioConfig(
        num_nodes=args.nodes,
        params=params,
        policy=policy_by_name(args.policy, args.redundancy),
        seed=args.seed,
        slots=args.slots,
        check_invariants=args.check_invariants,
        tracer=tracer,
        telemetry=telemetry,
        max_inbox=args.max_inbox,
    )
    scenario = PipelineScenario(
        config,
        churn_fraction=args.churn,
        view_lag_slots=args.view_lag,
        retention_slots=args.retention,
        probes_per_slot=args.probes,
    ).run()
    report = scenario.report()
    if args.json:
        payload = report.to_dict()
        if scenario.invariants is not None:
            payload["invariants"] = {"checks_run": scenario.invariants.checks_run}
        if tracer is not None:
            tracer.close()
            payload["trace"] = {"file": args.trace, "events": tracer.accepted}
        telemetry_info = _finish_telemetry(telemetry, args)
        if telemetry_info is not None:
            payload["telemetry"] = telemetry_info
        print(json.dumps(payload, default=float))
        return 0 if report.deadline_hit_rate > 0 else 1
    print(
        f"sustained pipeline: {args.slots} slot(s), {args.nodes} nodes, "
        f"{args.churn:.0%} churn/slot ({config.policy.name})"
    )
    for row in report.rows:
        print(
            f"  slot {row['slot']:>3} (epoch {row['epoch']:>2})  "
            f"deadline-hit {row['deadline_hit']:>6.1%}  "
            f"live {row['live_nodes']:>5}  "
            f"queue-depth {row['max_queue_depth']:>4}  "
            f"shed {row['shed_total']:>8.0f}"
        )
    print(f"  deadline-hit rate  {report.deadline_hit_rate:.1%}")
    probe = report.probe
    if probe["issued"]:
        outcomes = ", ".join(f"{k}={v}" for k, v in probe["outcomes"].items())
        line = f"  probe retrieval    {probe['completed']}/{probe['issued']} complete ({outcomes})"
        if probe["completed"]:
            line += (
                f", p50 {probe['latency_p50'] * 1e3:.0f} ms, "
                f"p99 {probe['latency_p99'] * 1e3:.0f} ms"
            )
        print(line)
    if report.sheds:
        shed_line = ", ".join(f"{k}={v:.0f}" for k, v in report.sheds.items())
        print(f"  sheds              {shed_line}")
    if report.queue_depth_peaks:
        peaks = ", ".join(f"{k}={v}" for k, v in report.queue_depth_peaks.items())
        print(f"  queue peaks        {peaks}")
    if report.datagrams_overflowed:
        print(f"  inbox overflow     {report.datagrams_overflowed} datagrams")
    if scenario.invariants is not None:
        print(f"  invariants         ok ({scenario.invariants.checks_run} checks)")
    print(f"  fingerprint        {report.fingerprint[:16]}…")
    telemetry_info = _finish_telemetry(telemetry, args)
    if telemetry_info is not None:
        print(
            f"  telemetry          {telemetry_info['samples']} samples -> "
            f"{telemetry_info['file']}"
        )
    _finish_trace(tracer, args)
    return 0 if report.deadline_hit_rate > 0 else 1


@command(
    "health", "analyze a telemetry JSONL series against run-health SLOs",
    arg("series", help="telemetry series written by --telemetry"),
    arg(
        "--min-deadline-hit", type=_FRACTION, default=0.9,
        help="minimum sampling deadline-hit rate to pass (default 0.9)",
    ),
    arg(
        "--max-queue-p99", type=_NON_NEGATIVE, default=None,
        help="fail if the sampled queue-depth p99 exceeds this",
    ),
    arg(
        "--max-shed", type=_NON_NEGATIVE, default=None,
        help="fail if total shed work exceeds this",
    ),
    JSON,
)
def _cmd_health(args) -> int:
    from repro.obs.health import SloThresholds, analyze_file, format_report

    thresholds = SloThresholds(
        min_deadline_hit_rate=args.min_deadline_hit,
        max_queue_depth_p99=args.max_queue_p99,
        max_shed_total=args.max_shed,
    )
    try:
        report = analyze_file(args.series, thresholds)
    except (OSError, ValueError) as exc:
        print(f"cannot analyze {args.series}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), default=float))
    else:
        for line in format_report(report):
            print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PANDAS reproduction: run slots, figures and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        command_parser = sub.add_parser(cmd.name, help=cmd.help)
        for flags, spec in cmd.args:
            command_parser.add_argument(*flags, **spec)
        # usage_error: for checks that span two flags, made after parsing
        command_parser.set_defaults(run=cmd.run, usage_error=command_parser.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed the pipe early (`repro trace FILE | head`):
        # exit with the SIGPIPE status, no traceback, and point stdout
        # at /dev/null so the interpreter's last flush cannot raise again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
