"""Command-line interface: regenerate any of the paper's artifacts.

Examples::

    python -m repro fig7                 # ray-tracing scalability table
    python -m repro fig9 --ascii         # adaptation run with CPU plot
    python -m repro table2               # measured classification
    python -m repro exp3 --app ray-tracing
    python -m repro all                  # the full evaluation (§5)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments import (
    APP_FACTORIES,
    CLUSTER_FACTORIES,
    MAX_WORKERS,
    adaptation_experiment,
    dynamics_experiment,
    scalability_experiment,
)
from repro.experiments.adaptation import END_MS
from repro.experiments.classify import classify_applications, format_table

_FIGURE_APPS = {
    "fig6": "option-pricing",
    "fig7": "ray-tracing",
    "fig8": "web-prefetch",
    "fig9": "option-pricing",
    "fig10": "ray-tracing",
    "fig11": "web-prefetch",
}


#: Columns of the ASCII CPU plot's bar at 100 %.
_PLOT_WIDTH = 56


def _ascii_history(history) -> str:
    width = _PLOT_WIDTH
    lines = [f"{'t (s)':>6} {'CPU %':>6}  0%{' ' * (width - 6)}100%"]
    step = END_MS / 44.0
    t, index = 0.0, 0
    while t <= END_MS:
        while index + 1 < len(history) and history[index + 1][0] <= t:
            index += 1
        level = history[index][1]
        lines.append(
            f"{t / 1000.0:>6.1f} {level:>6.0f}  "
            f"|{'#' * int(round(level / 100.0 * width))}"
        )
        t += step
    return "\n".join(lines)


def _scalability(app_id: str, workers: Optional[int]) -> None:
    sweep = scalability_experiment(
        APP_FACTORIES[app_id],
        CLUSTER_FACTORIES[app_id],
        list(range(1, (workers or MAX_WORKERS[app_id]) + 1)),
    )
    print(sweep.format_table())
    print("speedups:", [(w, round(s, 2)) for w, s in sweep.speedups()])


def _adaptation(app_id: str, ascii_plot: bool) -> None:
    result = adaptation_experiment(APP_FACTORIES[app_id], CLUSTER_FACTORIES[app_id])
    if ascii_plot:
        print(_ascii_history(result.cpu_history))
        print()
    print(result.format_table())
    print(f"signal cycle: {' → '.join(result.signals_in_order)}; "
          f"class loads: {result.class_loads}")


def _dynamics(app_id: str, workers: Optional[int]) -> None:
    result = dynamics_experiment(
        APP_FACTORIES[app_id], CLUSTER_FACTORIES[app_id],
        workers=workers or (8 if app_id == "option-pricing" else 4),
    )
    print(result.format_table())


#: Nemesis fault kinds accepted by ``--fault``; an optional ``:target``
#: suffix picks the victim ("space", "shard:<i>", or a hostname).
_NEMESIS_NAMES = ("partition", "pause", "gray-slow")


def _one_fault(value: str) -> str:
    if value in ("kill-primary-space", "kill-master"):
        return value
    if value.startswith("kill-shard:"):
        index = value[len("kill-shard:"):]
        if index.isdigit():
            return value
    name, _, suffix = value.partition(":")
    if name in _NEMESIS_NAMES:
        # Bare kind, "space", "shard:<i>", or a literal hostname —
        # anything except an obviously malformed shard index.
        shard = suffix.partition(":")
        if suffix.startswith("shard:") and not shard[2].isdigit():
            raise argparse.ArgumentTypeError(
                f"{value!r}: shard target must be shard:<i> with integer i")
        return value
    raise argparse.ArgumentTypeError(
        f"{value!r} is not a known fault (expected kill-primary-space, "
        f"kill-master, kill-shard:<i>, or partition/pause/gray-slow with "
        f"an optional :space, :shard:<i>, or :<hostname> target)")


def _tenant_count(value: str) -> int:
    """argparse type for ``--tenants``: an integer count of at least 2.

    The contention campaign needs the victim plus at least one other
    tenant, so 0 and 1 are rejected up front rather than deep inside
    the experiment body.
    """
    try:
        tenants = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an integer tenant count") from None
    if tenants < 2:
        raise argparse.ArgumentTypeError(
            f"--tenants needs at least 2 (victim + one other), got {tenants}")
    return tenants


def _fault_spec(value: str) -> list[str]:
    """argparse type for ``--fault``: a comma-separated fault list.

    One ``--fault`` flag may compose a whole campaign
    (``--fault partition:space,kill-shard:1``); the flag also remains
    repeatable, and the two forms mix freely.
    """
    faults = [part.strip() for part in value.split(",") if part.strip()]
    if not faults:
        raise argparse.ArgumentTypeError("empty fault list")
    return [_one_fault(fault) for fault in faults]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Adaptive Cluster "
                    "Computing using JavaSpaces' (CLUSTER 2001).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in ("fig6", "fig7", "fig8"):
        p = sub.add_parser(fig, help=f"scalability figure ({_FIGURE_APPS[fig]})")
        p.add_argument("--workers", type=int, default=None,
                       help="sweep 1..N workers (default: the paper's testbed)")
    for fig in ("fig9", "fig10", "fig11"):
        p = sub.add_parser(fig, help=f"adaptation figure ({_FIGURE_APPS[fig]})")
        p.add_argument("--ascii", action="store_true",
                       help="render the CPU-usage history as ASCII")
    sub.add_parser("table2", help="measured application classification")
    p = sub.add_parser("exp3", help="dynamic worker behaviour (0/25/50 %% loaded)")
    p.add_argument("--app", choices=sorted(APP_FACTORIES), default="ray-tracing")
    p.add_argument("--workers", type=int, default=None)
    sub.add_parser("all", help="regenerate the full evaluation")

    # The paper: "Input parameters are fed in using a simple GUI" — here,
    # a CLI: price an arbitrary option on the simulated cluster.
    p = sub.add_parser("price", help="price an option on the 13-PC cluster")
    p.add_argument("--type", choices=["call", "put"], default="call")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--strike", type=float, default=100.0)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--volatility", type=float, default=0.2)
    p.add_argument("--maturity", type=float, default=1.0, help="years")
    p.add_argument("--exercise-dates", type=int, default=3)
    p.add_argument("--simulations", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=13)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection run (crash + flap + restart + poison)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--tasks", type=int, default=24)
    p.add_argument("--random-plan", action="store_true",
                   help="draw the fault schedule from the seed instead of "
                        "the fixed acceptance campaign")
    p.add_argument("--fault", action="extend", dest="faults",
                   type=_fault_spec, metavar="FAULT[,FAULT...]",
                   help="run the coordinator-fault campaign instead "
                        "(hot standby + master checkpoints + consistency "
                        "checker); kill-primary-space, kill-master, "
                        "kill-shard:<i>, or a nemesis kind partition / "
                        "pause / gray-slow with an optional target "
                        "(:space, :shard:<i>, :<hostname>).  Accepts a "
                        "comma-separated list and is repeatable, e.g. "
                        "--fault partition:space,kill-shard:1")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the space over N shards "
                        "(kill-shard:<i> needs i < N)")
    p.add_argument("--tenants", type=_tenant_count, default=None,
                   metavar="N",
                   help="run the multi-tenant contention campaign instead: "
                        "N tenants (victim + aggressor + bystanders) share "
                        "the space under admission control, weighted "
                        "fair-share, and priority preemption")
    p.add_argument("--isolation", action="store_true",
                   help="with --tenants: also run the aggressor-free "
                        "baseline and require the victim to keep >= 0.8x "
                        "of its isolated throughput")
    p.add_argument("--verify-determinism", action="store_true",
                   help="replay the campaign once and require the "
                        "identical recovery trace")
    p.add_argument("--prefetch", type=int, default=1,
                   help="worker pipeline depth (also batches master "
                        "seed/drain); faults then land mid-batch")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record telemetry spans during the campaign "
                        "(does not perturb the recovery trace) and write "
                        "them here as Chrome trace_event JSON")
    p.add_argument("--metrics-out", default=None,
                   help="write the final Prometheus metrics dump here")
    p.add_argument("--postmortem-dir", default="postmortems",
                   help="write flight-recorder postmortem bundles here "
                        "(standby promotions, checker/gate failures); "
                        "empty string disables")

    p = sub.add_parser(
        "trace",
        help="run one traced job; write a Perfetto-loadable span file",
    )
    p.add_argument("job", choices=sorted(APP_FACTORIES))
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON (open in ui.perfetto.dev)")
    p.add_argument("--jsonl", default=None,
                   help="also write raw spans as JSON lines")
    p.add_argument("--metrics-out", default=None,
                   help="write the final Prometheus metrics dump here")
    p.add_argument("--real", action="store_true",
                   help="run the real kernels (default: cost model only)")

    p = sub.add_parser("top", help="live cluster console for one job")
    p.add_argument("job", choices=sorted(APP_FACTORIES))
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1,
                   help="partition the space over N shards (adds one "
                        "console line per shard)")
    p.add_argument("--interval", type=float, default=1_000.0,
                   help="frame interval in virtual ms")
    p.add_argument("--follow", action="store_true",
                   help="print every frame, not just the final snapshot")
    p.add_argument("--json", action="store_true",
                   help="print one machine-readable final snapshot "
                        "instead of the console table")
    p.add_argument("--real", action="store_true",
                   help="run the real kernels (default: cost model only)")

    p = sub.add_parser(
        "doctor",
        help="critical-path attribution: where one job's wall time went",
    )
    p.add_argument("job", choices=sorted(APP_FACTORIES))
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1,
                   help="partition the space over N shards (scatter "
                        "fan-outs then show up as a phase)")
    p.add_argument("--prefetch", type=int, default=1,
                   help="worker pipeline depth (also batches master "
                        "seed/drain)")
    p.add_argument("--json", action="store_true",
                   help="print the attribution report as JSON")
    p.add_argument("--out", default=None,
                   help="also write the report JSON here")
    p.add_argument("--real", action="store_true",
                   help="run the real kernels (default: cost model only)")

    p = sub.add_parser("render", help="render a JSON scene on the cluster")
    p.add_argument("scene", nargs="?", default=None,
                   help="scene JSON file (default: the built-in scene)")
    p.add_argument("--output", default="render_out.ppm")
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--aa", type=int, default=1, help="AA samples per axis")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command

    if command in ("fig6", "fig7", "fig8"):
        _scalability(_FIGURE_APPS[command], args.workers)
    elif command in ("fig9", "fig10", "fig11"):
        _adaptation(_FIGURE_APPS[command], args.ascii)
    elif command == "table2":
        print(format_table(classify_applications()))
    elif command == "exp3":
        _dynamics(args.app, args.workers)
    elif command == "all":
        from repro.experiments.report import run_full_evaluation

        report = run_full_evaluation(
            progress=lambda msg: print(f"  … {msg}", file=sys.stderr)
        )
        print(report.render())
    elif command == "price":
        _price(args)
    elif command == "chaos":
        return _chaos(args)
    elif command == "trace":
        return _trace_cmd(args)
    elif command == "top":
        return _top(args)
    elif command == "doctor":
        return _doctor(args)
    elif command == "render":
        _render(args)
    return 0


def _price(args) -> None:
    from repro.apps.options import (
        OptionContract,
        OptionPricingApplication,
        OptionType,
    )
    from repro.core.framework import AdaptiveClusterFramework
    from repro.experiments.harness import run_simulation
    from repro.node.cluster import testbed_large

    contract = OptionContract(
        option_type=OptionType(args.type),
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        volatility=args.volatility,
        maturity_years=args.maturity,
        exercise_dates=args.exercise_dates,
    )
    app = OptionPricingApplication(contract=contract,
                                   n_simulations=args.simulations)

    def body(runtime):
        cluster = testbed_large(runtime, workers=args.workers)
        framework = AdaptiveClusterFramework(runtime, cluster, app)
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = run_simulation(body)
    solution = report.solution
    print(f"{args.type} S={args.spot:g} K={args.strike:g} r={args.rate:g} "
          f"σ={args.volatility:g} T={args.maturity:g}y "
          f"({args.exercise_dates} exercise dates, "
          f"{args.simulations} simulations, {args.workers} workers)")
    print(f"price    : {solution['price']:.4f}")
    print(f"interval : [{solution['ci_low']:.4f}, {solution['ci_high']:.4f}]")
    print(f"parallel : {report.parallel_ms:,.0f} virtual ms")


def _write_telemetry(result, trace_out, metrics_out) -> None:
    """Export the chaos run's telemetry artifacts, if any were asked for."""
    if trace_out is not None:
        result.tracer.write_chrome(trace_out)
        print(f"trace: {len(result.tracer.spans)} spans → {trace_out}")
    if metrics_out is not None:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(result.prometheus)
        print(f"metrics: → {metrics_out}")


def _write_postmortems(result, directory: str, label: str) -> None:
    """Persist the flight recorder's postmortem bundles, if any fired.

    Called on every exit path — a passing kill-primary-space campaign
    still dumps the standby-promotion bundle, and a failing gate adds
    its own.  Re-invocation after a late dump (determinism divergence)
    rewrites the same filenames deterministically and adds the new one.
    """
    import os

    if not directory:
        return
    for i, bundle in enumerate(result.postmortems):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory,
            f"postmortem-{label}-{i}-{bundle.reason}-t{int(bundle.t_ms)}.json")
        bundle.write(path)
        print(f"postmortem: {bundle.reason} → {path}")


#: campaign → (experiment, its determinism check against one replay, the
#: result property that must hold, what to print when it does not) in
#: ``experiments.chaos``.
_CAMPAIGNS = {
    "chaos": ("chaos_experiment", "verify_chaos_determinism", "correct",
              "solution does not match the expected partial sum"),
    "coordination": ("coordination_chaos_experiment",
                     "verify_coordination_determinism", "exactly_once",
                     "job did not complete every task exactly-once"),
    "contention": ("contention_chaos_experiment",
                   "verify_contention_determinism", "correct",
                   "a non-aggressor tenant lost tasks or got a wrong sum"),
}


def _chaos_refusal(args) -> Optional[str]:
    """Why the flags name no campaign, if they do not: no worker, no
    task, a fault aimed at a shard the deployment does not have, or a
    flag the chosen campaign would ignore."""
    for flag, value in (("--workers", args.workers), ("--tasks", args.tasks)):
        if value < 1:
            return f"{flag} must be >= 1: {value}"
    for fault in args.faults or ():
        shard = (fault.removeprefix("kill-shard:")
                 if fault.startswith("kill-shard:")
                 else fault.partition(":shard:")[2])
        if shard and int(shard) >= args.shards:
            return (f"--fault {fault} names shard {shard}, but --shards "
                    f"is {args.shards}")
    if args.tenants is not None and args.faults:
        return "--tenants and --fault are separate campaigns; pick one"
    if args.isolation and args.tenants is None:
        return "--isolation needs --tenants (it measures the victim tenant)"
    if args.random_plan and (args.faults or args.tenants is not None):
        return ("--random-plan draws the worker campaign's faults; "
                "--fault and --tenants campaigns do not use it")
    return None


def _chaos(args) -> int:
    """Pick the campaign the flags ask for; one tail runs it, prints,
    writes artifacts, gates and (``--verify-determinism``) replays it."""
    from repro.errors import ConfigurationError, SimulationError
    from repro.experiments import chaos

    refusal = _chaos_refusal(args)
    if refusal is not None:
        print(f"FAIL: {refusal}")
        return 2
    kwargs = dict(seed=args.seed, workers=args.workers,
                  prefetch=args.prefetch, shards=args.shards,
                  trace=args.trace_out is not None)
    if args.tenants is not None:
        label = "contention"
        kwargs.update(tenants=args.tenants)
    elif args.faults:
        label = "coordination"
        kwargs.update(tasks=args.tasks, faults=args.faults)
    else:
        label = "chaos"
        kwargs.update(tasks=args.tasks, random_plan=args.random_plan)
    experiment, verify, gate, failure = _CAMPAIGNS[label]
    try:
        result = getattr(chaos, experiment)(**kwargs)
    except SimulationError as exc:
        # --prefetch 0 / --shards 0: the framework's own
        # complaint, not a traceback (and not a silently different run).
        if not isinstance(exc.__cause__, (ValueError, ConfigurationError)):
            raise
        print(f"FAIL: {exc.__cause__}")
        return 2
    print(result.format_summary())
    _write_telemetry(result, args.trace_out, args.metrics_out)
    _write_postmortems(result, args.postmortem_dir, label)
    if not getattr(result, gate):
        print(f"FAIL: {failure}")
        return 1
    if not result.consistent:
        print("FAIL: consistency checker found history violations")
        return 1
    if args.isolation and not _isolation(chaos, result, kwargs):
        return 1
    if args.verify_determinism:
        ok = getattr(chaos, verify)(first=result, **kwargs)
        print(f"determinism: {'identical traces' if ok else 'TRACES DIVERGED'}")
        if not ok:
            result.flight.dump("determinism-diverged")
            _write_postmortems(result, args.postmortem_dir, label)
            return 1
    return 0


def _isolation(chaos, contended, kwargs: dict) -> bool:
    """``--isolation``: the aggressor-free baseline against the contended
    run; the victim must keep 0.8x of its isolated throughput."""
    baseline, contended, ratio = chaos.contention_isolation(
        contended=contended, **kwargs)
    print(f"isolation: victim {contended.victim_throughput_per_s:.2f}/s "
          f"contended vs {baseline.victim_throughput_per_s:.2f}/s alone "
          f"(ratio {ratio:.3f})")
    if ratio < 0.8:
        print("FAIL: aggressor degraded the victim below 0.8x baseline")
    return ratio >= 0.8


def _traced_run(app_id: str, workers: Optional[int], seed: int, real: bool,
                trace: bool, monitor=None, snapshot_ms: Optional[float] = 500.0,
                shards: int = 1, prefetch: int = 1):
    """Run one job on a fresh simulated cluster; return (report, framework).

    ``monitor`` is an optional ``fn(runtime, framework, done)`` spawned as
    a sidecar process before the master starts (the console uses it);
    ``done`` becomes truthy when the job finishes, and the monitor must
    return soon after so the simulation can drain.
    """
    from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
    from repro.experiments.harness import run_simulation
    from repro.sim.rng import RandomStreams

    config = FrameworkConfig(compute_real=real, trace=trace,
                             metrics_snapshot_ms=snapshot_ms,
                             shards=max(1, shards),
                             worker_prefetch=max(1, prefetch),
                             master_seed_batch=max(1, prefetch),
                             master_drain_batch=max(1, prefetch))

    def body(runtime):
        cluster = CLUSTER_FACTORIES[app_id](
            runtime, workers=workers or MAX_WORKERS[app_id],
            streams=RandomStreams(seed))
        framework = AdaptiveClusterFramework(
            runtime, cluster, APP_FACTORIES[app_id](), config)
        framework.start()
        done: list[bool] = []
        if monitor is not None:
            runtime.spawn(lambda: monitor(runtime, framework, done),
                          name="console")
        report = framework.run()
        done.append(True)
        framework.shutdown()
        return report, framework

    return run_simulation(body)


def _trace_cmd(args) -> int:
    report, framework = _traced_run(args.job, args.workers, args.seed,
                                    args.real, trace=True)
    tracer = framework.tracer
    job = tracer.find("job")
    coverage = (tracer.coverage(job.start_ms, job.end_ms)
                if job is not None else 0.0)
    tracer.write_chrome(args.out)
    print(f"{args.job}: {report.parallel_ms:,.0f} virtual ms, "
          f"{len(tracer.spans)} spans, coverage {coverage:.1%} of job time")
    print(f"trace: → {args.out}  (open in https://ui.perfetto.dev)")
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        print(f"spans: → {args.jsonl}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(framework.registry.prometheus_text())
        print(f"metrics: → {args.metrics_out}")
    return 0


def _top(args) -> int:
    import json

    from repro.telemetry import cluster_snapshot, cluster_table

    frames: list[str] = []

    def monitor(runtime, framework, done):
        while True:
            runtime.sleep(args.interval)
            if done:
                return
            frames.append(cluster_table(framework))

    # Snapshot at the frame interval so the SLO watchdog evaluates its
    # rules while the job runs — the alerts pane is live, not post-hoc.
    report, framework = _traced_run(args.job, args.workers, args.seed,
                                    args.real, trace=False, monitor=monitor,
                                    snapshot_ms=args.interval,
                                    shards=args.shards)
    if args.json:
        print(json.dumps(cluster_snapshot(framework, report=report),
                         indent=2, sort_keys=True))
        return 0
    if args.follow:
        for frame in frames:
            print(frame)
            print()
    print(cluster_table(framework, report=report))
    return 0


def _doctor(args) -> int:
    from repro.telemetry import analyze_job

    report, framework = _traced_run(args.job, args.workers, args.seed,
                                    args.real, trace=True,
                                    shards=args.shards,
                                    prefetch=args.prefetch)
    doc = analyze_job(framework.tracer)
    if args.json:
        print(doc.to_json())
    else:
        print(doc.format())
        print(f"\njob wall time: {report.parallel_ms:,.0f} virtual ms "
              f"(attributed {doc.attributed_fraction():.1%})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc.to_json() + "\n")
        if not args.json:   # keep --json stdout parseable as one document
            print(f"report: → {args.out}")
    return 0


def _render(args) -> None:
    import numpy as np

    from repro.apps.raytrace import RayTracingApplication, load_scene
    from repro.core.framework import AdaptiveClusterFramework
    from repro.experiments.harness import run_simulation
    from repro.node.cluster import testbed_small

    scene = load_scene(args.scene) if args.scene else None
    size = args.size
    strip = max(1, size // 24)
    while size % strip:
        strip -= 1
    app = RayTracingApplication(scene=scene, width=size, height=size,
                                strip_rows=strip, max_depth=3)
    if args.aa > 1:
        app.max_depth = 3  # AA handled below via render args in execute
    app_samples = args.aa

    original_execute = app.execute

    def execute_with_aa(payload):
        from repro.apps.raytrace.render import render_rows

        x0, y0, x1, y1 = payload["region"]
        return render_rows(app.scene, app.camera, y0, y1, app.width,
                           app.height, app.max_depth,
                           samples_per_axis=app_samples)

    app.execute = execute_with_aa  # type: ignore[method-assign]

    def body(runtime):
        cluster = testbed_small(runtime)
        framework = AdaptiveClusterFramework(runtime, cluster, app)
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = run_simulation(body)
    image = report.solution
    with open(args.output, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(image.tobytes())
    print(f"wrote {args.output} ({image.nbytes:,} bytes, "
          f"{app.n_strips} strips, AA {args.aa}x{args.aa})")
    print(f"parallel: {report.parallel_ms:,.0f} virtual ms")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
