"""Command-line interface: ``python -m repro <command>``.

Drives the library end-to-end from a shell, the way an operator would:

====================  ====================================================
``calibrate``         run the microbenchmark suite, save a calibration
``predict``           DRAM-only profile -> per-component CXL forecast
``classify``          latency- vs bandwidth-bound (Fig. 12 branch)
``sweep``             synthesize (and optionally measure) an
                      interleaving curve; report the Best-shot ratio
``suite``             prediction-accuracy table over the 265 workloads
``fleet``             CAMP-guided capacity plan for a job mix; with
                      ``--nodes`` run a fleet-scale colocation policy
                      tournament and emit the ``repro-fleet/1`` report
                      (docs/FLEET.md)
``dynamics``          simulate a reactive migration loop vs Best-shot
``chaos``             run the suite under fault injection and check the
                      graceful-degradation invariants; ``--target
                      serve`` drives a live server instead
``serve``             online prediction service: coalesced batch
                      solves, admission control, per-request deadlines,
                      store circuit breaker (docs/SERVE.md)
``loadgen``           open-loop constant-rate load against a running
                      server; prints and saves the SLO report
``workloads``         list the named paper workloads
``cache``             inspect / compact / clear the persistent result
                      store (docs/STORE.md)
``lint``              camp-lint: statically check the determinism /
                      cache-key / PMU invariants (docs/LINT.md)
``trace``             re-run any other command under a span-trace
                      session; export Chrome trace-event JSON / JSONL
                      (docs/OBSERVABILITY.md)
``bench``             time the pinned runtime micro-suite; emit a
                      schema-versioned bench payload
====================  ====================================================

Profiling runs execute on the simulated machine; on real hardware the
same commands would wrap ``perf stat`` - the models only ever see
counters.

Every simulating subcommand accepts the shared runtime flags
(``docs/RUNTIME.md``): ``-j/--jobs N`` fans independent runs out over N
worker processes (``-j auto`` uses every core), results are cached
persistently under ``--cache-dir`` (default ``.repro-cache``; disable
with ``--no-cache``), and ``--progress`` reports live progress plus
cache/timing telemetry on stderr - stdout stays identical either way.
Fault schedules and the chaos invariants are in ``docs/FAULTS.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

import numpy as np

from .analysis.reporting import ascii_table
from .analysis.stats import accuracy_summary
from .core.calibration import Calibration, calibrate
from .core.classify import classify
from .core.contention import ContentionAwarePredictor
from .core.interleaving import synthesize
from .core.slowdown import SlowdownPredictor
from .runtime.executor import Executor, default_jobs
from .runtime.spec import RunSpec
from .runtime.store import ResultStore, default_cache_dir
from .uarch.config import get_platform
from .uarch.interleave import Placement
from .uarch.machine import Machine, slowdown
from .workloads.suites import (EVALUATION_SUITE_SIZE, evaluation_suite,
                               get_workload, named_workloads)


def _machine(args) -> Machine:
    return Machine(get_platform(args.platform))


# ---------------------------------------------------------------------------
# Argument validation (argparse ``type=`` callables).  Rejecting bad
# values at parse time yields a usage error + exit code 2 instead of a
# confusing traceback (or silent nonsense) deep inside a run.
# ---------------------------------------------------------------------------

def _jobs_arg(value: str) -> int:
    """Worker count: a positive integer, or ``auto`` for all cores."""
    if value.strip().lower() == "auto":
        return default_jobs()
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (or 'auto' for all cores), got {jobs}")
    return jobs


def _cache_dir_arg(value: str) -> pathlib.Path:
    """Cache location whose parent directory must already exist.

    The store creates its own root on first write, but a nonexistent
    *parent* is almost always a typo - fail fast instead of scattering
    a cache tree across a wrong path.
    """
    path = pathlib.Path(value)
    parent = path if path.is_dir() else path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"parent directory does not exist: {parent}")
    return path


def _repeats_arg(value: str) -> int:
    """Bench repeat count: a positive integer."""
    try:
        repeats = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}")
    if repeats < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {repeats}")
    return repeats


def _workload_count_arg(value: str) -> int:
    """A workload count within the evaluation population size."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}")
    if not 1 <= count <= EVALUATION_SUITE_SIZE:
        raise argparse.ArgumentTypeError(
            f"must be in 1..{EVALUATION_SUITE_SIZE}, got {count}")
    return count


def _executor(args) -> Executor:
    """Build the runtime (pool + persistent cache) from the CLI flags."""
    store = None
    if not getattr(args, "no_cache", False):
        root = getattr(args, "cache_dir", None)
        store = ResultStore(pathlib.Path(root) if root
                            else default_cache_dir())
    jobs = getattr(args, "jobs", None) or 1
    return Executor(jobs=jobs, store=store,
                    progress=getattr(args, "progress", False))


def _finish(args, executor: Executor) -> None:
    """Print the telemetry report (stderr) under ``--progress``."""
    if getattr(args, "progress", False):
        report = executor.telemetry.render()
        if report:
            print(report, file=sys.stderr)


def _load_calibration(args, machine: Machine,
                      executor: Optional[Executor] = None) -> Calibration:
    """Load from ``--calibration`` or calibrate (cached) on the fly."""
    if getattr(args, "calibration", None):
        return Calibration.from_json(
            pathlib.Path(args.calibration).read_text())
    if executor is not None:
        return executor.calibration(machine, args.device)
    return calibrate(machine, args.device)


def _resolve_workload(name: str, threads: Optional[int]):
    workload = get_workload(name)
    if threads:
        workload = workload.with_threads(threads)
    return workload


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = executor.calibration(machine, args.device)
    text = calibration.to_json()
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    _finish(args, executor)
    return 0


def cmd_predict(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    predictor_cls = (ContentionAwarePredictor if args.contention_aware
                     else SlowdownPredictor)
    predictor = predictor_cls(calibration)

    workloads = [_resolve_workload(name, args.threads)
                 for name in args.workload]
    specs = [RunSpec.from_machine(machine, w, Placement.dram_only())
             for w in workloads]
    if args.verify:
        specs += [RunSpec.from_machine(
            machine, w, Placement.slow_only(calibration.device))
            for w in workloads]
    results = executor.run(specs, label="predict")
    dram_runs = results[:len(workloads)]
    slow_runs = results[len(workloads):]

    rows = []
    for index, (name, dram) in enumerate(zip(args.workload, dram_runs)):
        prediction = predictor.predict(dram.profiled())
        row = [name, prediction.drd, prediction.cache, prediction.store,
               prediction.total]
        if args.verify:
            actual = slowdown(dram, slow_runs[index])
            row += [actual, abs(prediction.total - actual)]
        rows.append(row)

    headers = ["workload", "S_DRd", "S_Cache", "S_Store", "total"]
    if args.verify:
        headers += ["actual", "error"]
    print(ascii_table(headers, rows))
    _finish(args, executor)
    return 0


def cmd_classify(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    workloads = [_resolve_workload(name, args.threads)
                 for name in args.workload]
    profiles = executor.profile(
        [RunSpec.from_machine(machine, w, Placement.dram_only())
         for w in workloads], label="classify")
    rows = []
    for name, profile in zip(args.workload, profiles):
        decision = classify(profile, calibration.idle_latency_dram_ns,
                            tolerance=args.tolerance)
        rows.append([name, decision.workload_class.value,
                     decision.measured_latency_ns,
                     decision.idle_latency_ns,
                     decision.required_profiling_runs])
    print(ascii_table(["workload", "class", "measured ns", "idle ns",
                       "runs needed"], rows))
    _finish(args, executor)
    return 0


def cmd_sweep(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    workload = _resolve_workload(args.workload, args.threads)

    dram = executor.run_one(
        RunSpec.from_machine(machine, workload, Placement.dram_only()))
    profile = dram.profiled()
    decision = classify(profile, calibration.idle_latency_dram_ns)
    slow_profile = None
    if decision.is_bandwidth_bound:
        slow_profile = executor.run_one(RunSpec.from_machine(
            machine, workload,
            Placement.slow_only(calibration.device))).profiled()
    model = synthesize(profile, calibration, slow_profile)

    ratios = [float(x) for x in np.linspace(1.0, 0.0, args.points)]
    measured = {}
    if args.measure:
        placements = {
            x: (Placement.dram_only() if x >= 1.0 else
                Placement.interleaved(x, calibration.device))
            for x in ratios
        }
        runs = executor.run(
            [RunSpec.from_machine(machine, workload, placements[x])
             for x in ratios], label="sweep")
        measured = {x: slowdown(dram, run)
                    for x, run in zip(ratios, runs)}

    rows = []
    for x in ratios:
        row = [f"{x:.2f}", model.predict(x).total]
        if args.measure:
            row.append(measured[x])
        rows.append(row)
    headers = ["x (dram)", "predicted S"]
    if args.measure:
        headers.append("actual S")
    print(f"{workload.name}: {decision.workload_class.value} "
          f"({decision.required_profiling_runs} profiling run(s))")
    print(ascii_table(headers, rows))

    x_best, s_best = model.optimal_ratio()
    print(f"\nBest-shot ratio: {x_best:.2f} "
          f"(predicted slowdown {s_best:+.3f}; "
          f"{'beneficial' if model.beneficial else 'defensive'})")
    _finish(args, executor)
    return 0


def cmd_suite(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    predictor_cls = (ContentionAwarePredictor if args.contention_aware
                     else SlowdownPredictor)
    predictor = predictor_cls(calibration)

    # The named workloads are the (deterministic) prefix of the
    # evaluation suite, so a small --workloads N never has to pay for
    # generating the full 265-workload population.
    named = list(named_workloads().values())
    if args.limit and args.limit <= len(named):
        workloads = named[:args.limit]
    else:
        workloads = evaluation_suite()
        if args.limit:
            workloads = workloads[:args.limit]
    specs = []
    for workload in workloads:
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.dram_only()))
        specs.append(RunSpec.from_machine(
            machine, workload, Placement.slow_only(calibration.device)))
    results = executor.run(specs, label="suite")

    predicted, actual = [], []
    for index in range(len(workloads)):
        dram = results[2 * index]
        slow = results[2 * index + 1]
        predicted.append(predictor.predict(dram.profiled()).total)
        actual.append(slowdown(dram, slow))
    summary = accuracy_summary(predicted, actual)
    print(ascii_table(
        ["workloads", "pearson", "<=5% err", "<=10% err"],
        [[summary.count, summary.pearson, summary.within_5pct,
          summary.within_10pct]]))
    _finish(args, executor)
    return 0


def cmd_fleet(args) -> int:
    if args.nodes is not None:
        return _cmd_fleet_tournament(args)
    if not args.workload:
        print("fleet: name workloads to capacity-plan, or pass "
              "--nodes N for a tournament (docs/FLEET.md)",
              file=sys.stderr)
        return 2
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    from .policies.fleet import FleetPlanner
    fleet = [_resolve_workload(name, None) for name in args.workload]

    # Pre-warm the caches in two batched stages (the slow-tier runs
    # are only needed for bandwidth-bound members), then hand the
    # planner a profiler that serves from them.
    profiles = executor.profile(
        [RunSpec.from_machine(machine, w, Placement.dram_only())
         for w in fleet], label="fleet:dram")
    bandwidth_bound = [
        w for w, profile in zip(fleet, profiles)
        if classify(profile,
                    calibration.idle_latency_dram_ns).is_bandwidth_bound]
    if bandwidth_bound:
        executor.run(
            [RunSpec.from_machine(
                machine, w, Placement.slow_only(calibration.device))
             for w in bandwidth_bound], label="fleet:slow")

    total = sum(w.footprint_gib for w in fleet)
    capacity = (args.capacity_gib if args.capacity_gib
                else args.share * total)
    planner = FleetPlanner(machine, calibration,
                           profiler=executor.profiler(machine))
    plan = planner.plan(fleet, capacity)
    rows = [(a.workload, f"{a.footprint_gib:.1f}", a.dram_fraction,
             f"{a.dram_gib:.1f}", a.predicted_slowdown,
             "bw-bound" if a.bandwidth_bound else "lat-bound")
            for a in plan.assignments]
    print(ascii_table(["job", "GiB", "DRAM x", "DRAM GiB", "pred S",
                       "class"], rows))
    print(f"\nDRAM used: {plan.dram_used_gib:.1f} / "
          f"{plan.fast_capacity_gib:.1f} GiB; predicted fleet "
          f"throughput {plan.predicted_fleet_throughput:.3f}")
    _finish(args, executor)
    return 0


def _cmd_fleet_tournament(args) -> int:
    """``fleet --nodes N``: the sharded policy tournament."""
    from .fleet import (TOURNAMENT_POLICIES, TournamentConfig,
                        run_tournament)
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    policies = (tuple(name.strip() for name in
                      args.policies.split(",") if name.strip())
                if args.policies else TOURNAMENT_POLICIES)
    try:
        config = TournamentConfig(
            nodes=args.nodes, seed=args.seed, device=args.device,
            schedule=args.schedule, group_size=args.group_size,
            shard_nodes=args.shard_nodes, policies=policies,
            population_limit=args.population)
    except ValueError as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    report = run_tournament(machine, calibration, executor, config)
    print(report.render())
    if args.out:
        pathlib.Path(args.out).write_text(report.to_json() + "\n")
        print(f"\nwrote {args.out}")
    _finish(args, executor)
    return 0


def _dynamics_trace(task):
    """Worker for ``dynamics``: simulate one policy's migration loop."""
    from .policies.dynamics import simulate_tiering
    machine, workload, device, capacity, policy, epochs, bias = task
    return simulate_tiering(machine, workload, device, capacity, policy,
                            epochs=epochs, hotness_bias=bias)


def cmd_dynamics(args) -> int:
    machine = _machine(args)
    executor = _executor(args)
    calibration = _load_calibration(args, machine, executor)
    from .analysis.reporting import sparkline
    from .policies.dynamics import (BestShotDynamics, ColloidDynamics,
                                    FirstTouchDynamics, NBTDynamics)
    workload = _resolve_workload(args.workload, args.threads)
    capacity = args.share * workload.footprint_gib
    lineup = [(BestShotDynamics(calibration), 0.0),
              (FirstTouchDynamics(), 0.10),
              (NBTDynamics(), 0.30),
              (ColloidDynamics(), 0.25)]
    # Epoch-coupled simulations are not content-addressable runs, but
    # the four policy loops are independent: fan them out.
    traces = executor.map(
        _dynamics_trace,
        [(machine, workload, args.device, capacity, policy,
          args.epochs, bias) for policy, bias in lineup],
        label="dynamics")
    rows = []
    for (policy, _), trace in zip(lineup, traces):
        rows.append((policy.name, trace.normalized_performance,
                     trace.migration_cycles / trace.total_cycles,
                     trace.convergence_epoch(),
                     sparkline([r.placement_x for r in trace.records],
                               width=args.epochs)))
    print(ascii_table(["policy", "norm perf", "migration",
                       "converged@", "x(t)"], rows))
    _finish(args, executor)
    return 0


def cmd_chaos(args) -> int:
    if args.target == "serve":
        from .faults.chaos_serve import run_serve_chaos
        schedule = args.schedule if args.schedule != "default" else "serve"
        serve_report = run_serve_chaos(
            schedule=schedule, seed=args.seed, rate_rps=args.rate,
            duration_s=args.duration, platform=args.platform)
        print(serve_report.render())
        if args.slo_out:
            pathlib.Path(args.slo_out).write_text(
                serve_report.slo.to_json() + "\n")
            print(f"wrote SLO report to {args.slo_out}", file=sys.stderr)
        return 0 if serve_report.ok else 1
    from .faults.chaos import run_chaos
    cache_dir = getattr(args, "cache_dir", None)
    report = run_chaos(
        schedule=args.schedule, seed=args.seed, limit=args.limit,
        platform=args.platform, device=args.device, jobs=args.jobs,
        cache_dir=pathlib.Path(cache_dir) if cache_dir else None,
        use_cache=not args.no_cache, progress=args.progress)
    print(report.render())
    if args.progress and report.telemetry is not None:
        rendered = report.telemetry.render()
        if rendered:
            print(rendered, file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run the online prediction service until interrupted."""
    import asyncio
    import signal

    from .runtime.store import ResultStore, default_cache_dir
    from .serve.server import PredictionServer

    machine = _machine(args)
    store = None
    if not args.no_cache:
        root = (pathlib.Path(args.cache_dir) if args.cache_dir
                else default_cache_dir())
        store = ResultStore(root)
    executor = Executor(jobs=1, store=store)
    predictor = SlowdownPredictor(
        _load_calibration(args, machine, executor))

    from .serve.protocol import DEFAULT_DEADLINE_MS
    deadline_ms = (args.deadline_ms if args.deadline_ms is not None
                   else DEFAULT_DEADLINE_MS)

    async def _run() -> None:
        server = PredictionServer(
            machine, predictor, store, host=args.host, port=args.port,
            default_deadline_ms=deadline_ms,
            queue_bound=args.queue_bound)
        host, port = await server.start()
        print(f"repro serve: listening on http://{host}:{port} "
              f"(queue bound {server.coalescer.queue_bound}, "
              f"default deadline {deadline_ms:g} ms)")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("repro serve: draining...", file=sys.stderr)
        await server.drain()
        print("repro serve: drained clean", file=sys.stderr)

    asyncio.run(_run())
    return 0


def cmd_loadgen(args) -> int:
    """Drive a running server at a constant rate; report the SLO."""
    from .serve.loadgen import run_loadgen_sync

    report = run_loadgen_sync(
        args.host, args.port, rate_rps=args.rate,
        duration_s=args.duration, deadline_ms=args.deadline_ms,
        connections=args.connections, seed=args.seed)
    print(report.render())
    if args.slo_out:
        pathlib.Path(args.slo_out).write_text(report.to_json() + "\n")
        print(f"wrote SLO report to {args.slo_out}", file=sys.stderr)
    return 0 if report.failure_count == 0 else 1


def cmd_lint(args) -> int:
    """camp-lint: static invariant checks (docs/LINT.md).

    Exit codes: 0 clean (fixed or baselined), 1 active findings,
    2 usage / malformed baseline.
    """
    from .lint import (ALL_RULES, BASELINE_NAME, Baseline,
                       BaselineError, default_cache, default_root,
                       render_json, render_sarif, render_text,
                       run_lint)
    root = pathlib.Path(args.root) if args.root else None

    if args.repin_schema:
        import ast as ast_mod

        from .lint.rules.schema import compute_schema_digest, write_pin
        spec_path = ((root or default_root()) / "src" / "repro" /
                     "runtime" / "spec.py")
        version, digest = compute_schema_digest(
            ast_mod.parse(spec_path.read_text(encoding="utf-8")))
        pin_path = write_pin(root or default_root(), version, digest)
        print(f"pinned key_material digest {digest[:12]} "
              f"(CACHE_SCHEMA_VERSION={version}) in {pin_path}")
        return 0

    cache = (None if args.no_cache else
             default_cache(root or default_root(),
                           [rule.id for rule in ALL_RULES]))
    run = run_lint(root=root,
                   paths=[pathlib.Path(p) for p in args.paths] or None,
                   jobs=args.jobs, cache=cache)

    baseline_path = (pathlib.Path(args.baseline) if args.baseline
                     else (root or default_root()) / BASELINE_NAME)
    if args.write_baseline:
        previous = Baseline.load(baseline_path)
        Baseline.from_findings(run.findings, previous).save(baseline_path)
        print(f"wrote {len(run.findings)} entry(ies) to {baseline_path}")
        return 0
    baseline = Baseline()
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"camp-lint: {exc}", file=sys.stderr)
            return 2
    active, baselined, stale = baseline.partition(run.findings)
    if args.paths:
        stale = []   # a narrowed run never visits most baselined files

    if args.prune_baseline:
        if args.paths:
            print("camp-lint: --prune-baseline needs a full run "
                  "(drop the path arguments)", file=sys.stderr)
            return 2
        for entry in stale:
            print(f"stale: {entry.rule} {entry.path}: {entry.snippet}")
        if args.write and stale:
            stale_keys = {entry.key() for entry in stale}
            kept = [entry for entry in baseline.entries
                    if entry.key() not in stale_keys]
            Baseline(kept).save(baseline_path)
            print(f"pruned {len(stale)} stale entry(ies) from "
                  f"{baseline_path}; {len(kept)} kept")
        elif not stale:
            print("baseline is tight: every entry still matches a "
                  "finding")
        return 0

    if args.format == "json":
        print(render_json(active, baselined, stale, run.files_checked))
    elif args.format == "sarif":
        print(render_sarif(active, rules=ALL_RULES))
    else:
        print(render_text(active, baselined, stale, run.files_checked,
                          baseline))
    return 1 if active else 0


def _extract_out_flag(rest: List[str], name: str):
    """Pull ``name FILE`` / ``name=FILE`` out of a raw argv tail.

    The trace wrapper's output flags may appear anywhere around the
    inner command's own arguments (``trace suite --workloads 4
    --trace-out t.json``), so they are extracted by hand rather than
    declared on the subparser.  Returns ``(value, remaining_tokens)``.
    """
    value = None
    cleaned: List[str] = []
    index = 0
    while index < len(rest):
        token = rest[index]
        if token == name:
            if index + 1 >= len(rest):
                raise ValueError(f"{name} requires a file argument")
            value = rest[index + 1]
            index += 2
            continue
        if token.startswith(name + "="):
            value = token[len(name) + 1:]
            if not value:
                raise ValueError(f"{name} requires a file argument")
            index += 1
            continue
        cleaned.append(token)
        index += 1
    return value, cleaned


def cmd_trace(args) -> int:
    """Re-dispatch an inner command under an active trace session.

    The inner command runs exactly as it would untraced - stdout is
    byte-identical - while every instrumented layer (executor, store,
    lab, calibration, ``Machine.run``) records spans into one tracer,
    exported afterwards as Chrome trace-event JSON (``--trace-out``)
    and/or a JSONL event log (``--jsonl-out``).
    """
    rest = list(args.rest)
    if rest[:1] == ["--"]:
        rest = rest[1:]
    try:
        trace_out, rest = _extract_out_flag(rest, "--trace-out")
        jsonl_out, rest = _extract_out_flag(rest, "--jsonl-out")
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    if not rest:
        print("repro trace: usage: repro trace <command> [args ...] "
              "--trace-out FILE [--jsonl-out FILE]", file=sys.stderr)
        return 2
    if rest[0] == "trace":
        print("repro trace: trace sessions do not nest",
              file=sys.stderr)
        return 2
    if trace_out is None and jsonl_out is None:
        print("repro trace: need --trace-out FILE and/or "
              "--jsonl-out FILE", file=sys.stderr)
        return 2

    from .obs import (Tracer, trace_session, write_chrome_trace,
                      write_jsonl)
    tracer = Tracer()
    with trace_session(tracer):
        with tracer.span(f"cli.{rest[0]}"):
            code = main(rest)
    written = []
    if trace_out is not None:
        written.append(str(write_chrome_trace(tracer, trace_out)))
    if jsonl_out is not None:
        written.append(str(write_jsonl(tracer, jsonl_out)))
    print(f"trace: {len(tracer.events)} span(s) -> "
          f"{', '.join(written)}", file=sys.stderr)
    return code


def cmd_bench(args) -> int:
    """Time the pinned runtime micro-suite (docs/OBSERVABILITY.md)."""
    from .obs.bench import compare_bench, render_bench, run_bench
    out = pathlib.Path(args.out) if args.out else None
    result = run_bench(repeats=args.repeats, out=out, scale=args.scale)
    print(render_bench(result))
    if out is not None:
        print(f"wrote {out}", file=sys.stderr)
    if args.compare:
        baseline_path = pathlib.Path(args.compare)
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, ValueError) as exc:
            # The trajectory check must never gate the bench itself.
            print(f"bench compare: cannot read {baseline_path}: {exc}",
                  file=sys.stderr)
            return 0
        warnings = compare_bench(baseline, result)
        for line in warnings:
            print(f"bench compare: {line}", file=sys.stderr)
        if not warnings:
            print(f"bench compare: no regressions vs {baseline_path}",
                  file=sys.stderr)
    return 0


def cmd_workloads(args) -> int:
    rows = [(w.name, w.suite, w.threads, f"{w.footprint_gib:.1f}",
             f"{w.mlp:.1f}", ",".join(w.tags))
            for w in named_workloads().values()]
    print(ascii_table(["name", "suite", "thr", "GiB", "MLP", "tags"],
                      rows))
    return 0


def cmd_cache(args) -> int:
    """Inspect or maintain the persistent result store (docs/STORE.md)."""
    from .runtime.spec import CACHE_SCHEMA_VERSION
    root = pathlib.Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    with ResultStore(root, auto_compact=False) as store:
        if args.action == "clear":
            entries = len(store)
            store.clear()
            print(f"cleared {entries} entr"
                  f"{'y' if entries == 1 else 'ies'} under {root}")
        elif args.action == "compact":
            before = store.disk_bytes()
            store.compact()
            print(f"compacted {root}: {before} -> "
                  f"{store.disk_bytes()} bytes across "
                  f"{len(store.segment_paths())} segment(s), "
                  f"{len(store)} entries live")
        else:   # info
            print(f"root:          {root}")
            print(f"schema:        {CACHE_SCHEMA_VERSION}")
            print(f"entries:       {len(store)}")
            print(f"segments:      {len(store.segment_paths())}")
            print(f"disk bytes:    {store.disk_bytes()}")
            print(f"corrupt:       {store.stats.corrupt}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, device=True):
        p.add_argument("--platform", default="skx2s",
                       help="platform preset (skx2s/spr2s/emr2s)")
        if device:
            p.add_argument("--device", default="cxl-a",
                           help="slow tier (numa/cxl-a/cxl-b/cxl-c)")
            p.add_argument("--calibration",
                           help="path to a saved calibration JSON "
                                "(default: calibrate on the fly)")
        runtime = p.add_argument_group(
            "runtime", "parallelism, result cache, telemetry "
                       "(docs/RUNTIME.md)")
        runtime.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                             metavar="N",
                             help="worker processes for simulated runs "
                                  "(default 1 = serial; 'auto' = all "
                                  "cores)")
        runtime.add_argument("--cache-dir", type=_cache_dir_arg,
                             metavar="DIR",
                             help="persistent result cache location "
                                  "(default: $REPRO_CACHE_DIR or "
                                  "./.repro-cache)")
        runtime.add_argument("--no-cache", action="store_true",
                             help="skip the persistent result cache "
                                  "entirely")
        runtime.add_argument("--progress", action="store_true",
                             help="live progress + cache/timing "
                                  "telemetry on stderr")

    p = sub.add_parser("calibrate",
                       help="fit platform constants from microbenchmarks")
    common(p)
    p.add_argument("--out", help="write the calibration JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict",
                       help="forecast slow-tier slowdown from DRAM runs")
    common(p)
    p.add_argument("workload", nargs="+",
                   help="named workload(s), see `repro workloads`")
    p.add_argument("--threads", type=int)
    p.add_argument("--verify", action="store_true",
                   help="also execute on the slow tier and report error")
    p.add_argument("--contention-aware", action="store_true",
                   help="apply the bandwidth-saturation extension")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("classify",
                       help="latency- vs bandwidth-bound classification")
    common(p)
    p.add_argument("workload", nargs="+")
    p.add_argument("--threads", type=int)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep",
                       help="synthesize an interleaving curve + Best-shot")
    common(p)
    p.add_argument("workload")
    p.add_argument("--threads", type=int)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--measure", action="store_true",
                   help="also execute every ratio for comparison")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("suite",
                       help="prediction accuracy over the population")
    common(p)
    p.add_argument("--limit", "--workloads", type=_workload_count_arg,
                   dest="limit", metavar="N",
                   help="only the first N workloads (quick check)")
    p.add_argument("--contention-aware", action="store_true")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("fleet",
                       help="capacity-plan a job mix with CAMP, or "
                            "run a fleet-scale policy tournament "
                            "(--nodes; docs/FLEET.md)")
    common(p)
    from .fleet.population import ARRIVAL_SCHEDULES
    from .fleet.tournament import DEFAULT_SHARD_NODES
    p.add_argument("workload", nargs="*",
                   help="workloads to capacity-plan (planner mode)")
    p.add_argument("--share", type=float, default=0.5,
                   help="fast capacity as a share of the fleet "
                        "footprint (default 0.5)")
    p.add_argument("--capacity-gib", type=float,
                   help="absolute fast capacity (overrides --share)")
    tournament = p.add_argument_group(
        "tournament", "simulated-fleet policy tournament "
                      "(docs/FLEET.md)")
    tournament.add_argument("--nodes", type=int, metavar="N",
                            help="simulate N fleet nodes and rank the "
                                 "colocation policies")
    tournament.add_argument("--seed", type=int, default=2026,
                            help="fleet draw + sampling seed "
                                 "(default 2026)")
    tournament.add_argument("--schedule", default="diurnal",
                            choices=sorted(ARRIVAL_SCHEDULES),
                            help="arrival schedule (default diurnal)")
    tournament.add_argument("--policies",
                            help="comma-separated policy lineup "
                                 "(default: all six)")
    tournament.add_argument("--group-size", type=int, default=2,
                            help="workloads colocated per node "
                                 "(default 2)")
    tournament.add_argument("--shard-nodes", type=int,
                            default=DEFAULT_SHARD_NODES,
                            help="nodes per joint-solve shard "
                                 f"(default {DEFAULT_SHARD_NODES})")
    tournament.add_argument("--population", type=_workload_count_arg,
                            metavar="N",
                            help="draw from only the first N "
                                 "population workloads (smoke runs)")
    tournament.add_argument("--out",
                            help="write the repro-fleet/1 report "
                                 "JSON here")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("dynamics",
                       help="simulate reactive migration loops")
    common(p)
    p.add_argument("workload")
    p.add_argument("--threads", type=int)
    p.add_argument("--share", type=float, default=0.8)
    p.add_argument("--epochs", type=int, default=20)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("chaos",
                       help="fault-inject the stack and verify graceful "
                            "degradation (docs/FAULTS.md)")
    common(p)
    from .faults.plan import SCHEDULES
    p.add_argument("--schedule", default="default",
                   choices=sorted(SCHEDULES),
                   help="named fault schedule (default: 'default')")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed; same seed => same injections")
    p.add_argument("--workloads", type=_workload_count_arg,
                   dest="limit", metavar="N",
                   help="workloads to exercise (default: per schedule)")
    p.add_argument("--target", choices=("stack", "serve"),
                   default="stack",
                   help="what to fault-inject: the batch stack "
                        "(default) or a live prediction server "
                        "(docs/SERVE.md)")
    p.add_argument("--rate", type=float, default=60.0,
                   help="[serve target] load rate in requests/s "
                        "(default 60)")
    p.add_argument("--duration", type=float, default=4.0,
                   help="[serve target] load duration in seconds "
                        "(default 4)")
    p.add_argument("--slo-out", metavar="FILE",
                   help="[serve target] write the SLO report JSON here")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="online prediction service with admission control, "
             "deadlines, and a store circuit breaker (docs/SERVE.md)")
    p.add_argument("--platform", default="skx2s",
                   help="platform preset (skx2s/spr2s/emr2s)")
    p.add_argument("--device", default="cxl-a",
                   help="slow tier (numa/cxl-a/cxl-b/cxl-c)")
    p.add_argument("--calibration",
                   help="path to a saved calibration JSON "
                        "(default: calibrate on the fly, cached)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8484,
                   help="bind port; 0 picks a free one (default 8484)")
    p.add_argument("--deadline-ms", type=float,
                   default=None, metavar="MS",
                   help="default per-request deadline "
                        "(docs/SERVE.md)")
    p.add_argument("--queue-bound", type=int, default=None, metavar="N",
                   help="admission queue bound; beyond it requests "
                        "are shed with 429 (docs/SERVE.md)")
    p.add_argument("--cache-dir", type=_cache_dir_arg, metavar="DIR",
                   help="persistent result store to answer from "
                        "(default: $REPRO_CACHE_DIR or ./.repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a persistent store")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="open-loop constant-rate load against a running server; "
             "prints the SLO report (docs/SERVE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--rate", type=float, default=50.0,
                   help="request rate in requests/s (default 50)")
    p.add_argument("--duration", type=float, default=10.0,
                   help="run duration in seconds (default 10)")
    p.add_argument("--deadline-ms", type=float, default=2000.0,
                   metavar="MS",
                   help="per-request deadline sent with each query "
                        "(default 2000)")
    p.add_argument("--connections", type=int, default=8,
                   help="keep-alive connections to multiplex over "
                        "(default 8)")
    p.add_argument("--seed", type=int, default=0,
                   help="request-mix seed (deterministic schedule)")
    p.add_argument("--slo-out", metavar="FILE",
                   help="write the SLO report JSON here")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("workloads", help="list named paper workloads")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "cache",
        help="inspect / compact / clear the persistent result store "
             "(docs/STORE.md)")
    p.add_argument("action",
                   choices=("info", "compact", "clear"),
                   help="info: summary; compact: rewrite live records "
                        "into fresh segments; clear: delete every "
                        "entry")
    p.add_argument("--cache-dir", type=_cache_dir_arg, metavar="DIR",
                   help="store location (default: $REPRO_CACHE_DIR or "
                        "./.repro-cache)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint",
        help="camp-lint: static determinism/cache-key/PMU invariant "
             "checks (docs/LINT.md)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: "
                        "src/repro plus the docs)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="report format (default: text; sarif emits "
                        "SARIF 2.1.0 for code-scanning upload)")
    p.add_argument("--baseline", metavar="FILE",
                   help="baseline file of grandfathered findings "
                        "(default: <root>/lint-baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline: report every finding")
    p.add_argument("--write-baseline", action="store_true",
                   help="grandfather the current findings into the "
                        "baseline file (keeps existing justifications)")
    p.add_argument("--prune-baseline", action="store_true",
                   help="report baseline entries no finding matches "
                        "any more; with --write, delete them from the "
                        "baseline file")
    p.add_argument("--write", action="store_true",
                   help="with --prune-baseline: rewrite the baseline "
                        "file without the stale entries")
    p.add_argument("--repin-schema", action="store_true",
                   help="recompute the SCHEMA01 key_material digest "
                        "and rewrite lint-schema-pin.json (run after "
                        "an intentional CACHE_SCHEMA_VERSION bump)")
    p.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                   metavar="N",
                   help="analyze files with N worker processes "
                        "('auto' = one per CPU; default: 1, "
                        "in-process)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not update the lint result "
                        "cache (.repro-cache/lint-cache.json)")
    p.add_argument("--root", metavar="DIR",
                   help="repo root for scoping and default paths "
                        "(default: auto-detected)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "trace",
        help="run another command under a span-trace session "
             "(docs/OBSERVABILITY.md)")
    p.add_argument("rest", nargs=argparse.REMAINDER, metavar="command",
                   help="inner command plus its arguments; add "
                        "--trace-out FILE (Chrome trace-event JSON) "
                        "and/or --jsonl-out FILE anywhere")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="time the pinned runtime micro-benchmarks "
             "(docs/OBSERVABILITY.md)")
    p.add_argument("--repeats", type=_repeats_arg, default=5,
                   metavar="N",
                   help="timed repeats per case; medians are reported "
                        "(default 5)")
    p.add_argument("--out", metavar="FILE",
                   help="write the schema-versioned JSON payload here")
    p.add_argument("--compare", metavar="FILE",
                   help="diff against a previous payload; regressions "
                        "are warned to stderr, never fatal")
    p.add_argument("--scale", action="store_true",
                   help="also run the large store cases (100k-entry "
                        "roundtrip, 1M-entry get_many scan)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # ``trace`` forwards a full inner command line, options and all;
    # argparse's REMAINDER rejects option-leading tails ("trace
    # --trace-out f suite"), so the wrapper is dispatched by hand.
    # ``trace -h`` still reaches argparse for the help text.
    if argv[:1] == ["trace"] and argv[1:2] not in (["-h"], ["--help"]):
        return cmd_trace(argparse.Namespace(rest=argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
