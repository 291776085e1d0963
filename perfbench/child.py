"""One run of the ``suite`` or ``colocation`` workload, in its own process.

``run.py`` starts this script in a fresh interpreter with a fresh
temporary directory.  It sets up (imports, population, calibrations),
runs one untimed warm-up op, then the seeded op list, and writes the
raw measurements plus the output checks' verdicts as JSON to ``--out``.
With ``--setup-only`` it stops once set-up is done; with ``--trace`` it
records spans around the program's layer boundaries and writes them
when the timed ops end.

    python perfbench/child.py --workload suite --seed 1 --seconds 20 \\
        --tmp DIR --out result.json --spawned-at <time.monotonic()>
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import spans  # noqa: E402

PLATFORMS = ("skx2s", "spr2s", "emr2s")
DEVICE = "cxl-a"

#: Host seconds one cold+warm suite pass pair takes on a 2-vCPU
#: reference host, between its fast (2.3 s) and slow (3.1 s) phases;
#: sizes the pass list from ``--seconds`` (never from a clock).
SUITE_PASS_S = 2.6
#: Host seconds one colocation node takes on the same host (0.30 s
#: fast, 0.45 s slow).
COLOCATION_OP_S = 0.36
#: Batch lanes per suite run re-solved with scalar ``Machine.run``.
SCALAR_SAMPLE = 24
#: The seed whose suite digest and Pearsons are committed.
REFERENCE_SEED = 2026
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def suite_passes(seconds: float) -> int:
    return max(1, round(seconds / SUITE_PASS_S))


def colocation_nodes(seconds: float) -> int:
    return max(1, round(seconds / COLOCATION_OP_S))


class Run:
    """Shared plumbing: the clock, the recorder and the result record."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.recorder = spans.Recorder() if args.trace else None
        self.record = {"workload": args.workload, "seed": args.seed,
                       "failures": []}

    def bench(self, fn, *args):
        """Run harness work (GC, digests) as one ``bench`` span.

        The program calls it makes are not traced: they are the
        benchmark's work, not the workload's.
        """
        if self.recorder is None:
            return fn(*args)
        start = time.perf_counter()
        self.recorder.paused = True
        try:
            return fn(*args)
        finally:
            self.recorder.paused = False
            self.recorder.add("bench.self_s", start, time.perf_counter())

    def ready(self) -> None:
        self.record["setup_s"] = time.monotonic() - self.args.spawned_at

    def end_of_ops(self) -> None:
        """Close the timed window: peak RSS now, spans written now."""
        self.record["max_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if self.recorder is not None:
            self.recorder.dump(self.args.trace, STARTED, time.perf_counter())

    def fail(self, failures) -> int:
        self.record["failures"].extend(failures)
        return int(bool(failures))


def _import_program(run: Run):
    start = time.perf_counter()
    from repro.analysis import stats
    from repro.core.slowdown import SlowdownPredictor
    from repro.policies import colocation
    from repro.runtime.executor import Executor
    from repro.runtime.spec import RunSpec
    from repro.runtime.store import ResultStore
    from repro.uarch.config import get_platform
    from repro.uarch.interleave import Placement
    from repro.uarch.machine import Machine, slowdown
    from repro.workloads import suites
    if run.recorder is not None:
        run.recorder.add("repro.import_s", start, time.perf_counter())
        spans.install(run.recorder)
    return types.SimpleNamespace(
        stats=stats, SlowdownPredictor=SlowdownPredictor,
        colocation=colocation, Executor=Executor, RunSpec=RunSpec,
        ResultStore=ResultStore, get_platform=get_platform,
        Placement=Placement, Machine=Machine, slowdown=slowdown,
        suites=suites)


def run_suite(run: Run, tmp: str) -> None:
    """Cold and warm full-population passes (``repro suite`` shape)."""
    args = run.args
    p = _import_program(run)
    machines = {name: p.Machine(p.get_platform(name)) for name in PLATFORMS}
    population = p.suites.evaluation_suite(args.seed)
    placements = (p.Placement.dram_only(), p.Placement.slow_only(DEVICE),
                  p.Placement.interleaved(0.5, DEVICE))
    setup = p.Executor(jobs=1, store=p.ResultStore(os.path.join(tmp, "setup")))
    calibrations = {name: setup.calibration(machine, DEVICE)
                    for name, machine in machines.items()}
    run.ready()
    if args.setup_only:
        return

    def one_pass(directory: str):
        executor = p.Executor(jobs=1, store=p.ResultStore(directory))
        specs = [p.RunSpec.from_machine(machines[name], workload, placement)
                 for name in PLATFORMS for workload in population
                 for placement in placements]
        results = executor.run(specs, label="suite")
        pearsons = {}
        width = len(population) * len(placements)
        for offset, name in enumerate(PLATFORMS):
            predictor = p.SlowdownPredictor(calibrations[name])
            predicted, actual = [], []
            for index in range(len(population)):
                lane = offset * width + index * len(placements)
                dram, slow = results[lane], results[lane + 1]
                predicted.append(predictor.predict(dram.profiled()).total)
                actual.append(p.slowdown(dram, slow))
            pearsons[name] = p.stats.accuracy_summary(predicted,
                                                      actual).pearson
        return specs, results, pearsons

    warmup = os.path.join(tmp, "warmup")
    one_pass(warmup)  # the untimed warm-up op: one cold pass,
    one_pass(warmup)  # then its warm pass
    passes = suite_passes(args.seconds)
    cold_s, warm_s, pearsons = [], [], []
    for index in range(passes):
        directory = os.path.join(tmp, f"pass-{index}")
        run.bench(gc.collect)
        start = time.perf_counter()
        cold = one_pass(directory)
        cold_s.append(time.perf_counter() - start)
        run.bench(gc.collect)
        start = time.perf_counter()
        warm = one_pass(directory)
        warm_s.append(time.perf_counter() - start)
        pearsons.append((cold[2], warm[2]))
        if index == 0:
            # Serializing 2 x 2385 results costs about a second, so
            # only the first pass is digested; every later pass must
            # reproduce its Pearsons.
            specs, results, _ = cold
            digests = run.bench(_digests, cold, warm)
        del cold, warm
    run.end_of_ops()

    reference = args.seed == REFERENCE_SEED
    failed = 0
    if digests[0] != digests[1]:
        failed += run.fail(["pass 0: warm results serialize differently "
                            "from cold"])
    for index, pair in enumerate(pearsons):
        if pair != (pearsons[0][0],) * 2:
            failed += run.fail([f"pass {index}: Pearsons differ between "
                                f"cold, warm and pass 0"])
    failed += run.fail(_check_suite_outputs(
        specs, results, digests[0], pearsons[0][0], args.seed, reference))
    run.record.update(
        ops=2 * passes, failed=failed, passes=passes, cold_s=cold_s,
        warm_s=warm_s, specs_per_pass=len(specs), digest=digests[0],
        pearson=pearsons[0][0], reference_checked=reference)


def _digests(cold, warm):
    from checks import result_digest
    return result_digest(cold[1]), result_digest(warm[1])


def _check_suite_outputs(specs, results, digest, pearsons, seed, reference):
    from checks import check_lanes_match_scalar, check_reference
    failures = check_lanes_match_scalar(specs, results, seed, SCALAR_SAMPLE)
    if reference:
        with open(REFERENCE) as handle:
            failures += check_reference(digest, pearsons, json.load(handle))
    return failures


def run_colocation(run: Run, tmp: str) -> None:
    """Seeded two-job nodes placed by ``schedule_by_camp`` on skx2s."""
    args = run.args
    p = _import_program(run)
    machine = p.Machine(p.get_platform("skx2s"))
    population = p.suites.evaluation_suite(REFERENCE_SEED)
    setup = p.Executor(jobs=1, store=p.ResultStore(os.path.join(tmp, "setup")))
    calibration = setup.calibration(machine, DEVICE)
    # Every seed places the same workloads - a fixed sample of the
    # default population - and ``--seed`` only decides who shares a
    # node with whom, so every run does the same work (the summed
    # joint iterations were equal over five seeds).
    count = colocation_nodes(args.seconds)
    fixed = random.Random(REFERENCE_SEED).sample(population, len(population))
    warmup, pool = tuple(fixed[:2]), fixed[2:]
    members = [pool[index % len(pool)] for index in range(2 * count)]
    order = random.Random(args.seed).sample(members, len(members))
    nodes = [(order[2 * index], order[2 * index + 1])
             for index in range(count)]
    run.ready()
    if args.setup_only:
        return

    p.colocation.schedule_by_camp(machine, warmup, DEVICE, calibration)
    run.bench(gc.collect)
    latencies, outcomes = [], []
    started = time.perf_counter()
    for pair in nodes:
        start = time.perf_counter()
        outcomes.append(p.colocation.schedule_by_camp(
            machine, pair, DEVICE, calibration))
        latencies.append(time.perf_counter() - start)
    window = time.perf_counter() - started
    run.end_of_ops()

    from checks import check_fixed_point
    failed = sum(run.fail(check_fixed_point(machine, outcome))
                 for outcome in outcomes)
    run.record.update(ops=len(outcomes), failed=failed,
                      latencies_s=latencies, window_s=window)


WORKLOADS = {"suite": run_suite, "colocation": run_colocation}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    run = Run(args)
    WORKLOADS[args.workload](run, args.tmp)
    with open(args.out, "w") as handle:
        json.dump(run.record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
