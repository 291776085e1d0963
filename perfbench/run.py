"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (the directory holding ``src/repro``).
Every run starts the program in fresh interpreters with a fresh
temporary store under ``.perfbench-tmp/``, runs a seeded op list sized
from ``--seconds`` (never "as many ops as fit"), checks the outputs
outside the timed window, and prints each metric with its unit.  The
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` - the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The exit code is 0 only
when every output check passed.

Workloads (``perfbench/README.md`` has the full definitions):

- ``suite``: the 265-workload population x 3 placements x 3 platforms
  through ``Executor.run``, cold on an empty store then warm on a new
  store instance over the same directory, with CAMP predictions and
  per-platform accuracy;
- ``colocation``: seeded two-job nodes placed by ``schedule_by_camp``;
- ``serve``: ``repro serve`` driven open-loop at 10 requests/s over two
  keep-alive connections.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import spans  # noqa: E402

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "max_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}

#: Per-layer metrics of the traced run and their units, in report order.
PER_LAYER = {
    "uarch.busy_s": "s",
    "uarch.calls": "count",
    "uarch.lanes": "count",
    "uarch.lanes_per_call": "lanes/call",
    "uarch.outer_iterations": "count",
    "uarch.joint_iterations": "count",
    "uarch.us_per_lane_iteration": "us",
    "uarch.nonconverged": "count",
    "uarch.replay_resolves": "count",
    "uarch.useful_ratio": "ratio",
    "uarch.warm_seed_ratio": "ratio",
    "runtime.executor_s": "s",
    "runtime.fingerprints": "count",
    "runtime.fingerprint_s": "s",
    "runtime.store_reads": "count",
    "runtime.store_get_s": "s",
    "runtime.store_writes": "count",
    "runtime.store_put_s": "s",
    "runtime.store_hit_ratio": "ratio",
    "runtime.serde_s": "s",
    "core.calibrate_s": "s",
    "core.predictions": "count",
    "core.predict_s": "s",
    "policies.decisions": "count",
    "policies.self_s": "s",
    "analysis.summary_s": "s",
    "workloads.generate_s": "s",
    "repro.import_s": "s",
    "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms",
    "serve.client_wait_ms": "ms",
    "serve.loop_busy_s": "s",
    "serve.lanes_per_batch": "lanes/batch",
    "serve.memo_hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.deadline_expired": "count",
    "serve.errors": "count",
    "serve.generator_late_ms": "ms",
    "serve.self_s": "s",
    "serve.idle_s": "s",
    "bench.self_s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
}
PER_LAYER.update({f"trace.overhead_{name}": unit
                  for name, unit in END_TO_END.items()})

#: Fresh interpreters whose set-up time is measured per run; the
#: median is ``setup_s``.
SETUP_SAMPLES = 3
#: Serve load: requests per second, and connections to send them on.
SERVE_RATE_RPS = 10.0
SERVE_CONNECTIONS = 2
SERVE_PLATFORM = "skx2s"
#: A tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Seconds any one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


# -- helpers -----------------------------------------------------------------

def host_ref_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python kernel: a host-speed gauge."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0.0
        for step in range(200_000):
            total += (step % 7) * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` with :data:`TAIL_BEYOND` samples above.

    Runs too short to have that many fall back to the maximum.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def tail_report(seconds: List[float], of: str) -> Dict[str, Any]:
    """The tail diagnostic: value, which percentile, and of what.

    Printed and recorded with every run but not bounded: on a shared
    2-vCPU host its ten-seed spread reached 0.28-0.32 of its median,
    beyond the largest bound a regression check may use (0.25).
    """
    value, percentile = tail(seconds)
    return {"ms": value * 1000.0, "percentile": percentile,
            "samples": len(seconds), "of": of}


def child_env(root: str, tmp: str) -> Dict[str, str]:
    """A fixed environment: no caches from earlier runs, one thread."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONUNBUFFERED": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "REPRO_CACHE_DIR": os.path.join(tmp, "repro-cache"),
        "TMPDIR": tmp,
    })
    return env


def fresh_dir(tmp: str, name: str) -> str:
    return tempfile.mkdtemp(prefix=name + "-", dir=tmp)


# -- suite and colocation: one child interpreter per measurement -------------

def spawn_child(args: argparse.Namespace, root: str, tmp: str, *,
                setup_only: bool = False,
                trace: Optional[str] = None) -> Dict[str, Any]:
    workdir = fresh_dir(tmp, "child")
    out = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--tmp", workdir,
               "--out", out]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += ["--trace", trace]
    with open(os.path.join(workdir, "stderr.txt"), "w+") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(command + ["--spawned-at", repr(spawned)],
                                cwd=root, env=child_env(root, workdir),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{args.workload} child timed out")
        if code != 0:
            stderr.seek(0)
            raise BenchError(f"{args.workload} child exited {code}:\n"
                             + stderr.read()[-4000:])
    with open(out) as handle:
        return json.load(handle)


def measure_child(args, root, tmp, setups: int, trace: Optional[str] = None):
    """Set-up samples plus one measured run; returns (metrics, info)."""
    setup_s = [spawn_child(args, root, tmp, setup_only=True)["setup_s"]
               for _ in range(setups - 1)]
    record = spawn_child(args, root, tmp, trace=trace)
    setup_s.append(record["setup_s"])
    metrics = {"setup_s": statistics.median(setup_s),
               "max_rss_mb": record["max_rss_mb"]}
    if args.workload == "suite":
        # Totals over every pass: within a run a pass's time swings by
        # up to 1.7x with the host, and of the best, the median and
        # the mean pass, the mean moved least between runs.
        cold, warm = record["cold_s"], record["warm_s"]
        metrics.update(
            throughput_per_s=record["specs_per_pass"] * len(cold) / sum(cold),
            latency_ms=statistics.mean(warm) * 1000.0)
        detail = {"passes": record["passes"],
                  "specs_per_pass": record["specs_per_pass"],
                  "tail": tail_report(cold, "cold passes"),
                  "reference_checked": record["reference_checked"],
                  "pearson": record["pearson"], "digest": record["digest"]}
    else:
        latencies = record["latencies_s"]
        metrics.update(
            throughput_per_s=len(latencies) / record["window_s"],
            latency_ms=statistics.median(latencies) * 1000.0)
        detail = {"nodes": len(latencies),
                  "tail": tail_report(latencies, "nodes")}
    info = {"attempted": record["ops"], "failed": record["failed"],
            "failures": record["failures"], "setup_samples": setup_s,
            **detail}
    return metrics, info


# -- serve: a server process driven by this one ------------------------------

def start_server(root: str, tmp: str, trace: Optional[str] = None):
    """Start ``repro serve`` fresh; returns (process, port, setup_s)."""
    workdir = fresh_dir(tmp, "server")
    command = [sys.executable, os.path.join(HERE, "serve_boot.py")]
    if trace:
        command += ["--trace", trace]
    command += ["--", "--port", "0", "--platform", SERVE_PLATFORM,
                "--cache-dir", os.path.join(workdir, "cache")]
    stderr = open(os.path.join(workdir, "stderr.txt"), "w")
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=root, env=child_env(root, workdir),
                            stdout=subprocess.PIPE, stderr=stderr)
    stderr.close()
    try:
        port = _listening_port(proc)
        _wait_healthy(port)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.monotonic() - spawned


def _listening_port(proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if not ready:
            continue
        line = proc.stdout.readline().decode()
        if not line:
            raise BenchError(f"server exited {proc.wait()} before listening")
        if "listening on http://" in line:
            address = line.split("http://", 1)[1].split()[0]
            return int(address.rsplit(":", 1)[1])
    raise BenchError("server did not start listening")


def _wait_healthy(port: int) -> None:
    import http.client
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                return
        except OSError:
            time.sleep(0.01)
        finally:
            connection.close()
    raise BenchError("server never answered /healthz")


def stop_server(proc: subprocess.Popen) -> None:
    """Drain the server with SIGTERM and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"server exited {proc.returncode}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``, all its threads."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def serve_requests(args) -> List[loadgen.Request]:
    from repro.workloads.suites import named_workloads
    count = max(1, round(SERVE_RATE_RPS * args.seconds))
    return loadgen.schedule(sorted(named_workloads()), args.seed,
                            SERVE_RATE_RPS, count)


def measure_serve(args, root, tmp, setups: int, trace: Optional[str] = None):
    sys.path.insert(0, os.path.join(root, "src"))
    requests = serve_requests(args)
    setup_s = []
    for _ in range(setups - 1):
        proc, _, seconds = start_server(root, tmp)
        setup_s.append(seconds)
        stop_server(proc)

    async def load(pid: int, port: int):
        # One untimed warm-up: a DRAM-only query, never in the schedule.
        warmup = loadgen.Connection("127.0.0.1", port)
        await warmup.request("POST", "/v1/predict", {
            "kind": "query", "workload": requests[0].body["workload"]})
        await warmup.close()
        gc.collect()
        cpu_before = cpu_seconds(pid)
        outcomes, t0 = await loadgen.drive("127.0.0.1", port, requests,
                                           SERVE_CONNECTIONS)
        cpu_s, rss = cpu_seconds(pid) - cpu_before, peak_rss_mb(pid)
        stats = await loadgen.get_json("127.0.0.1", port, "/stats")
        return outcomes, t0, stats["stats"], cpu_s, rss

    proc, port, seconds = start_server(root, tmp, trace)
    setup_s.append(seconds)
    try:
        outcomes, t0, stats, cpu_s, rss = asyncio.run(load(proc.pid, port))
    finally:
        stop_server(proc)

    latencies = [outcome.done_at - request.due_s - t0
                 if outcome.kind == "ok" else math.inf
                 for request, outcome in zip(requests, outcomes)]
    ok = sum(1 for outcome in outcomes if outcome.kind == "ok")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "max_rss_mb": rss,
        # The load is offered at a fixed rate, so answers per wall
        # second would only echo it; the server's CPU shows its cost.
        "throughput_per_s": ok / cpu_s,
        "latency_ms": statistics.median(latencies) * 1000.0,
    }
    failures = [f"request {request.index}: {outcome.kind} "
                f"{outcome.answer.get('error', '')}".rstrip()
                for request, outcome in zip(requests, outcomes)
                if outcome.kind != "ok"]
    failures += _check_serve(requests, outcomes)
    counts = {kind: sum(1 for o in outcomes if o.kind == kind)
              for kind in ("ok", "shed", "deadline", "error", "transport")}
    info = {"attempted": len(requests),
            "failed": min(len(requests), len(failures)),
            "failures": failures, "setup_samples": setup_s,
            "requests": len(requests), "server_cpu_s": cpu_s,
            "answers_per_wall_s": ok / (max(o.done_at for o in outcomes) - t0),
            "tail": tail_report(latencies, "requests"),
            "outcomes": {"sent": len(outcomes), **counts},
            "generator_late_max_ms": max(o.late_s for o in outcomes) * 1e3,
            "repeats": sum(1 for r in requests if r.repeats is not None),
            "server": _serve_layer(stats, metrics, outcomes)}
    return metrics, info


def _check_serve(requests, outcomes) -> List[str]:
    import checks
    from repro.runtime.spec import RunSpec
    from repro.uarch.config import get_platform
    from repro.uarch.interleave import Placement
    from repro.uarch.machine import ACCELERATED_RELATIVE_TOLERANCE, Machine
    from repro.workloads.suites import get_workload

    machine = Machine(get_platform(SERVE_PLATFORM))
    answers = {request.index: outcome.answer
               for request, outcome in zip(requests, outcomes)
               if outcome.kind == "ok"}
    fresh = [request for request in requests
             if request.repeats is None and request.index in answers]
    specs = [RunSpec.from_machine(machine,
                                  get_workload(request.body["workload"]),
                                  Placement(**request.body["placement"]))
             for request in fresh]
    failures = checks.check_serve_answers(
        [answers[request.index] for request in fresh], specs,
        ACCELERATED_RELATIVE_TOLERANCE)
    failures += checks.check_repeats(answers, {
        request.index: request.repeats for request in requests
        if request.repeats is not None})
    return failures


def _serve_layer(stats, metrics, outcomes) -> Dict[str, float]:
    """The serve-layer metrics the server's ``/stats`` and the client give."""
    latency = stats["latency_ms"]
    return {
        "serve.server_p50_ms": latency["p50"],
        "serve.server_p99_ms": latency["p99"],
        "serve.client_wait_ms": metrics["latency_ms"] - latency["p50"],
        "serve.lanes_per_batch": (stats["lanes_solved"] /
                                  max(1, stats["batches_solved"])),
        "serve.memo_hit_ratio": (stats["memo_hits"] /
                                 max(1, stats["admitted"])),
        "serve.shed": float(stats["shed"]),
        "serve.deadline_expired": float(stats["deadline_expired"]),
        "serve.errors": float(stats["errors"]),
        "serve.generator_late_ms": statistics.mean(
            o.late_s for o in outcomes) * 1000.0,
    }


MEASURE = {"suite": measure_child, "colocation": measure_child,
           "serve": measure_serve}


# -- the command --------------------------------------------------------------

def run(args: argparse.Namespace, root: str, tmp: str
        ) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, Any]]:
    """Measure one workload; returns (metrics, units, info)."""
    measure = MEASURE[args.workload]
    if not args.trace:
        metrics, info = measure(args, root, tmp, SETUP_SAMPLES)
        return metrics, END_TO_END, info
    untraced, _ = measure(args, root, tmp, 1)
    trace_file = os.path.join(tmp, "spans.json")
    traced, info = measure(args, root, tmp, 1, trace=trace_file)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(spans.layer_metrics(*spans.load(trace_file)))
    layers.update(info.pop("server", {}))
    for name in END_TO_END:
        layers[f"trace.overhead_{name}"] = traced[name] - untraced[name]
    info["untraced"], info["traced"] = untraced, traced
    return layers, PER_LAYER, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=sorted(MEASURE),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the seeded op list (about this long)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        before = host_ref_ms()
        metrics, units, info = run(args, root, tmp)
        after = host_ref_ms()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = int(info.pop("attempted")), int(info.pop("failed"))
    failures = info.pop("failures")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    print(f"host_ref_ms before {before:.3f}  after {after:.3f}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = failed == 0 and not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
