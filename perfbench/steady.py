"""Steadiness runs: each workload on several seeds, with its spreads.

    python3 perfbench/steady.py --runs 10 [--workloads suite serve] \\
        [--seconds 20] [--first-seed 1] [--out perfbench/record.json] \\
        [--fresh]

Run from the checkout root.  ``--runs 1`` runs every workload once and
stops at the first run whose output checks fail.  For every end-to-end
metric it prints the median and the spread - the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median - and flags a spread above a third of the metric's
bound in ``BENCHMARK.json``.  With ``--out`` it adds the runs as one more
set to the record file (``--fresh`` drops the workload's earlier sets):
per workload its why-sentence, op-list size, which percentile the
printed tail is, and per set every run's values; from the second set on
it prints how far each median moved from the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stdout}\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        if key in ("passes", "nodes", "requests", "tail", "server_cpu_s"):
            info[key] = json.loads(value)
        elif key == "host_ref_ms":
            words = value.split()
            info["host_ref_ms"] = [float(words[1]), float(words[3])]
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            **info}


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--fresh", action="store_true",
                        help="replace the workload's sets in --out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {metric["name"]: metric["bound"]
              for metric in bench["end_to_end"]}
    better = {metric["name"]: metric["better"]
              for metric in bench["end_to_end"]}
    units = {metric["name"]: metric["unit"]
             for metric in bench["end_to_end"]}
    whys = {workload["name"]: workload["why"]
            for workload in bench["workloads"]}
    record: Dict[str, Any] = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as handle:
            record = json.load(handle)

    for workload in args.workloads or list(whys):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {value:.5g} {units[name]}"
                for name, value in runs[-1]["metrics"].items()),
                flush=True)
        spreads = {}
        for name in bounds:
            values = [run["metrics"][name] for run in runs]
            spreads[name] = spread(values) if len(values) > 1 else 0.0
            flag = ("" if name == "setup_s" or
                    spreads[name] < bounds[name] / 3 else "  <-- wide")
            print(f"  {workload} {name}: median "
                  f"{statistics.median(values):.5g} spread "
                  f"{spreads[name]:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
        first = runs[0]
        tails = [run["tail"]["ms"] for run in runs]
        print(f"  {workload} tail (unbounded): median "
              f"{statistics.median(tails):.5g} ms spread "
              f"{spread(tails) if len(tails) > 1 else 0.0:.4f}", flush=True)
        entry = record.get(workload, {})
        sets = [] if args.fresh else entry.get("sets", [])
        sets.append({
            "first_seed": args.first_seed,
            "run_seconds": seconds,
            "spread": spreads,
            "median": {name: statistics.median(
                run["metrics"][name] for run in runs) for name in bounds},
            "runs": runs,
        })
        for later in sets[1:]:
            for name in bounds:
                worse = later["median"][name] / sets[0]["median"][name] - 1
                if better[name] == "higher":
                    worse = -worse
                print(f"  {workload} {name}: median worse than the first "
                      f"set's by {worse:+.4f} (bound {bounds[name]})",
                      flush=True)
        record[workload] = {
            "why": whys[workload],
            "op_list": {key: first[key] for key in
                        ("passes", "nodes", "requests")
                        if key in first},
            "tail": {"of": first["tail"]["of"],
                     "percentile": first["tail"]["percentile"],
                     "samples": first["tail"]["samples"],
                     "median_ms": statistics.median(tails),
                     "spread": spread(tails) if len(tails) > 1 else 0.0},
            "sets": sets,
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
