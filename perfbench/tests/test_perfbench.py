"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

They run from any directory; the benchmark is started from the
repository root, as ``BENCHMARK.json`` says it must be.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc, proc.stdout.strip().splitlines()


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


# -- the record and the contract --------------------------------------------

def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.MEASURE)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_declared_metrics_match_the_command():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


def test_record_covers_every_workload_and_meets_the_bounds():
    with open(os.path.join(BENCH_DIR, "record.json")) as handle:
        record = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    for workload in BENCHMARK["workloads"]:
        entry = record[workload["name"]]
        assert entry["why"] == workload["why"]
        assert entry["op_list"] and entry["tail"]["percentile"] > 0
        sets = entry["sets"]
        assert len(sets) >= 2
        for one in sets:
            assert one["run_seconds"] == BENCHMARK["run_seconds"]
            assert len(one["runs"]) >= 10
            assert set(one["spread"]) == set(bounds)
            for name, bound in bounds.items():
                if name != "setup_s":
                    assert one["spread"][name] <= bound, (workload, name)
                shift = one["median"][name] / sets[0]["median"][name] - 1
                worse = -shift if better[name] == "higher" else shift
                assert worse <= bound, (workload, name)


# -- tiny runs ----------------------------------------------------------------

def _info(lines):
    """The ``key <json>`` lines a run prints before its metrics."""
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        try:
            info[key] = json.loads(value)
        except ValueError:
            pass
    return info


@pytest.mark.parametrize("workload", sorted(run.MEASURE))
def test_tiny_run_completes_and_prints_declared_metrics(workload):
    # The default seed: the suite run must also match reference.json.
    proc, lines = _bench("--workload", workload, "--seed",
                         str(child.REFERENCE_SEED), "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    if workload == "suite":
        assert _info(lines)["reference_checked"] is True
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


@pytest.mark.parametrize("workload", sorted(run.MEASURE))
def test_traced_run_partitions_its_wall_time(workload):
    proc, lines = _bench("--workload", workload, "--seed", "5",
                         "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {name: entry["value"]
               for name, entry in json.loads(lines[-1])["metrics"].items()}
    assert set(metrics) == set(_declared("per_layer"))
    parts = sum(metrics[key] for key in spans.SELF_TIME_KEYS)
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert 0 <= metrics["other.self_s"] < 0.1 * metrics["trace.wall_s"]
    assert metrics["uarch.calls"] > 0 and metrics["repro.import_s"] > 0
    if workload == "suite":
        assert metrics["runtime.fingerprints"] > 0
        assert metrics["runtime.store_writes"] > 0
        assert metrics["runtime.store_reads"] > 0
        assert metrics["runtime.serde_s"] > 0
        assert metrics["analysis.summary_s"] > 0
    elif workload == "colocation":
        # The untimed warm-up node is traced too.
        assert metrics["policies.decisions"] == child.colocation_nodes(1) + 1
        assert metrics["uarch.joint_iterations"] > 0
    else:
        assert metrics["serve.self_s"] > 0 and metrics["serve.idle_s"] > 0
        assert metrics["serve.loop_busy_s"] > 0
        assert metrics["serve.lanes_per_batch"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the span partition -------------------------------------------------------

def test_partition_splits_concurrent_work_and_idles_passively():
    spans_ = [
        (1, 0, 1, "serve.self_s", 0.0, 4.0, None),
        (2, 1, 1, "runtime.serde_s", 1.0, 2.0, None),
        (3, 0, 2, "uarch.busy_s", 3.0, 6.0, None),
        (4, 0, 1, "serve.idle_s", 5.0, 8.0, None),
    ]
    shares = spans.partition(spans_, 0.0, 10.0)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["runtime.serde_s"] == pytest.approx(1.0)
    # 0-1 and 2-3 alone, 3-4 shared with the solver thread.
    assert shares["serve.self_s"] == pytest.approx(2.5)
    # 3-4 shared, 4-6 alone: waiting on the loop never takes solver time.
    assert shares["uarch.busy_s"] == pytest.approx(2.5)
    assert shares["serve.idle_s"] == pytest.approx(2.0)
    assert shares["other.self_s"] == pytest.approx(2.0)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, percentile = run.tail(values)
    assert value == 89.0 and percentile == 90.0
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


# -- each output check fails on a corrupted result ---------------------------

@pytest.fixture(scope="module")
def program():
    from repro.runtime import serde
    from repro.runtime.spec import RunSpec
    from repro.uarch.config import get_platform
    from repro.uarch.interleave import Placement
    from repro.uarch.machine import Machine
    from repro.workloads.suites import get_workload
    return types.SimpleNamespace(
        serde=serde, RunSpec=RunSpec, Placement=Placement, Machine=Machine,
        machine=Machine(get_platform("skx2s")), get_workload=get_workload)


def _specs(p):
    return [p.RunSpec.from_machine(p.machine, p.get_workload(name),
                                   placement)
            for name in ("605.mcf", "xsbench")
            for placement in (p.Placement.dram_only(),
                              p.Placement.interleaved(0.5, "cxl-a"))]


def _bump(result, factor=1.0 + 1e-6):
    return dataclasses.replace(result, runtime_s=result.runtime_s * factor)


def test_suite_checks_catch_a_corrupted_lane(program):
    p = program
    specs = _specs(p)
    results = p.Machine.run_batch_multi(specs)
    assert checks.check_lanes_match_scalar(specs, results, 0, 4) == []
    corrupted = list(results)
    corrupted[2] = _bump(corrupted[2], 1.0 + 1e-15)
    assert checks.check_lanes_match_scalar(specs, corrupted, 0, 4)
    assert checks.result_digest(corrupted) != checks.result_digest(results)


def test_reference_check_catches_wrong_digest_and_pearson():
    with open(os.path.join(BENCH_DIR, "reference.json")) as handle:
        reference = json.load(handle)
    assert checks.check_reference(reference["digest"], reference["pearson"],
                                  reference) == []
    assert checks.check_reference("0" * 64, reference["pearson"], reference)
    pearsons = dict(reference["pearson"], skx2s=0.5)
    assert checks.check_reference(reference["digest"], pearsons, reference)


def test_fixed_point_check_catches_a_corrupted_partner(program):
    from repro.core.calibration import calibrate
    from repro.policies.colocation import schedule_by_camp
    p = program
    pair = (p.get_workload("605.mcf"), p.get_workload("xsbench"))
    outcome = schedule_by_camp(p.machine, pair, "cxl-a",
                               calibrate(p.machine, "cxl-a"))
    assert checks.check_fixed_point(p.machine, outcome) == []
    fast, slow = outcome.results
    corrupted = dataclasses.replace(outcome, results=(
        fast, dataclasses.replace(slow, dram_gbps=slow.dram_gbps * 2 + 1)))
    assert checks.check_fixed_point(p.machine, corrupted)


def test_serve_checks_catch_a_corrupted_answer(program):
    p = program
    specs = _specs(p)
    solved = p.Machine.run_batch_multi(specs, accelerate=True)
    answers = [{"fingerprint": spec.fingerprint(),
                "result": p.serde.run_result_to_dict(result)}
               for spec, result in zip(specs, solved)]
    assert checks.check_serve_answers(answers, specs, 1e-7) == []
    bad = [dict(answer) for answer in answers]
    bad[1] = {"fingerprint": answers[1]["fingerprint"],
              "result": p.serde.run_result_to_dict(_bump(solved[1]))}
    assert checks.check_serve_answers(bad, specs, 1e-7)
    bad[1] = dict(answers[1], fingerprint=answers[0]["fingerprint"])
    assert checks.check_serve_answers(bad, specs, 1e-7)
    assert checks.check_repeats({0: answers[0], 5: answers[0]}, {5: 0}) == []
    assert checks.check_repeats({0: answers[0], 5: answers[1]}, {5: 0})
