"""The observability layer: tracer, exporters, report, trace CLI, bench.

The contract under test (docs/OBSERVABILITY.md):

- spans nest, re-enter, and partition wall-clock time - the sum of
  self-times can never exceed what a stopwatch around the run measures;
- `python -m repro trace <cmd>` leaves the inner command's stdout
  byte-identical and writes a loadable Chrome trace-event JSON file
  with genuinely nested spans;
- `python -m repro bench` emits a schema-versioned payload whose
  identity fields are deterministic and which carries no wall-clock
  timestamps.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.obs import (TRACE_SCHEMA, Tracer, active_tracer,
                       chrome_trace_dict, maybe_span,
                       render_report, trace_session, write_chrome_trace,
                       write_jsonl)
from repro.runtime.telemetry import Telemetry


class TestTracerNesting:
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.02)
        outer = tracer.stats["outer"]
        inner = tracer.stats["inner"]
        assert inner.self_s == pytest.approx(inner.cumulative_s)
        assert outer.self_s < outer.cumulative_s
        assert outer.cumulative_s >= inner.cumulative_s

    def test_self_times_partition_wall_clock(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    time.sleep(0.01)
            with tracer.span("b"):
                pass
        assert tracer.total_self_s() <= tracer.elapsed_s()

    def test_reentrant_name_counts_cumulative_once(self):
        tracer = Tracer()
        with tracer.span("work"):
            time.sleep(0.01)
            with tracer.span("work"):
                time.sleep(0.01)
        stats = tracer.stats["work"]
        assert stats.count == 2
        # Cumulative is charged only to the outermost instance: the
        # name was "open" for the outer elapsed, not the sum of both.
        assert stats.cumulative_s < 2 * 0.02
        assert stats.self_s <= stats.cumulative_s + 1e-9

    def test_parent_links_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {record.name: record for record in tracer.events}
        assert by_name["outer"].parent_id is None
        assert by_name["outer"].depth == 0
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].depth == 1

    def test_annotate_lands_in_the_record(self):
        tracer = Tracer()
        with tracer.span("s", layer="store") as span:
            span.annotate(hit=True)
        record = tracer.events[0]
        assert record.attrs == {"layer": "store", "hit": True}

    def test_event_cap_keeps_aggregating(self):
        tracer = Tracer(max_events=3)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert tracer.stats["s"].count == 5

    def test_merge_folds_stats_only(self):
        ours, theirs = Tracer(), Tracer()
        with ours.span("a"):
            pass
        with theirs.span("a"):
            pass
        with theirs.span("b"):
            pass
        ours.merge(theirs)
        assert ours.stats["a"].count == 2
        assert ours.stats["b"].count == 1
        assert len(ours.events) == 1   # events never migrate

    def test_merge_with_self_is_a_no_op(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.merge(tracer)
        assert tracer.stats["a"].count == 1


class TestTraceSession:
    def test_maybe_span_is_a_no_op_without_session(self):
        assert active_tracer() is None
        with maybe_span("anything", key="value") as span:
            assert span is None

    def test_maybe_span_records_inside_a_session(self):
        tracer = Tracer()
        with trace_session(tracer):
            assert active_tracer() is tracer
            with maybe_span("traced", key="value") as span:
                assert span is not None
        assert active_tracer() is None
        assert tracer.stats["traced"].count == 1

    def test_sessions_restore_the_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with trace_session(outer):
            with trace_session(inner):
                assert active_tracer() is inner
            assert active_tracer() is outer

    def test_telemetry_attaches_to_the_active_session(self):
        tracer = Tracer()
        with trace_session(tracer):
            telemetry = Telemetry()
            with telemetry.stage("stage"):
                pass
        assert telemetry.tracer is tracer
        assert tracer.stats["stage"].count == 1


class TestExporters:
    def traced(self):
        tracer = Tracer()
        with tracer.span("outer", label="x"):
            with tracer.span("inner"):
                pass
        return tracer

    def test_chrome_trace_shape(self):
        trace = chrome_trace_dict(self.traced())
        events = trace["traceEvents"]
        assert trace["otherData"]["schema"] == TRACE_SCHEMA
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}
        for event in spans:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
        inner = next(e for e in spans if e["name"] == "inner")
        outer = next(e for e in spans if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_chrome_trace_file_round_trips(self, tmp_path):
        path = write_chrome_trace(self.traced(), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_jsonl_header_then_one_line_per_span(self, tmp_path):
        tracer = self.traced()
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0] == {"schema": TRACE_SCHEMA, "spans": 2,
                            "dropped_spans": 0}
        assert [line["name"] for line in lines[1:]] == \
            [record.name for record in tracer.events]

    def test_exotic_attrs_become_strings(self):
        tracer = Tracer()
        with tracer.span("s", weird=object()):
            pass
        args = chrome_trace_dict(tracer)["traceEvents"][-1]["args"]
        assert isinstance(args["weird"], str)
        json.dumps(args)   # must be serializable

    def test_report_total_is_self_time(self):
        tracer = self.traced()
        report = render_report(tracer, {"hits": 3})
        assert "total (self)" in report
        assert "counters:" in report
        assert "hits" in report


class TestTelemetryAccounting:
    def test_rendered_total_never_exceeds_wall_clock(self):
        # Regression: the flat stage counters summed nested stages
        # (persist inside simulate inside run) so the rendered total
        # exceeded the measured wall-clock.
        telemetry = Telemetry()
        start_s = time.perf_counter()
        with telemetry.stage("run"):
            with telemetry.stage("simulate"):
                with telemetry.stage("persist"):
                    time.sleep(0.02)
            with telemetry.stage("decode"):
                time.sleep(0.01)
        elapsed_s = time.perf_counter() - start_s
        assert telemetry.tracer.total_self_s() <= elapsed_s
        report = telemetry.render()
        total_line = next(line for line in report.splitlines()
                          if "total (self)" in line)
        total_s = float(total_line.split()[-1].rstrip("s"))
        assert total_s <= elapsed_s + 1e-3

    def test_stage_seconds_compatibility_view(self):
        telemetry = Telemetry()
        with telemetry.stage("outer"):
            with telemetry.stage("inner"):
                pass
        assert set(telemetry.stage_seconds) == {"outer", "inner"}

    def test_merge_folds_counters_and_spans(self):
        ours, theirs = Telemetry(), Telemetry()
        theirs.count("hits", 2)
        with theirs.stage("stage"):
            pass
        ours.merge(theirs)
        assert ours.counters["hits"] == 2
        assert ours.tracer.stats["stage"].count == 1


class TestTraceCli:
    def suite_argv(self, cache):
        return ["suite", "--workloads", "2", "--device", "numa",
                "--cache-dir", str(cache)]

    def test_stdout_byte_identical_and_trace_valid(self, capsys,
                                                   tmp_path):
        assert main(self.suite_argv(tmp_path / "untraced")) == 0
        untraced = capsys.readouterr().out

        # A cold cache for the traced run, so simulation spans
        # (machine.run) actually fire; stdout is cache-state-invariant.
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        argv = ["trace", *self.suite_argv(tmp_path / "traced"),
                "--trace-out", str(out), "--jsonl-out", str(jsonl)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == untraced
        assert "trace:" in captured.err

        trace = json.loads(out.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "cli.suite" in names
        assert "executor.run" in names
        assert "machine.run" in names
        assert "store.get" in names or "store.put" in names
        # Genuinely nested: something has a parent.
        assert any(e["args"]["parent_id"] is not None for e in spans)
        header = json.loads(jsonl.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["spans"] == len(spans)

    def test_out_flag_may_trail_inner_arguments(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        argv = ["trace", "workloads", "--trace-out=" + str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["traceEvents"]

    def test_no_inner_command_is_a_usage_error(self, capsys, tmp_path):
        assert main(["trace", "--trace-out",
                     str(tmp_path / "t.json")]) == 2
        assert "usage" in capsys.readouterr().err

    def test_nested_trace_rejected(self, capsys, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["trace", "trace", "workloads",
                     "--trace-out", out]) == 2
        assert "nest" in capsys.readouterr().err

    def test_missing_output_flag_rejected(self, capsys):
        assert main(["trace", "workloads"]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_untraced_runs_stay_untraced(self, capsys):
        # No lingering session after a trace command finishes.
        assert active_tracer() is None


def fake_bench_payload(**medians):
    return {"benches": [
        {"name": name, "median_s": median}
        for name, median in medians.items()]}


@pytest.fixture(scope="module")
def bench_cli(tmp_path_factory):
    """The one full ``repro bench`` run every bench test shares.

    It runs through the CLI with ``--out`` and with ``--compare``
    against an absurdly fast baseline, so every case is a regression;
    ``run_bench``'s own return value is recorded alongside.
    """
    from repro.obs import bench
    root = tmp_path_factory.mktemp("bench")
    out = root / "BENCH_runtime.json"
    baseline = root / "baseline.json"
    baseline.write_text(json.dumps(fake_bench_payload(
        machine_simulate=1e-9)))
    returned = []
    real_run_bench = bench.run_bench

    def recording_run_bench(**kwargs):
        returned.append(real_run_bench(**kwargs))
        return returned[-1]

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        patch.setattr(bench, "run_bench", recording_run_bench)
        code = main(["bench", "--repeats", "1", "--out", str(out),
                     "--compare", str(baseline)])
    return SimpleNamespace(code=code, out=out, result=returned[0],
                           stdout=stdout.getvalue(),
                           stderr=stderr.getvalue())


class TestBench:
    @pytest.fixture()
    def payload(self, bench_cli):
        return bench_cli.result, bench_cli.out

    def test_schema_and_cases(self, payload):
        result, _ = payload
        from repro.obs.bench import BENCH_SCHEMA, BENCH_SEED
        assert result["schema"] == BENCH_SCHEMA
        assert result["seed"] == BENCH_SEED
        assert [case["name"] for case in result["benches"]] == [
            "machine_simulate", "store_roundtrip", "executor_cold",
            "executor_warm", "suite_slice", "solver_sweep_loop",
            "solver_sweep_batch",
            "solver_suite_loop", "solver_suite_batch",
            "suite_groups", "suite_onebatch", "suite_accel",
            "lint_cold", "lint_warm", "fleet_pairwise_loop",
            "fleet_shard", "fleet_tournament"]
        for case in result["benches"]:
            assert case["repeats"] == 1
            assert 0 <= case["min_s"] <= case["median_s"] <= case["max_s"]

    def test_solver_section(self, payload):
        result, _ = payload
        solver = result["solver"]
        assert solver["sweep_points"] >= 2
        assert solver["suite_workloads"] >= 1
        assert solver["nonconverged"] == 0
        # The batched solves must actually win; the committed baseline
        # (BENCH_runtime.json) pins the headline >=5x / >=3x targets.
        assert solver["sweep_speedup"] > 1.0
        assert solver["suite_speedup"] > 1.0

    def test_population_section(self, payload):
        result, _ = payload
        population = result["population"]
        assert population["lanes"] % population["groups"] == 0
        assert population["groups"] == 9   # 3 platforms x 3 seeds
        # The merged cross-machine batch must beat the per-group path
        # and stay byte-identical to it in replay mode; the committed
        # baseline pins the headline >=5x target.
        assert population["onebatch_speedup"] > 1.0
        assert population["onebatch_replay_identical"] is True
        assert population["nonconverged"] == 0

    def test_lint_section(self, payload):
        result, _ = payload
        lint = result["lint"]
        assert lint["files"] > 50
        assert lint["rules"] == 11
        # The content-hash cache must make an unchanged tree cheap;
        # the committed baseline pins the >=2x acceptance target.
        assert lint["warm_speedup"] > 1.0

    def test_fleet_section(self, payload):
        result, _ = payload
        fleet = result["fleet"]
        assert fleet["shard_lanes"] == 2 * fleet["shard_nodes"]
        assert fleet["tournament_policies"] == 2
        # The pack-once grouped solver must beat the per-node loop;
        # the committed baseline tracks the actual margin.
        assert fleet["shard_speedup_per_node"] > 1.0

    def test_payload_has_no_wall_clock_timestamps(self, payload):
        result, out = payload
        text = out.read_text()
        assert json.loads(text) == result
        # DET01 discipline: no dates, no epochs - the only non-identity
        # fields are the measured *durations*.
        for needle in ("time", "date", "stamp", "epoch"):
            assert needle not in text.lower()

    def test_rejects_bad_repeats(self):
        from repro.obs.bench import run_bench
        with pytest.raises(ValueError):
            run_bench(repeats=0)

    def test_cli_writes_the_payload(self, bench_cli):
        assert bench_cli.code == 0
        assert "bench schema" in bench_cli.stdout
        assert "machine_simulate" in bench_cli.stdout
        assert json.loads(bench_cli.out.read_text())["benches"]

    def test_cli_rejects_zero_repeats(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--repeats", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestCompareBench:
    """Trajectory diffs: warn on slowdowns, never gate the bench."""

    def fake_payload(self, **medians):
        return fake_bench_payload(**medians)

    def test_self_compare_is_clean(self):
        from repro.obs.bench import compare_bench
        payload = self.fake_payload(machine_simulate=0.01,
                                    suite_slice=0.04)
        assert compare_bench(payload, payload) == []

    def test_flags_regressions_beyond_threshold(self):
        from repro.obs.bench import compare_bench
        old = self.fake_payload(machine_simulate=0.010,
                                suite_slice=0.040)
        new = self.fake_payload(machine_simulate=0.013,
                                suite_slice=0.041)
        warnings = compare_bench(old, new)
        assert len(warnings) == 1
        assert "machine_simulate" in warnings[0]
        assert "regression" in warnings[0]

    def test_speedups_are_not_regressions(self):
        from repro.obs.bench import compare_bench
        old = self.fake_payload(machine_simulate=0.010)
        new = self.fake_payload(machine_simulate=0.002)
        assert compare_bench(old, new) == []

    def test_new_and_removed_cases_are_noted(self):
        from repro.obs.bench import compare_bench
        old = self.fake_payload(machine_simulate=0.01, retired=0.02)
        new = self.fake_payload(machine_simulate=0.01, fresh=0.03)
        text = "\n".join(compare_bench(old, new))
        assert "fresh" in text
        assert "retired" in text

    def test_cli_compare_warns_but_exits_zero(self, bench_cli):
        # The shared run compared against an absurdly fast baseline,
        # which makes every case a regression; the exit code must
        # stay 0 regardless.
        assert bench_cli.code == 0
        err = bench_cli.stderr
        assert "bench compare: regression: machine_simulate" in err

    def test_cli_compare_missing_baseline_is_nonfatal(
            self, capsys, tmp_path, monkeypatch, bench_cli):
        from repro.obs import bench
        monkeypatch.setattr(bench, "run_bench",
                            lambda **kwargs: bench_cli.result)
        missing = tmp_path / "nope.json"
        assert main(["bench", "--repeats", "1",
                     "--compare", str(missing)]) == 0
        assert "cannot read" in capsys.readouterr().err
