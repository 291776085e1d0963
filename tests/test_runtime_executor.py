"""Parallel-vs-serial and cold-vs-warm equivalence of the runtime.

The headline guarantee (docs/RUNTIME.md): the four combinations of
{serial, parallel} x {cold cache, warm cache} produce *identical*
results — same cycles, same counter values, and byte-identical CLI
stdout — because every result passes through the same serde round trip
and batches reassemble in input order.
"""

import hashlib
import marshal

import pytest

from repro.cli import main
from repro.runtime import serde
from repro.runtime.executor import Executor, default_jobs
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.uarch import Machine, Placement, SKX2S
from repro.workloads import get_workload
from tests.test_golden_digest import GOLDEN_DIGEST, population_specs

WORKLOADS = ("605.mcf", "557.xz", "603.bwaves", "619.lbm", "gpt-2")


def specs_for(machine):
    specs = []
    for name in WORKLOADS:
        workload = get_workload(name)
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.dram_only()))
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.slow_only("cxl-a")))
    return specs


def snapshot(results):
    return [(r.cycles, r.counters.as_dict()) for r in results]


class TestEquivalence:
    def test_serial_parallel_cold_warm_all_identical(self, tmp_path):
        machine = Machine(SKX2S)
        specs = specs_for(machine)

        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        cold_serial = Executor(jobs=1, store=serial_store).run(specs)
        cold_parallel = Executor(jobs=2, store=parallel_store).run(specs)
        # Fresh executors so the in-process memo cannot mask the store.
        warm_serial = Executor(jobs=1, store=serial_store).run(specs)
        warm_parallel = Executor(jobs=2, store=parallel_store).run(specs)

        reference = snapshot(cold_serial)
        assert snapshot(cold_parallel) == reference
        assert snapshot(warm_serial) == reference
        assert snapshot(warm_parallel) == reference

    def test_results_in_input_order(self, tmp_path):
        machine = Machine(SKX2S)
        specs = specs_for(machine)
        results = Executor(jobs=2,
                           store=ResultStore(tmp_path / "c")).run(specs)
        for spec, result in zip(specs, results):
            assert result.workload.name == spec.workload.name
            assert result.placement == spec.placement

    def test_cache_does_not_change_uncached_answer(self, tmp_path):
        machine = Machine(SKX2S)
        spec = specs_for(machine)[0]
        direct = machine.run(spec.workload, spec.placement)
        cached = Executor(
            store=ResultStore(tmp_path / "c")).run_one(spec)
        assert cached.cycles == direct.cycles
        assert cached.counters.as_dict() == direct.counters.as_dict()


class TestCacheAccounting:
    def test_cold_all_misses_then_warm_all_hits(self, tmp_path):
        machine = Machine(SKX2S)
        specs = specs_for(machine)
        store = ResultStore(tmp_path / "c")

        cold = Executor(store=store)
        cold.run(specs)
        assert cold.miss_count == len(specs)
        assert cold.hit_count == 0

        warm = Executor(store=store)
        warm.run(specs)
        assert warm.miss_count == 0
        assert warm.hit_count == len(specs)

    def test_memo_absorbs_repeats_within_one_executor(self, tmp_path):
        machine = Machine(SKX2S)
        spec = specs_for(machine)[0]
        store = ResultStore(tmp_path / "c")
        executor = Executor(store=store)
        executor.run([spec, spec])
        executor.run([spec])
        # Simulated exactly once; the in-batch duplicate is an alias
        # (it never consulted a cache), the cross-batch repeat a real
        # memo hit.
        assert executor.miss_count == 1
        assert store.stats.writes == 1
        assert executor.telemetry.counters["alias_hits"] == 1
        assert executor.telemetry.counters["memo_hits"] == 1
        assert executor.alias_count == 1

    def test_aliases_not_counted_as_cache_hits(self, tmp_path):
        machine = Machine(SKX2S)
        spec = specs_for(machine)[0]
        executor = Executor(store=ResultStore(tmp_path / "c"))
        results = executor.run([spec, spec, spec])
        assert executor.hit_count == 0
        assert executor.alias_count == 2
        assert executor.miss_count == 1
        reference = snapshot(results[:1])[0]
        assert all(entry == reference for entry in snapshot(results))

    def test_no_store_still_memoizes(self):
        machine = Machine(SKX2S)
        spec = specs_for(machine)[0]
        executor = Executor()   # memo only
        first = executor.run_one(spec)
        second = executor.run_one(spec)
        assert executor.miss_count == 1
        assert first.cycles == second.cycles

    def test_calibration_cached_across_executors(self, tmp_path):
        machine = Machine(SKX2S)
        store = ResultStore(tmp_path / "c")
        first = Executor(store=store).calibration(machine, "numa")
        writes_after_first = store.stats.writes
        second = Executor(store=store).calibration(machine, "numa")
        assert store.stats.writes == writes_after_first
        assert first.describe() == second.describe()


class TestStoredPayloads:
    """A stored run payload holds the solved fields; the spec supplies
    the inputs, so cold and warm answers stay bit-identical."""

    def test_cold_and_warm_runs_reproduce_the_golden_digest(
            self, tmp_path):
        # Cold: solved and stored.  Warm: a new store on the same
        # directory serves every spec.
        for expected_hits in (0, 265 * 3 * 3):
            specs = population_specs()
            executor = Executor(jobs=1, store=ResultStore(tmp_path))
            results = executor.run(specs)
            assert executor.telemetry.counters.get("store_hits", 0) == \
                expected_hits
            digest = hashlib.sha256()
            for result in results:
                digest.update(marshal.dumps(
                    serde.run_result_to_dict(result), 4))
            assert digest.hexdigest() == GOLDEN_DIGEST
            assert all(result.workload is spec.workload and
                       result.placement is spec.placement and
                       result.platform is spec.platform
                       for result, spec in zip(results, specs))
        stored = ResultStore(tmp_path).get_many(
            [spec.fingerprint() for spec in specs])
        assert len(stored) == len(specs)
        for payload in stored.values():
            assert not {"workload", "placement", "platform"} & set(payload)


class TestFallbacks:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert default_jobs() >= 1

    def test_map_preserves_order(self):
        executor = Executor(jobs=2)
        assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_falls_back_on_unpicklable_fn(self):
        executor = Executor(jobs=2)
        doubled = executor.map(lambda x: 2 * x, [1, 2, 3])
        assert doubled == [2, 4, 6]
        assert executor.telemetry.counters.get("pool_fallbacks", 0) == 1

    def test_unwritable_store_degrades_to_memo_only(self, tmp_path):
        class ReadOnlyStore(ResultStore):
            def put(self, key, payload):
                raise OSError("read-only filesystem")

        machine = Machine(SKX2S)
        spec = specs_for(machine)[0]
        executor = Executor(store=ReadOnlyStore(tmp_path / "ro"))
        result = executor.run_one(spec)
        assert result.cycles == machine.run(spec.workload,
                                            spec.placement).cycles
        assert executor.telemetry.counters["store_errors"] == 1
        # The memo still serves repeats.
        executor.run_one(spec)
        assert executor.miss_count == 1


class TestMidStreamFallback:
    """A pool that dies mid-batch must not re-execute yielded tasks."""

    def _crash_after(self, executor, crash_after):
        import repro.runtime.executor as executor_mod
        from repro.runtime.errors import WorkerCrashError

        def crashing_pool(pending, workers, reporter):
            for index, spec in pending[:crash_after]:
                reporter.update(hits=executor.hit_count,
                                misses=executor.miss_count)
                # Resolved through the module so a counting monkeypatch
                # sees pool-side executions too.
                yield index, executor_mod.execute_run_spec(spec)
            raise WorkerCrashError("injected mid-stream crash")
        return crashing_pool

    def test_yielded_indices_never_reexecute(self, monkeypatch, capsys):
        import repro.runtime.executor as executor_mod
        machine = Machine(SKX2S)
        specs = specs_for(machine)[:6]

        executions = []
        real_execute = executor_mod.execute_run_spec

        def counting_execute(spec):
            executions.append(spec.fingerprint())
            return real_execute(spec)
        # The serial fallback path executes via the module-level
        # function; the fake pool records its own executions.
        monkeypatch.setattr(executor_mod, "execute_run_spec",
                            counting_execute)

        executor = Executor(jobs=2, progress=True)
        monkeypatch.setattr(executor, "_execute_pool",
                            self._crash_after(executor, crash_after=2))

        results = executor.run(specs)

        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result.workload.name == spec.workload.name
            assert result.placement == spec.placement
        # Every spec executed exactly once - the two yielded before the
        # crash were not re-run by the serial fallback.
        assert sorted(executions) == sorted(s.fingerprint()
                                            for s in specs)
        assert executor.telemetry.counters["pool_fallbacks"] == 1

    def test_progress_line_well_formed_across_fallback(
            self, monkeypatch, capsys):
        machine = Machine(SKX2S)
        specs = specs_for(machine)[:5]
        executor = Executor(jobs=2, progress=True)
        monkeypatch.setattr(executor, "_execute_pool",
                            self._crash_after(executor, crash_after=2))

        executor.run(specs, label="fallback")
        err = capsys.readouterr().err
        # Carriage-return redraws only; one terminating newline.
        assert err.endswith("\n")
        assert err.count("\n") == 1
        assert f"[fallback] {len(specs)}/{len(specs)}" in err


def _square(x):
    return x * x


class TestCliEquivalence:
    """`suite` stdout is byte-identical across -j and cache state."""

    def run_suite(self, capsys, cache, jobs, extra=()):
        argv = ["suite", "--workloads", "4", "--device", "numa",
                "--cache-dir", str(cache), "-j", str(jobs), *extra]
        assert main(argv) == 0
        captured = capsys.readouterr()
        return captured.out

    def test_suite_bytes_identical(self, capsys, tmp_path):
        serial_cache = tmp_path / "serial"
        parallel_cache = tmp_path / "parallel"
        cold_serial = self.run_suite(capsys, serial_cache, 1)
        cold_parallel = self.run_suite(capsys, parallel_cache, 2)
        warm_serial = self.run_suite(capsys, serial_cache, 1)
        warm_parallel = self.run_suite(capsys, parallel_cache, 2)

        assert cold_serial == cold_parallel
        assert cold_serial == warm_serial
        assert cold_serial == warm_parallel

    def test_progress_keeps_stdout_clean(self, capsys, tmp_path):
        quiet = self.run_suite(capsys, tmp_path / "a", 1)
        with_progress = self.run_suite(capsys, tmp_path / "b", 1,
                                       extra=("--progress",))
        assert with_progress == quiet

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "never"
        out = self.run_suite(capsys, cache, 1, extra=("--no-cache",))
        assert out
        assert not cache.exists()
