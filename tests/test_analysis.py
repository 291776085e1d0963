"""Tests for the analysis package: stats, reporting, lab caching."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import (Lab, absolute_errors, accuracy_summary,
                            ascii_table, cdf_points, cdf_summary,
                            fraction_within, geometric_mean, heading,
                            paper_vs_measured, pearson, percentile_row,
                            sparkline)
from repro.analysis.lab import BANDWIDTH_TIER_PLATFORMS
from repro.faults import FaultPlan
from repro.runtime import serde
from repro.runtime.executor import Executor
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.uarch import Machine, Placement
from repro.uarch.machine import ACCELERATED_RELATIVE_TOLERANCE
from repro.workloads import get_workload

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_degenerate_constant_series(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_series(self):
        assert pearson([1], [2]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(st.lists(floats, min_size=2, max_size=50))
    def test_bounded(self, xs):
        ys = [x * 2 + 1 for x in xs]
        assert -1.0 - 1e-9 <= pearson(xs, ys) <= 1.0 + 1e-9


class TestErrorStats:
    def test_absolute_errors(self):
        errors = absolute_errors([1.0, 2.0], [1.5, 1.0])
        assert list(errors) == [0.5, 1.0]

    def test_fraction_within(self):
        errors = [0.01, 0.04, 0.2]
        assert fraction_within(errors, 0.05) == pytest.approx(2 / 3)
        assert fraction_within([], 0.05) == 1.0

    def test_accuracy_summary(self):
        summary = accuracy_summary([0.1, 0.2, 0.5], [0.12, 0.2, 0.9])
        assert summary.count == 3
        assert summary.within_5pct == pytest.approx(2 / 3)
        assert summary.within_10pct == pytest.approx(2 / 3)
        assert set(summary.as_dict()) == {"pearson", "within_5pct",
                                          "within_10pct", "count"}


class TestDistributionHelpers:
    def test_cdf_points(self):
        values, fractions = cdf_points([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert fractions[-1] == 1.0

    def test_cdf_points_empty(self):
        values, fractions = cdf_points([])
        assert len(values) == 0 and len(fractions) == 0

    def test_percentile_row(self):
        row = percentile_row(list(range(101)))
        assert row["p50"] == pytest.approx(50.0)
        assert row["p90"] == pytest.approx(90.0)

    def test_percentile_row_empty(self):
        row = percentile_row([])
        assert np.isnan(row["p50"])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class TestReporting:
    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "metric"], [["x", 1.23456],
                                              ["yy", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.235" in table
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_cdf_summary(self):
        text = cdf_summary([0.01, 0.02, 0.2])
        assert "<=5%" in text and "max: 0.200" in text
        assert cdf_summary([]) == "(no data)"

    def test_paper_vs_measured(self):
        text = paper_vs_measured([("pearson", 0.97, 0.95)])
        assert "delta" in text and "-0.020" in text

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3, 2, 1, 0])
        assert len(line) == 7
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "=="

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=50)) == 50

    def test_heading(self):
        assert heading("Hi") == "\nHi\n=="


class TestLab:
    def test_run_caching(self, pointer_workload):
        lab = Lab()
        first = lab.dram_run("numa", pointer_workload)
        second = lab.dram_run("numa", pointer_workload)
        assert first is second
        assert lab.cache_size() == 1

    def test_tier_platform_assignment(self):
        lab = Lab()
        assert lab.machine_for_tier("numa").platform.name == "SKX2S"
        assert lab.machine_for_tier("cxl-a").platform.name == "SPR2S"

    def test_unknown_tier(self):
        with pytest.raises(KeyError):
            Lab().machine_for_tier("optane")

    def test_calibration_cached(self):
        lab = Lab()
        assert lab.calibration("numa") is lab.calibration("numa")

    def test_suite_cached_and_sized(self):
        lab = Lab()
        assert lab.suite() is lab.suite()
        assert len(lab.suite()) == 265

    def test_interleaved_run_dispatch(self, pointer_workload):
        lab = Lab()
        dram = lab.interleaved_run("numa", pointer_workload, 1.0)
        assert dram is lab.dram_run("numa", pointer_workload)
        slow = lab.interleaved_run("numa", pointer_workload, 0.0)
        assert slow is lab.slow_run("numa", pointer_workload)
        mid = lab.interleaved_run("numa", pointer_workload, 0.5)
        assert mid.placement.dram_fraction == 0.5


class TestSweepRuns:
    """``Lab.sweep_runs``: store-held ratios come back exact, the rest
    solve as one cold accelerated batch (docs/SOLVER.md)."""

    TIER = "cxl-a"
    RATIOS = (0.0, 0.25, 0.5, 0.75, 1.0)
    STORED = (1, 3)   # indices of the ratios an executor persisted

    @staticmethod
    def lab(**kwargs):
        return Lab(tier_platforms=BANDWIDTH_TIER_PLATFORMS, **kwargs)

    @staticmethod
    def dicts(results):
        return [serde.run_result_to_dict(result) for result in results]

    @pytest.fixture()
    def solved(self, monkeypatch):
        """The specs each batched solve receives, in call order."""
        calls = []
        real = Machine.run_batch_multi

        def recording(specs, **kwargs):
            calls.append(list(specs))
            return real(calls[-1], **kwargs)

        monkeypatch.setattr(Machine, "run_batch_multi", recording)
        return calls

    def persisted_store(self, root, workload):
        """A store holding the exact answers of the ``STORED`` ratios."""
        machine = self.lab().machine_for_tier(self.TIER)
        specs = [RunSpec.from_machine(
            machine, workload,
            Placement.interleaved(self.RATIOS[index], self.TIER))
            for index in self.STORED]
        store = ResultStore(root)
        Executor(store=store).run(specs)
        return store, specs

    def test_an_answer_does_not_depend_on_an_earlier_lab(self, tmp_path):
        # A second lab over the same store sweeps ratios the first one
        # never solved; nothing the first left behind may move them.
        workload = get_workload("603.bwaves").with_threads(10)
        ratios = [(2 * step + 1) / 40 for step in range(20)]
        with ResultStore(tmp_path / "store") as store:
            self.lab(store=store).sweep_runs(
                self.TIER, workload, [step / 10 for step in range(11)])
            shared = self.lab(store=store).sweep_runs(
                self.TIER, workload, ratios)
        alone = self.lab().sweep_runs(self.TIER, workload, ratios)
        assert self.dicts(shared) == self.dicts(alone)

    def test_stored_ratios_are_exact_and_not_re_solved(self, tmp_path,
                                                        solved):
        workload = get_workload("605.mcf")
        store, specs = self.persisted_store(tmp_path / "store", workload)
        lab = self.lab(store=store)
        results = lab.sweep_runs(self.TIER, workload, self.RATIOS)
        assert self.dicts([results[index] for index in self.STORED]) == \
            self.dicts([spec.execute() for spec in specs])
        assert lab.executor.telemetry.counters["sweep_seed_hits"] == 2
        fresh = [index for index in range(len(self.RATIOS))
                 if index not in self.STORED]
        assert len(solved) == 1
        assert [spec.placement for spec in solved[0]] == \
            [results[index].placement for index in fresh]

    def test_a_fault_plan_never_reads_the_store(self, tmp_path, solved,
                                                monkeypatch):
        workload = get_workload("605.mcf")
        store, _ = self.persisted_store(tmp_path / "store", workload)

        def unreachable(keys):
            raise AssertionError("the store was read under a fault plan")

        monkeypatch.setattr(store, "get_many", unreachable)
        lab = self.lab(executor=Executor(store=store,
                                         fault_plan=FaultPlan()))
        results = lab.sweep_runs(self.TIER, workload, self.RATIOS)
        assert "sweep_seed_hits" not in lab.executor.telemetry.counters
        assert len(solved) == 1
        assert [spec.placement for spec in solved[0]] == \
            [result.placement for result in results]

    def test_a_repeated_sweep_is_answered_from_the_memo(self, solved):
        workload = get_workload("605.mcf")
        lab = self.lab()
        first = lab.sweep_runs(self.TIER, workload, self.RATIOS)
        second = lab.sweep_runs(self.TIER, workload, self.RATIOS)
        assert len(solved) == 1
        assert all(again is result
                   for again, result in zip(second, first))

    def test_solved_ratios_are_within_tolerance_of_the_scalar_solve(self):
        workload = get_workload("603.bwaves").with_threads(10)
        lab = self.lab()
        machine = lab.machine_for_tier(self.TIER)
        for result in lab.sweep_runs(self.TIER, workload, self.RATIOS):
            scalar = machine.run(workload, result.placement)
            assert result.converged
            assert abs(result.cycles - scalar.cycles) <= \
                ACCELERATED_RELATIVE_TOLERANCE * scalar.cycles


class TestAsciiScatter:
    def test_dimensions(self):
        from repro.analysis import ascii_scatter
        text = ascii_scatter([0, 1], [0, 1], width=20, height=5)
        body_lines = [l for l in text.splitlines() if l.strip().startswith("|")]
        assert len(body_lines) == 5
        assert all(len(l.strip()) == 22 for l in body_lines)

    def test_empty(self):
        from repro.analysis import ascii_scatter
        assert ascii_scatter([], []) == "(no data)"

    def test_shape_mismatch(self):
        from repro.analysis import ascii_scatter
        with pytest.raises(ValueError):
            ascii_scatter([1, 2], [1])

    def test_density_glyphs(self):
        from repro.analysis import ascii_scatter
        # 10 identical points land in one cell -> '@'.
        text = ascii_scatter([0.5] * 10 + [0.0], [0.5] * 10 + [0.0],
                             width=10, height=5)
        assert "@" in text

    def test_diagonal_overlay(self):
        from repro.analysis import ascii_scatter
        text = ascii_scatter([0, 1], [0, 1], width=20, height=8,
                             diagonal=True)
        assert "\\" in text
