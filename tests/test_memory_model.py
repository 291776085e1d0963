"""Unit + property tests for the memory-tier latency/bandwidth model."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch import DEVICES, Machine, Placement, request_share
from repro.uarch.config import CXL_A, SKX2S
from repro.uarch.memory import (MAX_ESCALATION, MAX_UTILIZATION,
                                loaded_latency_ns, measure_idle_latency_ns,
                                updated_escalation,
                                utilization_for_bandwidth)
from repro.workloads import get_workload

DRAM = SKX2S.dram

utilizations = st.floats(min_value=0.0, max_value=1.5, allow_nan=False)


class TestLoadedLatency:
    def test_idle_latency_at_zero_load(self):
        assert loaded_latency_ns(DRAM, 0.0) == DRAM.idle_latency_ns

    @given(u=utilizations)
    def test_never_below_idle(self, u):
        assert loaded_latency_ns(DRAM, u) >= DRAM.idle_latency_ns

    @given(u1=utilizations, u2=utilizations)
    def test_monotone_in_utilization(self, u1, u2):
        lo, hi = sorted((u1, u2))
        assert loaded_latency_ns(DRAM, lo) <= \
            loaded_latency_ns(DRAM, hi) + 1e-9

    def test_clamped_beyond_ceiling(self):
        assert loaded_latency_ns(DRAM, 2.0) == \
            loaded_latency_ns(DRAM, MAX_UTILIZATION)

    def test_full_load_latency_in_physical_range(self):
        # MLC-style loaded latency: ~2-3x idle near saturation.
        ratio = loaded_latency_ns(DRAM, MAX_UTILIZATION) / \
            DRAM.idle_latency_ns
        assert 1.8 <= ratio <= 3.2

    def test_tail_sensitivity_inflates_cxl(self):
        base = loaded_latency_ns(CXL_A, 0.3, tail_sensitivity=0.0)
        tail = loaded_latency_ns(CXL_A, 0.3, tail_sensitivity=1.0)
        assert tail == pytest.approx(base * (1.0 + CXL_A.tail_alpha))

    def test_tail_sensitivity_noop_on_dram(self):
        assert loaded_latency_ns(DRAM, 0.3, 1.0) == \
            loaded_latency_ns(DRAM, 0.3, 0.0)


class TestRfoLatency:
    """The solver derives a tier's RFO latency from its loaded read
    latency times the device's ``rfo_latency_factor``."""

    @pytest.fixture(scope="class")
    def slow_runs(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        return {name: machine.run(workload, Placement.slow_only(name))
                for name in DEVICES}

    def test_rfo_at_least_read_latency(self, slow_runs):
        for result in slow_runs.values():
            assert result.rfo_ns >= result.tier_read_ns

    def test_rfo_factor_applied(self, slow_runs):
        for name, result in slow_runs.items():
            assert result.rfo_ns == pytest.approx(
                DEVICES[name].rfo_latency_factor * result.tier_read_ns,
                rel=1e-6)


class TestTierSplit:
    """How a run's traffic and latency split across its two tiers.

    The solver blends the tiers itself: it splits the workload's
    traffic by the request share, loads each tier with its own share
    plus any external traffic, and weights the per-tier latencies by
    the same share."""

    WORKLOADS = ("605.mcf", "603.bwaves", "619.lbm", "557.xz")

    @pytest.fixture(scope="class")
    def interleaved_runs(self):
        machine = Machine(SKX2S)
        runs = []
        for name in self.WORKLOADS:
            workload = get_workload(name)
            for x in (0.3, 0.6, 0.9):
                placement = Placement.interleaved(x, "cxl-a")
                share = request_share(placement, workload.name,
                                      workload.hotness_skew)
                runs.append((share, machine.run(workload, placement)))
        return runs

    def test_read_latency_is_request_weighted(self, interleaved_runs):
        for share, result in interleaved_runs:
            assert result.tier_read_ns == pytest.approx(
                share * result.dram_latency_ns +
                (1.0 - share) * result.slow_latency_ns, rel=1e-12)

    def test_traffic_splits_by_request_share(self, interleaved_runs):
        for share, result in interleaved_runs:
            assert result.dram_gbps == pytest.approx(
                share * result.total_gbps, rel=1e-12)
            assert result.slow_gbps == pytest.approx(
                (1.0 - share) * result.total_gbps, rel=1e-12)

    @pytest.mark.parametrize("device", [None, "cxl-a"])
    def test_latency_is_loaded_at_own_utilization(self, skx_machine,
                                                  device):
        # Below capacity (no escalation) the settled latency is the
        # device's loaded latency at the run's own utilization.
        workload = get_workload("605.mcf")
        if device is None:
            result = skx_machine.run(workload)
            assert result.dram_latency_ns == pytest.approx(
                loaded_latency_ns(DRAM, result.dram_utilization),
                rel=1e-6)
            assert result.tier_read_ns == result.dram_latency_ns
        else:
            result = skx_machine.run(workload, Placement.slow_only(device))
            assert result.slow_latency_ns == pytest.approx(
                loaded_latency_ns(DEVICES[device], result.slow_utilization,
                                  workload.tail_sensitivity), rel=1e-6)
            assert result.tier_read_ns == result.slow_latency_ns

    def test_external_traffic_counts_toward_utilization(self, skx_machine):
        workload = get_workload("605.mcf")
        alone = skx_machine.run(workload)
        shared = skx_machine.run(workload, external_traffic={"dram": 25.0})
        assert shared.dram_utilization == pytest.approx(
            utilization_for_bandwidth(DRAM, shared.dram_gbps + 25.0))
        # dram_gbps is this workload's own traffic only.
        assert shared.dram_gbps <= alone.dram_gbps
        assert shared.dram_utilization > alone.dram_utilization

    def test_latency_reflects_combined_load(self, skx_machine):
        workload = get_workload("605.mcf")
        alone = skx_machine.run(workload)
        shared = skx_machine.run(workload, external_traffic={"dram": 25.0})
        assert shared.dram_latency_ns > alone.dram_latency_ns
        assert shared.cycles > alone.cycles

    @pytest.mark.parametrize("x, binding", [(0.9, "dram"), (0.3, "slow")])
    def test_split_decides_which_tier_saturates(self, skx_machine, x,
                                                binding):
        # DRAM (52 GB/s) and CXL-A (24 GB/s) saturate together at
        # x = 52/76; above it DRAM binds first, below it the slow tier.
        workload = get_workload("603.bwaves").with_threads(10)
        result = skx_machine.run(workload,
                                 Placement.interleaved(x, "cxl-a"))
        saturated = {"dram": result.dram_utilization,
                     "slow": result.slow_utilization}
        assert saturated[binding] == pytest.approx(MAX_UTILIZATION,
                                                   rel=1e-6)
        assert max(saturated.values()) == saturated[binding]


class TestEscalation:
    def test_no_escalation_below_capacity(self):
        assert updated_escalation(1.0, DRAM, 10.0) == 1.0

    def test_escalation_grows_when_oversubscribed(self):
        over = DRAM.peak_bandwidth_gbps * 1.5
        assert updated_escalation(1.0, DRAM, over) > 1.0

    def test_escalation_decays_when_relieved(self):
        relaxed = updated_escalation(2.0, DRAM, 10.0)
        assert relaxed < 2.0

    def test_escalation_never_below_one(self):
        assert updated_escalation(1.0, DRAM, 0.0) == 1.0
        assert updated_escalation(0.5, DRAM, 1.0) >= 1.0

    def test_escalation_capped(self):
        value = 1.0
        for _ in range(1000):
            value = updated_escalation(
                value, DRAM, DRAM.peak_bandwidth_gbps * 100)
        assert value == MAX_ESCALATION

    @given(esc=st.floats(min_value=1.0, max_value=50.0),
           offered=st.floats(min_value=0.0, max_value=500.0))
    def test_escalation_bounds(self, esc, offered):
        new = updated_escalation(esc, DRAM, offered)
        assert 1.0 <= new <= MAX_ESCALATION

    def test_fixed_point_at_capacity(self):
        capacity = DRAM.peak_bandwidth_gbps * MAX_UTILIZATION
        assert updated_escalation(3.0, DRAM, capacity) == \
            pytest.approx(3.0)


class TestUtilization:
    def test_zero_bandwidth(self):
        assert utilization_for_bandwidth(DRAM, 0.0) == 0.0

    def test_clamped_at_ceiling(self):
        assert utilization_for_bandwidth(DRAM, 1e6) == MAX_UTILIZATION

    def test_proportional_below_ceiling(self):
        assert utilization_for_bandwidth(DRAM, 26.0) == \
            pytest.approx(0.5)


class TestIdleProbe:
    def test_mlc_probe_returns_configured_idle(self):
        assert measure_idle_latency_ns(CXL_A) == CXL_A.idle_latency_ns
