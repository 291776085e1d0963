"""Unit + property tests for the cache, prefetcher, and buffer models."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch.buffers import (MLP_GROWTH_SCALE_NS, effective_mlp,
                                 lfb_contention_stalls, lfb_occupancy,
                                 mlp_growth_factor, sb_full_fraction,
                                 store_backpressure_stalls)
from repro.uarch.caches import DemandProfile, demand_profile
from repro.uarch.config import SKX2S, SPR2S
from repro.uarch.prefetcher import (expected_late_wait_ns, late_fraction,
                                    prefetch_profile)
from repro.workloads import WorkloadSpec

latencies = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)
lookaheads = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


def simple_spec(**overrides):
    fields = dict(l1_hit=0.9, l2_hit=0.4, l3_hit_small_llc=0.2,
                  same_line_ratio=0.3, loads_per_ki=300.0,
                  stores_per_ki=100.0, store_miss_ratio=0.1,
                  pf_friend=0.5, mlp=4.0)
    fields.update(overrides)
    return WorkloadSpec("unit", **fields)


class TestDemandProfile:
    def test_flow_conservation(self):
        spec = simple_spec()
        profile = demand_profile(spec, SKX2S)
        assert profile.l1_misses == pytest.approx(
            profile.lfb_hits + profile.l1_miss_issued)
        assert profile.l2_misses <= profile.l1_miss_issued
        assert profile.mem_reads_potential <= profile.l2_misses

    def test_lfb_hit_ratio_matches_same_line(self):
        spec = simple_spec(same_line_ratio=0.42)
        profile = demand_profile(spec, SKX2S)
        assert profile.lfb_hit_ratio == pytest.approx(0.42)

    def test_lfb_hit_ratio_zero_without_misses(self):
        spec = simple_spec(l1_hit=1.0)
        profile = demand_profile(spec, SKX2S)
        assert profile.lfb_hit_ratio == 0.0

    def test_store_rfos(self):
        spec = simple_spec(stores_per_ki=200.0, store_miss_ratio=0.25)
        profile = demand_profile(spec, SKX2S)
        assert profile.store_mem_rfos == pytest.approx(
            spec.stores * 0.25)

    def test_bigger_llc_reduces_memory_reads(self):
        spec = simple_spec(llc_sensitivity=0.5)
        small = demand_profile(spec, SKX2S)   # 14 MiB LLC
        large = demand_profile(spec, SPR2S)   # 60 MiB LLC
        assert large.mem_reads_potential < small.mem_reads_potential

    def test_validation_rejects_negative(self):
        with pytest.raises(ValueError):
            DemandProfile(loads=-1, l1_misses=0, lfb_hits=0,
                          l1_miss_issued=0, l2_misses=0, l3_hit_rate=0,
                          mem_reads_potential=0, stores=0,
                          store_mem_rfos=0)


class TestLateWait:
    @given(latency=latencies, lookahead=lookaheads)
    def test_non_negative_and_bounded(self, latency, lookahead):
        wait = expected_late_wait_ns(latency, lookahead)
        assert 0.0 <= wait <= latency + 1e-9

    @given(l1=latencies, l2=latencies, lookahead=lookaheads)
    def test_monotone_in_latency(self, l1, l2, lookahead):
        lo, hi = sorted((l1, l2))
        assert expected_late_wait_ns(lo, lookahead) <= \
            expected_late_wait_ns(hi, lookahead) + 1e-9

    @given(latency=latencies, k1=lookaheads, k2=lookaheads)
    def test_more_lookahead_never_hurts(self, latency, k1, k2):
        lo, hi = sorted((k1, k2))
        assert expected_late_wait_ns(latency, hi) <= \
            expected_late_wait_ns(latency, lo) + 1e-9

    def test_quadratic_regime(self):
        # Within L < 2 * lookahead the wait is L^2 / (4 * lookahead).
        assert expected_late_wait_ns(100.0, 100.0) == pytest.approx(25.0)

    def test_fully_late_regime(self):
        assert expected_late_wait_ns(500.0, 100.0) == pytest.approx(400.0)

    def test_continuity_at_boundary(self):
        lookahead = 80.0
        boundary = 2.0 * lookahead
        below = expected_late_wait_ns(boundary - 1e-6, lookahead)
        above = expected_late_wait_ns(boundary + 1e-6, lookahead)
        assert below == pytest.approx(above, abs=1e-4)

    def test_uniform_growth_ratio_within_regime(self):
        # The property k_cache relies on: DRAM->CXL growth is the
        # squared latency ratio, independent of the lookahead.
        for lookahead in (90.0, 120.0, 160.0):
            growth = (expected_late_wait_ns(214.0, lookahead) /
                      expected_late_wait_ns(114.0, lookahead))
            assert growth == pytest.approx((214.0 / 114.0) ** 2,
                                           rel=0.05)

    @given(latency=latencies, lookahead=lookaheads)
    def test_late_fraction_in_unit_range(self, latency, lookahead):
        assert 0.0 <= late_fraction(latency, lookahead) <= 1.0

    def test_no_lookahead_means_always_late(self):
        assert late_fraction(50.0, 0.0) == 1.0
        assert expected_late_wait_ns(50.0, 0.0) == 50.0


class TestPrefetchProfile:
    def test_coverage_conservation(self):
        spec = simple_spec(pf_friend=0.6)
        demand = demand_profile(spec, SKX2S)
        prefetch = prefetch_profile(spec, demand, 100.0)
        assert prefetch.covered + prefetch.demand_mem_reads == \
            pytest.approx(demand.mem_reads_potential)

    def test_waste_ratio_applied(self):
        spec = simple_spec(pf_friend=0.6)
        demand = demand_profile(spec, SKX2S)
        prefetch = prefetch_profile(spec, demand, 100.0)
        assert prefetch.pf_mem_reads > prefetch.covered

    def test_l1_share_grows_with_latency(self):
        spec = simple_spec(pf_friend=0.6, pf_l1_share=0.3,
                           pf_lookahead_ns=100.0)
        demand = demand_profile(spec, SKX2S)
        fast = prefetch_profile(spec, demand, 90.0)
        slow = prefetch_profile(spec, demand, 400.0)
        assert slow.pf_l1_mem > fast.pf_l1_mem

    def test_offcore_split_consistent(self):
        spec = simple_spec(pf_friend=0.6)
        demand = demand_profile(spec, SKX2S)
        prefetch = prefetch_profile(spec, demand, 150.0)
        assert prefetch.pf_l1_any == pytest.approx(
            prefetch.pf_l1_mem + prefetch.pf_l1_l3_hit)
        assert prefetch.pf_l2_any == pytest.approx(
            prefetch.pf_l2_mem + prefetch.pf_l2_l3_hit)

    def test_no_prefetching(self):
        spec = simple_spec(pf_friend=0.0)
        demand = demand_profile(spec, SKX2S)
        prefetch = prefetch_profile(spec, demand, 150.0)
        assert prefetch.covered == 0.0
        assert prefetch.pf_mem_reads == 0.0
        assert prefetch.demand_mem_reads == pytest.approx(
            demand.mem_reads_potential)


class TestMlpScaling:
    def test_no_growth_at_reference(self):
        spec = simple_spec(mlp=4.0, mlp_headroom=0.3)
        assert mlp_growth_factor(spec, 90.0, 90.0) == 1.0

    def test_growth_bounded_by_headroom(self):
        spec = simple_spec(mlp=4.0, mlp_headroom=0.3)
        factor = mlp_growth_factor(spec, 10_000.0, 90.0)
        assert 1.0 < factor <= 1.3 + 1e-9

    def test_no_headroom_no_growth(self):
        spec = simple_spec(mlp=4.0, mlp_headroom=0.0)
        assert mlp_growth_factor(spec, 500.0, 90.0) == 1.0

    def test_effective_mlp_capped_by_lfb(self):
        spec = simple_spec(mlp=11.9, mlp_headroom=0.4)
        # SKX has 12 LFB entries; prefetch displacement is throttled to
        # PF_LFB_ENTRY_CAP entries, leaving 10 for demand.
        from repro.uarch.buffers import PF_LFB_ENTRY_CAP
        value = effective_mlp(spec, SKX2S,
                              mlp_growth_factor(spec, 400.0, 90.0),
                              pf_l1_inflight=5.0)
        assert value == pytest.approx(
            SKX2S.lfb_entries - PF_LFB_ENTRY_CAP)

    def test_effective_mlp_floor_is_one(self):
        spec = simple_spec(mlp=1.0)
        value = effective_mlp(spec, SKX2S,
                              mlp_growth_factor(spec, 90.0, 90.0),
                              pf_l1_inflight=100.0)
        assert value == 1.0


class TestLfbContention:
    def test_no_stalls_within_capacity(self):
        assert lfb_contention_stalls(10.0, SKX2S, 1e8) == 0.0

    def test_stalls_scale_with_excess(self):
        mild = lfb_contention_stalls(14.0, SKX2S, 1e8)
        severe = lfb_contention_stalls(20.0, SKX2S, 1e8)
        assert 0.0 < mild < severe

    def test_occupancy_helper(self):
        assert lfb_occupancy(4.0, 3.0) == 7.0


class TestStoreBackpressure:
    @given(occ=st.floats(min_value=0.0, max_value=1e4),
           burst=st.floats(min_value=0.0, max_value=1.0))
    def test_full_fraction_in_unit_range(self, occ, burst):
        assert 0.0 <= sb_full_fraction(occ, 56.0, burst) <= 1.0

    def test_full_fraction_monotone_in_occupancy(self):
        low = sb_full_fraction(10.0, 56.0, 0.0)
        high = sb_full_fraction(50.0, 56.0, 0.0)
        assert low < high

    def test_burstiness_raises_pressure(self):
        calm = sb_full_fraction(30.0, 56.0, 0.0)
        bursty = sb_full_fraction(30.0, 56.0, 0.8)
        assert bursty > calm

    def test_no_stores_no_stalls(self):
        spec = simple_spec()
        assert store_backpressure_stalls(spec, SKX2S, 0.0, 300.0,
                                         1e9) == 0.0

    def test_stalls_superlinear_in_rfo_latency(self):
        # Occupancy AND per-RFO cost both grow with latency, so the
        # paper's "RFO latency grows 2-3x" turns into a larger stall
        # multiple - the S_Store amplification k_store captures.
        spec = simple_spec(store_burst=0.3)
        base = store_backpressure_stalls(spec, SKX2S, 1e7, 200.0, 1e9)
        slow = store_backpressure_stalls(spec, SKX2S, 1e7, 500.0, 1e9)
        assert slow > base * (500.0 / 200.0)
