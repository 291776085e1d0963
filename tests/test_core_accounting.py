"""Tests for the analytic core cycle accounting."""

import pytest

from repro.uarch.caches import demand_profile
from repro.uarch.config import SKX2S
from repro.uarch.core import (CycleBreakdown, LatencyContext,
                              account_cycles, exposure_corrections,
                              exposure_saturation, prefetch_overlap)
from repro.uarch.prefetcher import prefetch_profile
from repro.workloads import WorkloadSpec


def account(spec, observed=90.0, tier=90.0, rfo=90.0, reference=90.0):
    demand = demand_profile(spec, SKX2S)
    prefetch = prefetch_profile(spec, demand, tier)
    latency = LatencyContext(observed_read_ns=observed,
                             tier_read_ns=tier, rfo_ns=rfo,
                             reference_idle_ns=reference)
    return account_cycles(spec, SKX2S, demand, prefetch, latency)


def spec(**overrides):
    fields = dict(mlp=4.0, l1_hit=0.88, l2_hit=0.35,
                  l3_hit_small_llc=0.15, same_line_ratio=0.3,
                  pf_friend=0.4, pf_lookahead_ns=100.0,
                  loads_per_ki=300.0, stores_per_ki=100.0,
                  store_miss_ratio=0.1, base_cpi=0.6)
    fields.update(overrides)
    return WorkloadSpec("acct", **fields)


class TestAccounting:
    def test_converges(self):
        assert account(spec()).converged

    def test_cycles_include_base(self):
        breakdown = account(spec())
        assert breakdown.cycles >= breakdown.base_cycles
        assert breakdown.cycles == pytest.approx(
            breakdown.base_cycles + breakdown.s_llc +
            breakdown.s_cache + breakdown.s_sb + breakdown.s_l2_hit +
            breakdown.s_l3_hit)

    def test_monotone_in_latency(self):
        fast = account(spec(), observed=90.0, tier=90.0, rfo=90.0)
        slow = account(spec(), observed=214.0, tier=214.0, rfo=246.0)
        assert slow.cycles > fast.cycles
        assert slow.s_llc > fast.s_llc
        assert slow.s_cache > fast.s_cache

    def test_insensitive_stalls_constant_across_tiers(self):
        fast = account(spec(), observed=90.0, tier=90.0)
        slow = account(spec(), observed=300.0, tier=300.0)
        assert slow.s_l2_hit == pytest.approx(fast.s_l2_hit)
        assert slow.s_l3_hit == pytest.approx(fast.s_l3_hit)

    def test_memory_active_littles_law(self):
        breakdown = account(spec())
        demand = demand_profile(spec(), SKX2S)
        prefetch = prefetch_profile(spec(), demand, 90.0)
        expected = (prefetch.demand_mem_reads *
                    SKX2S.ns_to_cycles(90.0) /
                    breakdown.mlp_effective)
        assert breakdown.memory_active == pytest.approx(expected)

    def test_exposed_stalls_fraction_of_active(self):
        breakdown = account(spec())
        ratio = breakdown.s_llc / breakdown.memory_active
        assert ratio == pytest.approx(breakdown.exposure_effective)
        # Paper Fig. 4b territory: exposure mostly 0.5-0.7.
        assert 0.4 <= ratio <= 0.75

    def test_per_thread_scaling(self):
        single = account(spec())
        multi = account(spec().with_threads(4))
        # Per-core cycles identical: same per-thread work.
        assert multi.cycles == pytest.approx(single.cycles, rel=1e-6)

    def test_threads_share_latency_effects(self):
        one = account(spec(), observed=214.0, tier=214.0)
        four = account(spec().with_threads(4), observed=214.0,
                       tier=214.0)
        assert four.s_llc == pytest.approx(one.s_llc, rel=1e-6)


class TestExposureCorrections:
    def test_neutral_on_dram(self):
        assert exposure_corrections(4.0, *exposure_saturation(
            spec(burstiness=0.9), 90.0, 90.0)) == 1.0

    def test_burstiness_hides_latency(self):
        value = exposure_corrections(4.0, *exposure_saturation(
            spec(burstiness=0.8), 400.0, 90.0))
        assert value < 1.0

    def test_hyper_mlp_reduces_exposure(self):
        saturation = exposure_saturation(spec(), 400.0, 90.0)
        normal = exposure_corrections(4.0, *saturation)
        hyper = exposure_corrections(12.0, *saturation)
        assert hyper < normal

    def test_floored(self):
        value = exposure_corrections(16.0, *exposure_saturation(
            spec(burstiness=1.0), 1e5, 90.0))
        assert value >= 0.1


class TestPrefetchOverlap:
    def test_bounded_by_superqueue(self):
        assert prefetch_overlap(100.0, float(SKX2S.sq_entries)) == \
            SKX2S.sq_entries

    def test_floor(self):
        assert prefetch_overlap(0.5, float(SKX2S.sq_entries)) == 2.0


class TestLatencyContextValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LatencyContext(observed_read_ns=0.0, tier_read_ns=90.0,
                           rfo_ns=90.0, reference_idle_ns=90.0)
