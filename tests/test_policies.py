"""Tests for Best-shot and the baseline tiering/colocation policies."""

import pytest

from repro.policies import (Alto, BestShot, Caption, Colloid, FirstTouch,
                            Interleave11, NBT, PolicyDecision, Soar,
                            TieringContext, compare_policies,
                            contention_amplification, evaluate_policy,
                            fig15_policies, mixed_colocation,
                            schedule_by_camp, schedule_by_mpki)
from repro.uarch import Machine, Placement
from repro.workloads import colocation_pairs, get_workload


@pytest.fixture()
def bw_context(skx_machine, bwaves10):
    return TieringContext(machine=skx_machine, workload=bwaves10,
                          device="cxl-a",
                          fast_capacity_gib=0.8 * bwaves10.footprint_gib)


@pytest.fixture()
def lat_context(skx_machine, pointer_workload):
    return TieringContext(
        machine=skx_machine, workload=pointer_workload, device="cxl-a",
        fast_capacity_gib=0.8 * pointer_workload.footprint_gib)


class TestContentionAmplification:
    def test_uses_shared_device_idle_latency(self, skx_machine,
                                             skx_cxla_calibration):
        # Regression: the amplification denominator used the
        # calibration's idle_latency_slow_ns (probed on cxl-a) even
        # when the pair actually shares cxl-b.
        from repro.uarch.memory import loaded_latency_ns

        spill_gbps = 15.0
        device = skx_machine.device("cxl-b")
        idle_dram_ns = skx_cxla_calibration.idle_latency_dram_ns
        utilization = min(spill_gbps / device.peak_bandwidth_gbps, 0.95)
        loaded_ns = loaded_latency_ns(device, utilization)
        expected = max(1.0, (loaded_ns - idle_dram_ns) / max(
            skx_machine.idle_latency_ns("cxl-b") - idle_dram_ns, 1.0))
        wrong = max(1.0, (loaded_ns - idle_dram_ns) / max(
            skx_cxla_calibration.idle_latency_slow_ns - idle_dram_ns,
            1.0))
        amplification = contention_amplification(
            skx_machine, "cxl-b", skx_cxla_calibration, spill_gbps)
        assert amplification == pytest.approx(expected)
        assert abs(amplification - wrong) > 1e-6

    def test_devices_with_different_idle_latency_differ(
            self, skx_machine, skx_cxla_calibration):
        amp_a = contention_amplification(skx_machine, "cxl-a",
                                         skx_cxla_calibration, 15.0)
        amp_b = contention_amplification(skx_machine, "cxl-b",
                                         skx_cxla_calibration, 15.0)
        assert amp_a != pytest.approx(amp_b)

    def test_floor_at_one_with_no_spill(self, skx_machine,
                                        skx_cxla_calibration):
        assert contention_amplification(
            skx_machine, "cxl-b", skx_cxla_calibration,
            0.0) == pytest.approx(1.0)


class TestContext:
    def test_capacity_fraction(self, lat_context):
        assert lat_context.capacity_fraction == pytest.approx(0.8)

    def test_capacity_fraction_capped(self, skx_machine,
                                      pointer_workload):
        context = TieringContext(machine=skx_machine,
                                 workload=pointer_workload,
                                 device="cxl-a",
                                 fast_capacity_gib=1e6)
        assert context.capacity_fraction == 1.0


class TestStaticPolicies:
    def test_interleave_11(self, lat_context):
        decision = Interleave11().decide(lat_context)
        assert decision.placement.dram_fraction == pytest.approx(0.5)
        assert decision.runtime_overhead == 0.0

    def test_first_touch_fills_fast_tier(self, lat_context):
        decision = FirstTouch().decide(lat_context)
        assert decision.placement.dram_fraction == pytest.approx(0.8)
        assert decision.placement.hotness_bias > 0.0

    def test_first_touch_fits(self, skx_machine, pointer_workload):
        context = TieringContext(machine=skx_machine,
                                 workload=pointer_workload,
                                 device="cxl-a", fast_capacity_gib=1e3)
        decision = FirstTouch().decide(context)
        assert decision.placement.is_dram_only


class TestReactivePolicies:
    def test_nbt_hotness_bias(self, lat_context):
        decision = NBT().decide(lat_context)
        assert decision.placement.hotness_bias > \
            FirstTouch().decide(lat_context).placement.hotness_bias
        assert decision.runtime_overhead > 0.0

    def test_colloid_on_latency_bound_fills_dram(self, lat_context):
        decision = Colloid().decide(lat_context)
        # DRAM never slower for a latency-bound workload: keep max x.
        assert decision.placement.dram_fraction == pytest.approx(
            lat_context.capacity_fraction, abs=0.01)

    def test_colloid_equalizes_under_pressure(self, bw_context):
        decision = Colloid().decide(bw_context)
        assert "equalized" in decision.note or "settled" in decision.note
        assert decision.runtime_overhead > 0.0

    def test_alto_between_colloid_and_capacity(self, bw_context):
        colloid_x = Colloid().decide(bw_context).placement.dram_fraction
        alto_x = Alto().decide(bw_context).placement.dram_fraction
        cap = bw_context.capacity_fraction
        assert min(colloid_x, cap) - 1e-9 <= alto_x <= \
            max(colloid_x, cap) + 1e-9

    def test_soar_profiles_once(self, lat_context):
        decision = Soar().decide(lat_context)
        assert decision.profiling_runs == 1
        assert decision.placement.hotness_bias >= 0.4


class TestCaption:
    def test_probing_costs_runtime(self, lat_context):
        decision = Caption().decide(lat_context)
        assert decision.runtime_overhead > 0.0

    def test_picks_a_candidate(self, bw_context):
        decision = Caption().decide(bw_context)
        x = decision.placement.dram_fraction
        assert any(abs(x - min(c, 0.8)) < 1e-9
                   for c in Caption.__init__.__defaults__[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Caption(candidates=())
        with pytest.raises(ValueError):
            Caption(probe_share=1.0)


class TestBestShot:
    def test_latency_bound_prefers_max_dram(self, lat_context,
                                            skx_cxla_calibration):
        decision = BestShot(skx_cxla_calibration).decide(lat_context)
        assert decision.placement.dram_fraction == pytest.approx(
            lat_context.capacity_fraction, abs=0.02)
        assert decision.profiling_runs == 1

    def test_bandwidth_bound_two_runs_and_interior_ratio(
            self, bw_context, skx_cxla_calibration):
        decision = BestShot(skx_cxla_calibration).decide(bw_context)
        assert decision.profiling_runs == 2
        assert decision.placement.dram_fraction < 0.8

    def test_recalibrates_for_other_device(self, skx_machine,
                                           skx_cxla_calibration,
                                           pointer_workload):
        policy = BestShot(skx_cxla_calibration)
        context = TieringContext(
            machine=skx_machine, workload=pointer_workload,
            device="numa",
            fast_capacity_gib=0.8 * pointer_workload.footprint_gib)
        decision = policy.decide(context)
        assert decision.placement.device in (None, "numa")
        assert policy.calibration.device == "numa"


class TestEvaluationHarness:
    def test_capacity_violation_rejected(self, lat_context):
        class Greedy(FirstTouch):
            name = "greedy"

            def decide(self, context):
                return PolicyDecision(placement=Placement.dram_only())

        with pytest.raises(ValueError, match="budget"):
            evaluate_policy(Greedy(), lat_context)

    def test_outcome_normalization(self, lat_context):
        outcome = evaluate_policy(Interleave11(), lat_context)
        # Half the pages on CXL: latency-bound workloads run slower
        # than DRAM-only.
        assert outcome.normalized_performance < 1.0
        assert outcome.slowdown > 0.0

    def test_overhead_applied(self, lat_context):
        plain = evaluate_policy(FirstTouch(), lat_context)
        taxed = evaluate_policy(NBT(), lat_context)
        # NBT reaches a similar placement but pays churn overhead.
        assert taxed.effective_cycles > taxed.result.cycles

    def test_compare_policies_shares_reference(self, bw_context,
                                               skx_cxla_calibration):
        outcomes = compare_policies(fig15_policies(skx_cxla_calibration),
                                    bw_context)
        assert len(outcomes) == 8
        assert len({o.dram_cycles for o in outcomes}) == 1

    def test_bestshot_wins_on_bandwidth_bound(self, bw_context,
                                              skx_cxla_calibration):
        outcomes = compare_policies(fig15_policies(skx_cxla_calibration),
                                    bw_context)
        by_policy = {o.policy: o.normalized_performance
                     for o in outcomes}
        best = by_policy.pop("best-shot")
        assert best > 1.0  # beats DRAM-only
        assert all(best >= other - 1e-6 for other in by_policy.values())


class TestColocationScheduling:
    def test_camp_beats_mpki_on_adversarial_pairs(self, skx_machine,
                                                  skx_cxla_calibration):
        wins = 0
        for pair in colocation_pairs():
            camp = schedule_by_camp(skx_machine, pair, "cxl-a",
                                    skx_cxla_calibration)
            mpki = schedule_by_mpki(skx_machine, pair, "cxl-a")
            if camp.weighted_speedup > mpki.weighted_speedup:
                wins += 1
        assert wins >= 2  # CAMP wins on (at least) 2 of the 3 pairs

    def test_schedulers_disagree_on_gpt2_pair(self, skx_machine,
                                              skx_cxla_calibration):
        pair = colocation_pairs()[0]  # (gpt-2, tc-road)
        camp = schedule_by_camp(skx_machine, pair, "cxl-a",
                                skx_cxla_calibration)
        mpki = schedule_by_mpki(skx_machine, pair, "cxl-a")
        # MPKI keeps high-miss tc-road in DRAM; CAMP protects gpt-2.
        assert mpki.fast_workload == "tc-road"
        assert camp.fast_workload == "gpt-2"

    def test_outcome_metrics(self, skx_machine, skx_cxla_calibration):
        pair = colocation_pairs()[1]
        outcome = schedule_by_camp(skx_machine, pair, "cxl-a",
                                   skx_cxla_calibration)
        assert len(outcome.slowdowns) == 2
        assert outcome.weighted_speedup > 0.0

    @pytest.mark.parametrize("scheduler", ["camp", "mpki"])
    def test_profiling_runs_are_the_solo_baselines(
            self, skx_machine, skx_cxla_calibration, monkeypatch,
            scheduler):
        # The DRAM-only runs the scheduler profiles are its slowdown
        # baselines: two Machine.run calls per pair, none repeated.
        calls = []
        run = Machine.run

        def counting_run(machine, *args, **kwargs):
            calls.append(args[0].name)
            return run(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting_run)
        pair = colocation_pairs()[1]
        if scheduler == "camp":
            outcome = schedule_by_camp(skx_machine, pair, "cxl-a",
                                       skx_cxla_calibration)
        else:
            outcome = schedule_by_mpki(skx_machine, pair, "cxl-a")
        assert sorted(calls) == sorted(w.name for w in pair)
        monkeypatch.undo()
        by_name = {w.name: w for w in pair}
        for name, solo in zip((outcome.fast_workload,
                               outcome.slow_workload),
                              outcome.solo_cycles):
            assert solo == skx_machine.run(
                by_name[name], Placement.dram_only()).cycles

    def test_mixed_colocation_policies(self, skx_machine,
                                       skx_cxla_calibration):
        bw = get_workload("654.roms").with_threads(10)
        lat = get_workload("557.xz")
        total = bw.footprint_gib + lat.footprint_gib

        def run_all(share):
            return {
                policy: mixed_colocation(
                    skx_machine, bw, lat, "cxl-a", share * total,
                    skx_cxla_calibration, policy=policy)
                for policy in ("best-shot", "first-touch", "nbt",
                               "colloid")}

        # Mid provisioning: Best-shot within a few percent of the best
        # baseline (prediction error under interference); generous
        # provisioning: strictly best.
        mid = run_all(0.6)
        best_mid = mid.pop("best-shot").weighted_speedup
        assert best_mid >= max(o.weighted_speedup
                               for o in mid.values()) - 0.06
        rich = run_all(0.8)
        best_rich = rich.pop("best-shot").weighted_speedup
        assert best_rich > max(o.weighted_speedup
                               for o in rich.values())

    def test_mixed_colocation_unknown_policy(self, skx_machine,
                                             skx_cxla_calibration):
        bw = get_workload("654.roms")
        lat = get_workload("557.xz")
        with pytest.raises(ValueError):
            mixed_colocation(skx_machine, bw, lat, "cxl-a", 10.0,
                             skx_cxla_calibration, policy="magic")
