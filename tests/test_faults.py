"""The fault-injection layer and the resilient executor.

docs/FAULTS.md promises: deterministic seeded fault plans, injectors
that strike each seam the way real deployments fail, an executor that
degrades gracefully (serial fallback, bounded retries, deterministic
errors propagate), and prediction that survives any single missing
Table 5 counter.
"""

import marshal
import math
import pickle

import pytest

from repro.core.calibration import calibrate
from repro.core.counters import Counter, CounterSample
from repro.core.online import OnlinePredictor
from repro.core.signature import (EXPECTED_COUNTERS, cache_level_stalls,
                                  demand_stalls, mem_prefetch_reliance,
                                  signature_from_sample)
from repro.core.slowdown import SlowdownPredictor
from repro.faults import (SCHEDULES, CounterFault, CounterInjector,
                          FaultPlan, LatencyInjector, StoreFault,
                          TierFault, WorkerFault, named_plan)
from repro.runtime import executor as executor_mod
from repro.runtime import serde
from repro.runtime.errors import RetryPolicy, TransientTaskError
from repro.runtime.executor import Executor
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.uarch import Machine, Placement, SKX2S, memory
from repro.uarch.config import get_device
from repro.workloads import get_workload
from repro.workloads.phases import tc_kron_phased

PAPER_IDS = tuple(f"P{index}" for index in range(1, 18))


@pytest.fixture(scope="module")
def machine():
    return Machine(SKX2S)


@pytest.fixture(scope="module")
def calibration(machine):
    return calibrate(machine, "cxl-a")


@pytest.fixture(scope="module")
def phased_profile(machine):
    return machine.profile_phased(tc_kron_phased(cycles=2))


def specs_for(machine, names=("605.mcf", "557.xz", "603.bwaves")):
    specs = []
    for name in names:
        workload = get_workload(name)
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.dram_only()))
        specs.append(RunSpec.from_machine(machine, workload,
                                          Placement.slow_only("cxl-a")))
    return specs


def snapshot(results):
    return [(r.cycles, r.counters.as_dict()) for r in results]


def full_sample():
    """A complete Table 5 sample with easy-to-check stall values."""
    return CounterSample({
        Counter.CYCLES: 1000.0, Counter.INSTRUCTIONS: 800.0,
        Counter.STALLS_L1D_MISS: 400.0, Counter.STALLS_L2_MISS: 300.0,
        Counter.STALLS_L3_MISS: 200.0, Counter.L1_MISS: 50.0,
        Counter.LFB_HIT: 30.0, Counter.BOUND_ON_STORES: 60.0,
        Counter.PF_L1D_ANY_RESPONSE: 100.0, Counter.PF_L1D_L3_HIT: 40.0,
        Counter.PF_L2_ANY_RESPONSE: 80.0, Counter.PF_L2_L3_HIT: 30.0,
        Counter.ORO_DEMAND_RD: 5000.0, Counter.OR_DEMAND_RD: 90.0,
        Counter.ORO_CYC_W_DEMAND_RD: 500.0,
        Counter.LLC_LOOKUP_PF_RD: 70.0, Counter.LLC_LOOKUP_ALL: 140.0,
        Counter.TOR_INS_IA_PREF: 60.0, Counter.TOR_INS_IA_HIT_PREF: 20.0,
    })


def without(sample, *counters):
    values = {counter: value for counter, value in sample.items()
              if counter not in counters}
    return CounterSample(values)


class TestPlanDeterminism:
    def test_same_seed_same_decisions(self):
        first = named_plan("default", seed=7)
        second = named_plan("default", seed=7)
        for index in range(32):
            assert (first.worker_action(index, 0) ==
                    second.worker_action(index, 0))
            assert (first.counter_action("w", f"P{index % 17 + 1}") ==
                    second.counter_action("w", f"P{index % 17 + 1}"))
            assert (first.store_action(f"{index:064x}") ==
                    second.store_action(f"{index:064x}"))

    def test_reseeding_changes_the_draws(self):
        base = named_plan("default", seed=0)
        other = base.reseeded(1)
        assert other.seed == 1
        assert other.counter_faults == base.counter_faults
        sites = [(base.worker_action(i, 0), other.worker_action(i, 0))
                 for i in range(64)]
        assert any(a != b for a, b in sites)

    def test_worker_faults_only_on_first_attempt(self):
        plan = FaultPlan(worker_faults=(WorkerFault("crash", 1.0),))
        for index in range(8):
            assert plan.worker_action(index, attempt=0) is not None
            assert plan.worker_action(index, attempt=1) is None

    def test_cycles_is_exempt(self):
        plan = FaultPlan(counter_faults=(CounterFault("*", "drop", 1.0),))
        assert plan.counter_action("anywhere", "cycles") is None
        assert plan.counter_action("anywhere", "P3") is not None

    def test_star_tier_faults_spare_dram(self):
        plan = FaultPlan(tier_faults=(TierFault("*", "spike", 1.0),))
        assert plan.tier_action("dram", 0) is None
        assert plan.tier_action("cxl-a", 0) is not None

    def test_plans_are_picklable(self):
        plan = named_plan("default", seed=3)
        assert pickle.loads(pickle.dumps(plan)) == plan

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_named_schedules_instantiate(self, name):
        plan = named_plan(name, seed=11)
        assert plan.name == name
        assert plan.seed == 11

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            named_plan("nonsense")

    def test_declarations_validate(self):
        with pytest.raises(ValueError):
            CounterFault("P3", "explode", 0.5)
        with pytest.raises(ValueError):
            CounterFault("P3", "drop", 1.5)
        with pytest.raises(ValueError):
            TierFault("cxl-a", "spike", 0.5, magnitude=-1.0)
        with pytest.raises(ValueError):
            WorkerFault("crash", 0.5, hang_s=-1.0)
        with pytest.raises(ValueError):
            StoreFault("scribble", 0.5)


class TestCounterInjector:
    def test_drop_removes_everything_but_cycles(self):
        plan = FaultPlan(counter_faults=(CounterFault("*", "drop", 1.0),))
        injector = CounterInjector(plan)
        faulted = injector.apply(full_sample(), "ctx")
        assert Counter.CYCLES in faulted
        for counter in EXPECTED_COUNTERS:
            assert counter not in faulted
        assert injector.injected["counter_drop"] == len(EXPECTED_COUNTERS)

    def test_zero_keeps_the_event_present(self):
        plan = FaultPlan(counter_faults=(CounterFault("P3", "zero", 1.0),))
        faulted = CounterInjector(plan).apply(full_sample(), "ctx")
        assert Counter.STALLS_L3_MISS in faulted
        assert faulted[Counter.STALLS_L3_MISS] == 0.0

    def test_perturb_scales_within_magnitude(self):
        plan = FaultPlan(counter_faults=(
            CounterFault("P3", "perturb", 1.0, magnitude=0.25),))
        injector = CounterInjector(plan)
        sample = full_sample()
        faulted = injector.apply(sample, "ctx")
        clean = sample[Counter.STALLS_L3_MISS]
        value = faulted[Counter.STALLS_L3_MISS]
        assert value != clean
        assert 0.75 * clean <= value <= 1.25 * clean
        again = injector.apply(sample, "ctx")
        assert again[Counter.STALLS_L3_MISS] == value


class TestSignatureFallbacks:
    def test_demand_stalls_chain(self):
        sample = full_sample()
        assert demand_stalls(sample) == 200.0                    # P3
        assert demand_stalls(
            without(sample, Counter.STALLS_L3_MISS)) == 300.0    # -> P2
        assert demand_stalls(
            without(sample, Counter.STALLS_L3_MISS,
                    Counter.STALLS_L2_MISS)) == 400.0            # -> P1
        assert demand_stalls(
            without(sample, Counter.STALLS_L3_MISS,
                    Counter.STALLS_L2_MISS,
                    Counter.STALLS_L1D_MISS)) == 0.0

    def test_cache_band_falls_back_to_other_family(self):
        sample = full_sample()
        assert cache_level_stalls(sample, "skx") == 100.0        # P1-P2
        degraded = without(sample, Counter.STALLS_L1D_MISS)
        assert cache_level_stalls(degraded, "skx") == 100.0      # P2-P3
        bare = without(sample, Counter.STALLS_L1D_MISS,
                       Counter.STALLS_L3_MISS)
        assert cache_level_stalls(bare, "skx") == 0.0

    def test_prefetch_reliance_swaps_proxy(self):
        sample = full_sample()
        offcore = mem_prefetch_reliance(sample, "skx")
        assert offcore == pytest.approx(0.6)                     # (P7-P8)/P7
        uncore = mem_prefetch_reliance(
            without(sample, Counter.PF_L1D_ANY_RESPONSE), "skx")
        assert uncore == pytest.approx(0.5 * 0.75)               # proxy
        neither = without(sample, Counter.PF_L1D_ANY_RESPONSE,
                          Counter.LLC_LOOKUP_ALL)
        assert mem_prefetch_reliance(neither, "skx") == 0.0

    def test_signature_records_absences(self):
        degraded = signature_from_sample(
            without(full_sample(), Counter.STALLS_L3_MISS,
                    Counter.OR_DEMAND_RD), "skx", 2.1)
        assert degraded.missing == ("P3", "P12")
        assert degraded.degraded
        assert degraded.confidence == pytest.approx(
            1.0 - 2 / len(EXPECTED_COUNTERS))
        clean = signature_from_sample(full_sample(), "skx", 2.1)
        assert clean.missing == ()
        assert not clean.degraded
        assert clean.confidence == 1.0


class TestDegradedPrediction:
    @pytest.mark.parametrize("counter_id", PAPER_IDS)
    def test_any_single_counter_drop_still_predicts_every_window(
            self, counter_id, calibration, phased_profile):
        plan = FaultPlan(seed=0, counter_faults=(
            CounterFault(counter_id, "drop", 1.0),))
        injector = CounterInjector(plan)
        online = OnlinePredictor(calibration,
                                 phased_profile.platform_family,
                                 phased_profile.frequency_ghz)
        for index, window in enumerate(phased_profile.windows):
            update = online.observe(injector.apply(window, index))
            assert math.isfinite(update.instant.total)
        assert len(online.history) == len(phased_profile.windows)
        assert all(update.degraded for update in online.history)
        assert online.degraded_fraction == 1.0

    def test_aggregate_prediction_is_flagged(self, calibration, machine):
        profile = machine.profile(get_workload("605.mcf"))
        predictor = SlowdownPredictor(calibration)
        clean = predictor.predict(profile)
        assert not clean.degraded and clean.confidence == 1.0

        plan = FaultPlan(counter_faults=(CounterFault("P3", "drop", 1.0),))
        faulted = CounterInjector(plan).apply(profile.sample, "605.mcf")
        sig = signature_from_sample(faulted, profile.platform_family,
                                    profile.frequency_ghz)
        prediction = predictor.predict_signature(sig)
        assert prediction.degraded
        assert prediction.confidence < 1.0
        assert math.isfinite(prediction.total)


class TestLatencyInjector:
    """A run draws one fault per tier and applies it to that tier's
    loaded latency in every solver evaluation (docs/FAULTS.md)."""

    WORKLOAD = "605.mcf"

    def slow_run(self, machine):
        return machine.run(get_workload(self.WORKLOAD),
                           Placement.slow_only("cxl-a"))

    def nominal_ns(self, result):
        # The kernel itself never sees the hook: the loaded latency
        # at the run's own operating point (escalation 1 here).
        return memory.loaded_latency_ns(
            get_device("cxl-a"), result.slow_utilization,
            get_workload(self.WORKLOAD).tail_sensitivity)

    def test_spike_multiplies_loaded_latency(self, machine):
        plan = FaultPlan(tier_faults=(
            TierFault("cxl-a", "spike", 1.0, magnitude=2.0),))
        clean = self.slow_run(machine)
        with LatencyInjector(plan) as injector:
            faulted = self.slow_run(machine)
        assert faulted.converged
        assert faulted.slow_latency_ns == pytest.approx(
            3.0 * self.nominal_ns(faulted), rel=1e-6)
        assert faulted.cycles > clean.cycles
        assert injector.injected == {"tier_spike": 1}
        assert self.slow_run(machine).cycles == clean.cycles

    def test_stall_adds_flat_nanoseconds(self, machine):
        plan = FaultPlan(tier_faults=(
            TierFault("cxl-a", "stall", 1.0, magnitude=150.0),))
        with LatencyInjector(plan) as injector:
            faulted = self.slow_run(machine)
        assert faulted.converged
        assert faulted.slow_latency_ns == pytest.approx(
            self.nominal_ns(faulted) + 150.0, rel=1e-6)
        assert injector.injected == {"tier_stall": 1}

    def test_star_faults_spare_local_dram(self, machine):
        plan = FaultPlan(tier_faults=(
            TierFault("*", "spike", 1.0, magnitude=2.0),
            TierFault("*", "stall", 1.0, magnitude=150.0)))
        workload = get_workload(self.WORKLOAD)
        clean = machine.run(workload)
        with LatencyInjector(plan) as injector:
            hooked = machine.run(workload)
        assert injector.injected == {}
        assert serde.run_result_to_dict(hooked) == \
            serde.run_result_to_dict(clean)

    def test_hooked_solves_converge_under_tiers(self, machine):
        with LatencyInjector(named_plan("tiers")) as injector:
            results = [machine.run(get_workload(name),
                                   Placement.slow_only(device))
                       for name in ("605.mcf", "557.xz", "603.bwaves")
                       for device in ("cxl-a", "cxl-b")]
        assert sum(injector.injected.values()) > 0
        assert all(result.converged for result in results)

    def placements(self):
        return (Placement.dram_only(), Placement.slow_only("cxl-a"),
                Placement.interleaved(0.5, "cxl-b"))

    def recorded_calls(self, solve):
        calls = []

        def identity(tier):
            calls.append(tier)
            return 1.0, 0.0

        previous = memory.set_latency_fault_hook(identity)
        try:
            results = solve()
        finally:
            memory.set_latency_fault_hook(previous)
        return calls, results

    def test_hook_asked_once_per_tier_per_run(self, machine):
        workload = get_workload(self.WORKLOAD)
        calls, _ = self.recorded_calls(lambda: [
            machine.run(workload, placement)
            for placement in self.placements()])
        assert calls == ["dram", "dram", "cxl-a", "dram", "cxl-b"]

    def test_batch_asks_hook_in_lane_order(self, machine):
        # One call per lane and tier, DRAM then slow, in lane order:
        # the sequence looped run() makes, so seeded draws line up.
        workload = get_workload(self.WORKLOAD)
        pairs = [(workload, placement) for placement in self.placements()]
        looped, _ = self.recorded_calls(
            lambda: [machine.run(w, p) for w, p in pairs])
        batched, _ = self.recorded_calls(lambda: machine.run_batch(pairs))
        assert batched == looped

    def test_identity_hook_leaves_runs_bit_identical(self, machine):
        workload = get_workload(self.WORKLOAD)
        pairs = [(workload, placement) for placement in self.placements()]
        clean = [machine.run(w, p) for w, p in pairs]
        _, looped = self.recorded_calls(
            lambda: [machine.run(w, p) for w, p in pairs])
        _, batched = self.recorded_calls(lambda: machine.run_batch(pairs))
        want = [serde.run_result_to_dict(result) for result in clean]
        assert [serde.run_result_to_dict(r) for r in looped] == want
        assert [serde.run_result_to_dict(r) for r in batched] == want

    @pytest.mark.parametrize("mode, magnitude",
                             [("spike", 2.0), ("stall", 150.0)])
    def test_fault_strikes_rfo_latency_too(self, machine, mode,
                                           magnitude):
        # RFO latency derives from the one faulted loaded latency.
        plan = FaultPlan(tier_faults=(
            TierFault("cxl-a", mode, 1.0, magnitude=magnitude),))
        clean = self.slow_run(machine)
        with LatencyInjector(plan):
            faulted = self.slow_run(machine)
        factor = get_device("cxl-a").rfo_latency_factor
        assert faulted.rfo_ns == pytest.approx(
            factor * faulted.tier_read_ns, rel=1e-6)
        assert faulted.rfo_ns > clean.rfo_ns

    def test_hook_restored_after_exception(self):
        plan = named_plan("tiers")
        with pytest.raises(RuntimeError, match="boom"):
            with LatencyInjector(plan):
                raise RuntimeError("boom")
        assert memory._LATENCY_FAULT_HOOK is None

    def test_not_reentrant(self):
        injector = LatencyInjector(named_plan("tiers"))
        with injector:
            with pytest.raises(RuntimeError):
                injector.__enter__()
        assert memory._LATENCY_FAULT_HOOK is None


class TestResilientExecutor:
    def test_fault_plan_disconnects_the_store(self, machine, tmp_path):
        spec = specs_for(machine, ("557.xz",))[0]
        store = ResultStore(tmp_path / "cache")
        Executor(store=store).run_one(spec)     # seed the cache
        assert store.stats.writes == 1

        chaotic = Executor(store=store, fault_plan=FaultPlan())
        chaotic.run_one(spec)
        assert store.stats.writes == 1          # write bypassed
        assert chaotic.telemetry.counters.get("store_hits", 0) == 0
        assert chaotic.telemetry.counters["tainted_skips"] == 1
        assert chaotic.miss_count == 1

    def test_pool_crashes_recover_exact_results(self, machine):
        specs = specs_for(machine)
        clean = snapshot(Executor().run(specs))

        plan = FaultPlan(worker_faults=(WorkerFault("crash", 1.0),))
        chaotic = Executor(jobs=2, fault_plan=plan)
        assert snapshot(chaotic.run(specs)) == clean
        assert chaotic.telemetry.counters["pool_fallbacks"] == 1
        assert chaotic.telemetry.counters["injected_crash"] == len(specs)

    def test_partial_crash_remainder_runs_once(self, machine):
        # Seed-0 draws crash only a subset of the batch; the serial
        # fallback must fill in exactly the remainder, in input order.
        specs = specs_for(machine)
        clean = snapshot(Executor().run(specs))
        plan = FaultPlan(seed=0,
                         worker_faults=(WorkerFault("crash", 0.5),))
        chaotic = Executor(jobs=2, fault_plan=plan)
        results = chaotic.run(specs)
        assert snapshot(results) == clean
        assert chaotic.telemetry.counters["pool_fallbacks"] == 1
        injected = chaotic.telemetry.counters["injected_crash"]
        assert 0 < injected < len(specs)

    def test_serial_and_pool_agree_byte_for_byte_under_crashes(
            self, machine):
        # A fault plan sends -j 1 through per-spec serial retries and
        # -j 2 through per-spec faulted pool tasks plus the serial
        # remainder; both must serialize exactly like a clean run.
        specs = specs_for(machine, ("605.mcf", "557.xz", "603.bwaves",
                                    "619.lbm", "gpt-2", "xsbench"))
        assert len(specs) >= 10

        def encoded(results):
            return [marshal.dumps(serde.run_result_to_dict(result), 4)
                    for result in results]

        clean = encoded(Executor(jobs=1).run(specs))
        plan = FaultPlan(seed=0,
                         worker_faults=(WorkerFault("crash", 0.5),))
        for jobs in (1, 2):
            chaotic = Executor(jobs=jobs, fault_plan=plan,
                               retry=RetryPolicy(backoff_s=0.0))
            assert encoded(chaotic.run(specs)) == clean, jobs
            assert chaotic.telemetry.counters["injected_crash"] > 0

    def test_faulted_serial_run_hashes_each_spec_once(self, machine,
                                                      monkeypatch):
        # The per-spec serial path labels its task span and keys its
        # retry jitter with the batch's own keys, never re-hashing.
        specs = specs_for(machine)
        clean = [marshal.dumps(serde.run_result_to_dict(result), 4)
                 for result in Executor(jobs=1).run(specs)]
        hashed = []
        fingerprint = RunSpec.fingerprint

        def counting(spec, fragments=None):
            hashed.append(id(spec))
            return fingerprint(spec, fragments)

        monkeypatch.setattr(RunSpec, "fingerprint", counting)
        plan = FaultPlan(worker_faults=(WorkerFault("crash", 1.0),))
        chaotic = Executor(jobs=1, fault_plan=plan,
                           retry=RetryPolicy(backoff_s=0.0))
        results = chaotic.run(specs)
        assert sorted(hashed) == sorted(id(spec) for spec in specs)
        assert chaotic.telemetry.counters["retries"] == len(specs)
        assert [marshal.dumps(serde.run_result_to_dict(result), 4)
                for result in results] == clean

    def test_hang_past_timeout_falls_back(self, machine):
        specs = specs_for(machine, ("557.xz",))
        plan = FaultPlan(worker_faults=(
            WorkerFault("hang", 1.0, hang_s=1.0),))
        # Zero warm-up grace: the injected hang (1 s) must trip the
        # 0.2 s deadline even on a cold pool.
        chaotic = Executor(jobs=2, fault_plan=plan, task_timeout=0.2,
                           pool_warmup_grace_s=0.0)
        results = chaotic.run(specs)
        assert snapshot(results) == snapshot(Executor().run(specs))
        assert chaotic.telemetry.counters["pool_fallbacks"] == 1
        assert chaotic.telemetry.counters["injected_hang"] == len(specs)

    def test_serial_injected_fault_retries_transparently(self, machine):
        spec = specs_for(machine, ("557.xz",))[0]
        plan = FaultPlan(worker_faults=(WorkerFault("crash", 1.0),))
        chaotic = Executor(jobs=1, fault_plan=plan,
                           retry=RetryPolicy(backoff_s=0.0))
        result = chaotic.run_one(spec)
        direct = machine.run(spec.workload, spec.placement)
        assert result.cycles == direct.cycles
        assert chaotic.telemetry.counters["injected_crash"] == 1
        assert chaotic.telemetry.counters["retries"] == 1

    def test_retry_budget_exhaustion_raises(self, machine, monkeypatch):
        spec = specs_for(machine, ("557.xz",))[0]

        def always_transient(_spec):
            raise TransientTaskError("permanently flaky")

        monkeypatch.setattr(executor_mod, "execute_run_spec",
                            always_transient)
        executor = Executor(retry=RetryPolicy(max_attempts=2,
                                              backoff_s=0.0))
        with pytest.raises(TransientTaskError):
            executor.run([spec])
        assert executor.telemetry.counters["retries"] == 1

    def test_deterministic_errors_propagate(self, machine, monkeypatch):
        spec = specs_for(machine, ("557.xz",))[0]

        def bad_spec(_spec):
            raise ValueError("bad spec")

        monkeypatch.setattr(executor_mod, "execute_run_spec", bad_spec)
        executor = Executor()
        with pytest.raises(ValueError, match="bad spec"):
            executor.run([spec])
        assert executor.telemetry.counters.get("retries", 0) == 0

    def test_map_propagates_deterministic_errors(self):
        executor = Executor(jobs=2)
        with pytest.raises(ValueError, match="item 2"):
            executor.map(_explode, [1, 2, 3])
        assert executor.telemetry.counters.get("pool_fallbacks", 0) == 0

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            Executor(task_timeout=0)


def _explode(item):
    if item == 2:
        raise ValueError("item 2 is deterministically bad")
    return item
