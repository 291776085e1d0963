"""Equivalence and acceleration guarantees of the batched solver.

The contract (docs/SOLVER.md): in replay mode ``Machine.run_batch`` is
bit-identical to looped ``Machine.run`` — same cycles, same counters,
same convergence flags, even when the iteration cap truncates some
lanes.  Accelerated mode (Anderson + warm starts) reaches the same
fixed point within ``ACCELERATED_RELATIVE_TOLERANCE`` in far fewer
outer iterations.  The executor's serial batch path must preserve the
runtime's byte-identity guarantee on top of that.
"""

import itertools
import random

import pytest

import repro.uarch.machine as machine_mod
from repro.faults import LatencyInjector, named_plan
from repro.runtime.executor import MIN_BATCH_GROUP, Executor
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.uarch import EMR2S, Machine, Placement, SKX2S, SPR2S
from repro.uarch.machine import ACCELERATED_RELATIVE_TOLERANCE
from repro.uarch.memory import MAX_UTILIZATION, set_latency_fault_hook
from repro.workloads import get_workload
from repro.workloads.suites import evaluation_suite

#: A spread of memory behaviors: latency-bound, compute-leaning,
#: bandwidth-hungry, store-heavy, and an ML inference profile.
WORKLOADS = ("605.mcf", "557.xz", "603.bwaves", "619.lbm", "gpt-2")


def mixed_pairs():
    """(workload, placement) problems spanning tiers and ratios."""
    pairs = []
    for offset, name in enumerate(WORKLOADS):
        workload = get_workload(name)
        pairs.append((workload, Placement.dram_only()))
        pairs.append((workload, Placement.slow_only("cxl-a")))
        pairs.append((workload,
                      Placement.interleaved(0.25 + 0.15 * offset,
                                            "cxl-a")))
    return pairs


def sweep_pairs(name="603.bwaves", points=20, device="cxl-a"):
    workload = get_workload(name).with_threads(10)
    pairs = []
    for index in range(points):
        x = 1.0 - index / (points - 1)
        placement = (Placement.dram_only() if x >= 1.0 else
                     Placement.slow_only(device) if x <= 0.0 else
                     Placement.interleaved(x, device))
        pairs.append((workload, placement))
    return pairs


def assert_bit_identical(batch, scalar):
    assert len(batch) == len(scalar)
    for got, want in zip(batch, scalar):
        assert got.converged == want.converged
        assert got.cycles == want.cycles
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.observed_read_ns == want.observed_read_ns
        assert got.tier_read_ns == want.tier_read_ns
        assert got.rfo_ns == want.rfo_ns
        assert got.dram_latency_ns == want.dram_latency_ns
        assert got.slow_latency_ns == want.slow_latency_ns
        assert got.dram_gbps == want.dram_gbps
        assert got.slow_gbps == want.slow_gbps
        assert got.runtime_s == want.runtime_s


def relative_error(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def record_inner_starts(monkeypatch):
    """Record each batched cycle accounting's ``start_cycles`` and the
    cycles it returned, in call order."""
    calls = []
    real = machine_mod.account_cycles_batch

    def recording(params, flow, latency_ctx, start_cycles=None):
        breakdown = real(params, flow, latency_ctx,
                         start_cycles=start_cycles)
        calls.append((start_cycles, breakdown.cycles))
        return breakdown

    monkeypatch.setattr(machine_mod, "account_cycles_batch", recording)
    return calls


class TestReplayEquivalence:
    """Default mode replays the scalar arithmetic bit-for-bit."""

    def test_matches_looped_run_exactly(self, skx_machine):
        pairs = mixed_pairs()
        batch = skx_machine.run_batch(pairs)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        assert_bit_identical(batch, scalar)

    def test_single_pair(self, spr_machine):
        workload = get_workload("605.mcf")
        placement = Placement.interleaved(0.6, "cxl-a")
        batch = spr_machine.run_batch([(workload, placement)])
        assert_bit_identical(batch,
                             [spr_machine.run(workload, placement)])

    def test_all_identical_pairs(self, skx_machine):
        workload = get_workload("619.lbm")
        placement = Placement.slow_only("cxl-a")
        batch = skx_machine.run_batch([(workload, placement)] * 8)
        scalar = skx_machine.run(workload, placement)
        assert_bit_identical(batch, [scalar] * 8)

    def test_empty_batch(self, skx_machine):
        stats = {}
        assert skx_machine.run_batch([], stats=stats) == []
        assert stats["problems"] == 0

    def test_none_placement_means_dram_only(self, skx_machine):
        workload = get_workload("557.xz")
        batch = skx_machine.run_batch([(workload, None)])
        assert_bit_identical(batch, [skx_machine.run(workload)])

    def test_external_traffic_matches_scalar(self, skx_machine):
        workload = get_workload("603.bwaves").with_threads(10)
        placement = Placement.interleaved(0.5, "cxl-a")
        externals = [None, {"dram": 18.0, "cxl-a": 9.0}]
        batch = skx_machine.run_batch(
            [(workload, placement)] * 2, externals)
        scalar = [skx_machine.run(workload, placement, external)
                  for external in externals]
        assert_bit_identical(batch, scalar)
        assert batch[1].cycles > batch[0].cycles

    def test_external_traffic_must_align(self, skx_machine):
        with pytest.raises(ValueError):
            skx_machine.run_batch(mixed_pairs()[:3], [None])

    def test_mixed_converged_and_capped_lanes(self, skx_machine,
                                              monkeypatch):
        # At 50 outer iterations 557.xz settles (~37) while the
        # bandwidth-saturating bwaves lanes (~300) hit the cap: the
        # batch must reproduce the scalar solver's truncated iterates
        # and convergence flags exactly, not just the converged ones.
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 50)
        pairs = [(get_workload("603.bwaves").with_threads(10),
                  Placement.slow_only("cxl-a")),
                 (get_workload("557.xz"), Placement.dram_only()),
                 (get_workload("603.bwaves").with_threads(10),
                  Placement.interleaved(0.5, "cxl-a"))]
        stats = {}
        batch = skx_machine.run_batch(pairs, stats=stats)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        assert [r.converged for r in batch] == [False, True, False]
        assert stats["nonconverged"] == 2
        assert_bit_identical(batch, scalar)

    def test_stats_telemetry(self, skx_machine):
        stats = {}
        skx_machine.run_batch(mixed_pairs(), stats=stats)
        assert stats["mode"] == "replay"
        assert stats["problems"] == len(mixed_pairs())
        assert stats["outer_iterations"] > 0
        assert stats["nonconverged"] == 0

    def test_inner_loop_always_starts_cold(self, skx_machine, monkeypatch):
        # The scalar solver cold-starts its cycle accounting in every
        # outer evaluation; replay must too, or it stops being exact.
        starts = record_inner_starts(monkeypatch)
        skx_machine.run_batch(sweep_pairs(points=5))
        assert len(starts) > 1
        assert all(start is None for start, _ in starts)


class TestAcceleratedMode:
    """Anderson acceleration: same fixed point, far fewer iterations."""

    def test_within_documented_tolerance(self, skx_machine):
        pairs = mixed_pairs()
        batch = skx_machine.run_batch(pairs, accelerate=True)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        for got, want in zip(batch, scalar):
            assert got.converged
            assert relative_error(got.cycles, want.cycles) <= \
                ACCELERATED_RELATIVE_TOLERANCE
            assert relative_error(got.observed_read_ns,
                                  want.observed_read_ns) <= \
                ACCELERATED_RELATIVE_TOLERANCE

    def test_cuts_outer_iterations(self, skx_machine):
        pairs = sweep_pairs(points=21)
        replay_stats, accel_stats = {}, {}
        skx_machine.run_batch(pairs, stats=replay_stats)
        skx_machine.run_batch(pairs, accelerate=True, stats=accel_stats)
        assert accel_stats["mode"] == "accelerated"
        assert accel_stats["outer_iterations"] < \
            replay_stats["outer_iterations"] / 2

    def test_cap_exhaustion_falls_back_to_replay(self, skx_machine,
                                                 monkeypatch):
        # When the accelerated loop cannot settle a lane it re-solves
        # that lane under plain damping, so accelerated results are
        # never worse-converged than replay ones.
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 50)
        pairs = sweep_pairs(points=5)
        stats = {}
        batch = skx_machine.run_batch(pairs, accelerate=True,
                                      stats=stats)
        scalar = [skx_machine.run(w, p) for w, p in pairs]
        for got, want in zip(batch, scalar):
            if not got.converged:
                # Replayed lanes reproduce the scalar truncation.
                assert got.cycles == want.cycles
        assert stats["replay_resolves"] == stats["nonconverged"]

    def test_repeat_solve_is_bit_identical(self, skx_machine):
        # No solve leaves state behind for the next one: the second
        # pass over the same sweep does the same work, to the same bits.
        pairs = sweep_pairs(points=21)
        first_stats, second_stats = {}, {}
        first = skx_machine.run_batch(pairs, accelerate=True,
                                      stats=first_stats)
        second = skx_machine.run_batch(pairs, accelerate=True,
                                       stats=second_stats)
        assert_bit_identical(second, first)
        assert second_stats == first_stats

    def test_lane_does_not_depend_on_its_batch_partners(self,
                                                         skx_machine):
        pairs = mixed_pairs() + sweep_pairs(points=7)
        batch = skx_machine.run_batch(pairs, accelerate=True)
        alone = [skx_machine.run_batch([pair], accelerate=True)[0]
                 for pair in pairs]
        reversed_batch = skx_machine.run_batch(pairs[::-1],
                                               accelerate=True)
        assert_bit_identical(alone, batch)
        assert_bit_identical(reversed_batch[::-1], batch)

    def test_inner_loop_starts_from_the_previous_evaluation(
            self, skx_machine, monkeypatch):
        # The one warm start accelerated mode keeps inside a solve: the
        # first evaluation's cycle accounting starts cold, every later
        # one from the cycles the evaluation before it returned.
        starts = record_inner_starts(monkeypatch)
        skx_machine.run_batch(sweep_pairs(points=5), accelerate=True)
        assert len(starts) > 1
        assert starts[0][0] is None
        for (start, _), (_, previous) in zip(starts[1:], starts):
            assert start is not None
            assert (start == previous).all()


class TestRunBatchMulti:
    """One masked batch across machine identities (docs/SOLVER.md)."""

    def platform_specs(self):
        specs = []
        for platform in (SKX2S, SPR2S, EMR2S):
            machine = Machine(platform)
            for workload, placement in mixed_pairs()[:5]:
                specs.append(RunSpec.from_machine(machine, workload,
                                                  placement))
        return specs

    def identity_specs(self):
        specs = []
        for noise, seed in ((0.0, 0), (0.0, 7), (0.02, 0), (0.02, 7)):
            machine = Machine(SKX2S, noise=noise, seed=seed)
            for workload, placement in mixed_pairs()[:3]:
                specs.append(RunSpec.from_machine(machine, workload,
                                                  placement))
        return specs

    def test_mixed_platform_replay_is_bit_identical(self):
        specs = self.platform_specs()
        batch = Machine.run_batch_multi(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(batch, scalar)

    def test_mixed_noise_and_seed_replay_is_bit_identical(self):
        specs = self.identity_specs()
        batch = Machine.run_batch_multi(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(batch, scalar)

    def test_results_carry_their_lane_platform(self):
        specs = self.platform_specs()
        batch = Machine.run_batch_multi(specs)
        assert [result.platform.name for result in batch] == \
            [spec.platform.name for spec in specs]

    def test_empty_specs(self):
        stats = {}
        assert Machine.run_batch_multi([], stats=stats) == []
        assert stats["problems"] == 0

    @pytest.mark.parametrize("population",
                             ["platform_specs", "identity_specs"])
    def test_accelerated_lane_is_its_own_machines_solve(self,
                                                        population):
        # Each lane carries its machine identity: solved among other
        # identities, it gets the bits its own machine's batch gives.
        specs = getattr(self, population)()
        batch = Machine.run_batch_multi(specs, accelerate=True)
        own = []
        for _, group in itertools.groupby(
                specs, key=lambda spec: (spec.platform.name, spec.noise,
                                         spec.seed)):
            group = list(group)
            own += group[0].machine().run_batch(
                [(spec.workload, spec.placement) for spec in group],
                accelerate=True)
        assert_bit_identical(batch, own)


class TestHookedReplay:
    """A latency fault hook is asked once per run and tier, when the
    solve starts, so hooked batches run the vectorized kernels and
    still replay the hooked scalar loop (docs/SOLVER.md)."""

    @pytest.mark.parametrize("schedule", ["tiers", "serve"])
    def test_hooked_batch_equals_hooked_scalar_loop(self, schedule):
        specs = [RunSpec.from_machine(Machine(platform), workload,
                                      placement)
                 for platform in (SKX2S, SPR2S)
                 for workload, placement in mixed_pairs() + [
                     (get_workload(name), Placement.slow_only("cxl-b"))
                     for name in WORKLOADS]]
        plan = named_plan(schedule, seed=3)
        with LatencyInjector(plan) as looped:
            scalar = [spec.machine().run(spec.workload, spec.placement)
                      for spec in specs]
        stats = {}
        with LatencyInjector(plan) as batched:
            batch = Machine.run_batch_multi(specs, stats=stats)
        assert stats["mode"] == "replay"
        assert stats["nonconverged"] == 0
        assert sum(looped.injected.values()) > 0
        assert batched.injected == looped.injected
        assert_bit_identical(batch, scalar)

    def test_hooked_run_batch_equals_hooked_scalar_loop(self,
                                                        skx_machine):
        pairs = mixed_pairs() + [
            (get_workload(name), Placement.slow_only("cxl-b"))
            for name in WORKLOADS]
        plan = named_plan("default", seed=3)
        with LatencyInjector(plan) as looped:
            scalar = [skx_machine.run(w, p) for w, p in pairs]
        with LatencyInjector(plan) as batched:
            batch = skx_machine.run_batch(pairs)
        assert sum(looped.injected.values()) > 0
        assert batched.injected == looped.injected
        assert_bit_identical(batch, scalar)

    def test_hooked_accelerated_batch_within_tolerance(self, skx_machine):
        # The accelerated kernels apply the same per-run faults; only
        # the trajectory to the fixed point differs.
        pairs = [(get_workload(name), Placement.slow_only(device))
                 for name in WORKLOADS
                 for device in ("numa", "cxl-a", "cxl-b", "cxl-c")]
        plan = named_plan("tiers", seed=3)
        with LatencyInjector(plan) as looped:
            scalar = [skx_machine.run(w, p) for w, p in pairs]
        stats = {}
        with LatencyInjector(plan) as batched:
            batch = skx_machine.run_batch(pairs, accelerate=True,
                                          stats=stats)
        assert stats["mode"] == "accelerated"
        assert sum(looped.injected.values()) > 0
        assert batched.injected == looped.injected
        for got, want in zip(batch, scalar):
            assert got.converged and want.converged
            assert relative_error(got.cycles, want.cycles) <= \
                ACCELERATED_RELATIVE_TOLERANCE
            assert relative_error(got.slow_latency_ns,
                                  want.slow_latency_ns) <= \
                ACCELERATED_RELATIVE_TOLERANCE


class TestAcceleratedPopulation:
    """The accelerated contract over the whole evaluation population."""

    PLACEMENTS = (Placement.dram_only(), Placement.slow_only("cxl-a"),
                  Placement.interleaved(0.5, "cxl-a"),
                  Placement.interleaved(0.25, "cxl-b"))
    FIELDS = ("cycles", "runtime_s", "observed_read_ns", "tier_read_ns",
              "rfo_ns", "dram_latency_ns", "slow_latency_ns",
              "dram_gbps", "slow_gbps")

    def test_within_tolerance_on_every_lane(self):
        specs = [RunSpec.from_machine(Machine(platform), workload,
                                      placement)
                 for platform in (SKX2S, SPR2S, EMR2S)
                 for workload in evaluation_suite(2026)
                 for placement in self.PLACEMENTS]
        assert len(specs) == 265 * 4 * 3
        stats = {}
        accelerated = Machine.run_batch_multi(specs, accelerate=True,
                                              stats=stats)
        replay = Machine.run_batch_multi(specs)
        assert stats["nonconverged"] == 0
        worst = 0.0
        for got, want in zip(accelerated, replay):
            for name in self.FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None
                elif b != 0.0:
                    worst = max(worst, relative_error(a, b))
                else:
                    assert abs(a) <= ACCELERATED_RELATIVE_TOLERANCE
        assert worst <= ACCELERATED_RELATIVE_TOLERANCE


def seeded_pairs(count):
    """``count`` seeded (DRAM, cxl-a slow-only) colocation pairs."""
    population = list(evaluation_suite(2026))
    rng = random.Random(2026)
    return [[(first, Placement.dram_only()),
             (second, Placement.slow_only("cxl-a"))]
            for first, second in (rng.sample(population, 2)
                                  for _ in range(count))]


def interleaved_pairs(count):
    """``count`` seeded pairs with both jobs interleaved on cxl-a."""
    population = list(evaluation_suite(2026))
    rng = random.Random(2027)
    pairs = []
    for _ in range(count):
        first, second = rng.sample(population, 2)
        pairs.append([
            (first, Placement.interleaved(round(rng.uniform(0.2, 0.8), 2),
                                          "cxl-a")),
            (second, Placement.interleaved(
                round(rng.uniform(0.2, 0.8), 2), "cxl-a"))])
    return pairs


class TestRunColocated:
    def test_joint_answer_is_each_jobs_fixed_point(self, skx_machine):
        # At the joint fixed point, re-solving a job alone under its
        # partner's final traffic gives back the job's cycles.
        for jobs in seeded_pairs(16):
            stats = {}
            results = skx_machine.run_colocated(jobs, stats=stats)
            assert stats["joint_converged"] is True
            for index, result in enumerate(results):
                partner = results[1 - index]
                external = {"dram": partner.dram_gbps}
                if partner.placement.device is not None:
                    external[partner.placement.device] = partner.slow_gbps
                alone = skx_machine.run(result.workload, result.placement,
                                        external_traffic=external)
                assert relative_error(result.cycles,
                                      alone.cycles) <= 1e-6

    @staticmethod
    def pinned_jobs(case):
        bwaves10 = get_workload("603.bwaves").with_threads(10)
        mcf, xsbench = get_workload("605.mcf"), get_workload("xsbench")
        return {
            "saturated": [(bwaves10, Placement.interleaved(0.3, "cxl-a")),
                          (mcf, Placement.interleaved(0.3, "cxl-a"))],
            "dram-slow": [(mcf, Placement.dram_only()),
                          (xsbench, Placement.slow_only("cxl-a"))],
            "interleaved": [(mcf, Placement.interleaved(0.6, "cxl-a")),
                            (xsbench, Placement.interleaved(0.4, "cxl-a"))],
        }[case]

    #: The saturated pair's cycles under the pinned joint scheme.
    SATURATED_CYCLES = (2480590718.442508, 29188551334.0381)

    @pytest.mark.parametrize("case,iterations", [
        ("saturated", 24), ("dram-slow", 3), ("interleaved", 5)])
    def test_joint_scheme_is_pinned(self, skx_machine, case, iterations):
        # A change to the joint step (the shared escalations, the
        # per-group Anderson step, the exit rule) must update these on
        # purpose (docs/SOLVER.md, "Grouped colocation solves").
        stats = {}
        results = skx_machine.run_colocated(self.pinned_jobs(case),
                                            stats=stats)
        assert stats["joint_iterations"] == iterations
        assert stats["joint_converged"] is True
        if case == "saturated":
            for result, cycles in zip(results, self.SATURATED_CYCLES):
                assert relative_error(result.cycles, cycles) <= 1e-7

    def test_joint_stats_surface_convergence(self, skx_machine):
        jobs = [(get_workload("605.mcf"), Placement.dram_only()),
                (get_workload("603.bwaves").with_threads(10),
                 Placement.slow_only("cxl-a"))]
        stats = {}
        results = skx_machine.run_colocated(jobs, stats=stats)
        assert len(results) == len(jobs)
        assert stats["joint_converged"] is True
        assert stats["joint_iterations"] > 0
        assert all(result.converged for result in results)

    def test_joint_iterations_start_from_the_previous_iterate(
            self, skx_machine, monkeypatch):
        # The first joint iteration solves cold; each later one starts
        # from the previous iterate's state and cycles.
        calls = []
        real = Machine._solve_batch

        def recording(machine, problem, state, accelerate, **kwargs):
            calls.append((accelerate, kwargs.get("start_cycles")))
            return real(machine, problem, state, accelerate, **kwargs)

        monkeypatch.setattr(Machine, "_solve_batch", recording)
        stats = {}
        skx_machine.run_colocated(self.pinned_jobs("saturated"),
                                  stats=stats)
        assert len(calls) == stats["joint_iterations"] > 1
        assert all(accelerate for accelerate, _ in calls)
        assert calls[0][1] is None
        assert all(start is not None for _, start in calls[1:])

    def test_repeat_colocation_is_bit_identical(self, skx_machine):
        jobs = self.pinned_jobs("saturated")
        first_stats, second_stats = {}, {}
        first = skx_machine.run_colocated(jobs, stats=first_stats)
        second = skx_machine.run_colocated(jobs, stats=second_stats)
        assert_bit_identical(second, first)
        assert second_stats == first_stats

    def test_empty_jobs(self, skx_machine):
        stats = {}
        assert skx_machine.run_colocated([], stats=stats) == []
        assert stats["joint_converged"] is True
        packed = {}
        skx_machine.run_colocated(seeded_pairs(1)[0], stats=packed)
        assert set(stats) == set(packed)


class TestSharedEscalation:
    """One escalation per (group, device) makes the answer unique.

    Both groups saturate their shared cxl-a: the joint loop's
    escalation then holds the device's total traffic at its capacity,
    and every job sees the device's one latency.
    """

    GROUPS = {
        "bwaves10+mcf": (
            ("603.bwaves", 10, 0.3), ("605.mcf", None, 0.3)),
        "roms10+mcf+xz": (
            ("654.roms", 10, 0.2), ("605.mcf", None, 0.0),
            ("557.xz", None, 0.5)),
    }

    @classmethod
    def jobs(cls, case):
        jobs = []
        for name, threads, dram_fraction in cls.GROUPS[case]:
            workload = get_workload(name)
            if threads is not None:
                workload = workload.with_threads(threads)
            jobs.append((workload,
                         Placement.interleaved(dram_fraction, "cxl-a")
                         if dram_fraction > 0 else
                         Placement.slow_only("cxl-a")))
        return jobs

    @pytest.mark.parametrize("case", sorted(GROUPS))
    def test_job_order_does_not_matter(self, skx_machine, case):
        jobs = self.jobs(case)
        results = skx_machine.run_colocated(jobs)
        for order in itertools.permutations(range(len(jobs))):
            permuted = skx_machine.run_colocated(
                [jobs[index] for index in order])
            for position, index in enumerate(order):
                assert relative_error(permuted[position].cycles,
                                      results[index].cycles) <= 1e-9

    @pytest.mark.parametrize("case", sorted(GROUPS))
    def test_tighter_tolerance_agrees(self, skx_machine, case):
        jobs = self.jobs(case)
        default = skx_machine.run_colocated(jobs)
        stats = {}
        tight = skx_machine.run_colocated(jobs, tolerance=1e-9,
                                          stats=stats)
        assert stats["joint_converged"] is True
        for got, want in zip(default, tight):
            assert relative_error(got.cycles, want.cycles) <= 1e-6

    @pytest.mark.parametrize("case", sorted(GROUPS))
    def test_one_queue_per_device(self, skx_machine, case):
        results = skx_machine.run_colocated(self.jobs(case))
        device = skx_machine.device("cxl-a")
        # Each job's slow latency is the device's loaded latency times
        # the job's own tail factor.
        latencies = [result.slow_latency_ns / (
            1.0 + device.tail_alpha * result.workload.tail_sensitivity)
            for result in results]
        for latency in latencies[1:]:
            assert relative_error(latency, latencies[0]) <= 1e-6
        capacity = MAX_UTILIZATION * device.peak_bandwidth_gbps
        total = sum(result.slow_gbps for result in results)
        assert relative_error(total, capacity) <= 1e-6


class TestRunColocatedGroups:
    """The pack-once grouped joint solver behind fleet tournaments."""

    def pairs(self):
        return [
            [(get_workload("605.mcf"),
              Placement.interleaved(0.6, "cxl-a")),
             (get_workload("xsbench"),
              Placement.interleaved(0.4, "cxl-a"))],
            [(get_workload("557.xz"),
              Placement.interleaved(0.7, "cxl-a")),
             (get_workload("603.bwaves").with_threads(10),
              Placement.slow_only("cxl-a"))],
        ]

    def many_pairs(self):
        return self.pairs() + seeded_pairs(8) + interleaved_pairs(8)

    def test_matches_per_group_run_colocated(self, skx_machine):
        # Each group leaves the batch when its own change meets the
        # tolerance, so batch-mates cannot move its answer.
        pairs = self.many_pairs()
        jobs = [job for pair in pairs for job in pair]
        groups = [[2 * index, 2 * index + 1]
                  for index in range(len(pairs))]
        grouped = skx_machine.run_colocated_groups(jobs, groups,
                                                   tolerance=1e-7)
        for index, pair in enumerate(pairs):
            solo = skx_machine.run_colocated(pair, tolerance=1e-7)
            assert_bit_identical(grouped[2 * index:2 * index + 2], solo)

    def test_groups_are_isolated(self, skx_machine):
        # A group's traffic must not leak into another group even on
        # the same device: solving the groups together equals solving
        # each alone.
        pairs = self.many_pairs()
        jobs = [job for pair in pairs for job in pair]
        grouped = skx_machine.run_colocated_groups(
            jobs, [[2 * index, 2 * index + 1]
                   for index in range(len(pairs))])
        for index, pair in enumerate(pairs):
            alone = skx_machine.run_colocated_groups(pair, [[0, 1]])
            assert_bit_identical(grouped[2 * index:2 * index + 2], alone)

    def test_stats_shape(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        stats = {}
        results = skx_machine.run_colocated_groups(
            jobs, [[0, 1], [2, 3]], stats=stats)
        assert len(results) == len(jobs)
        assert stats["groups"] == 2
        assert stats["joint_converged"] is True
        assert stats["joint_iterations"] > 0
        assert stats["nonconverged"] == 0

    def test_fault_hook_path_reports_the_same_stats(self, skx_machine):
        # A latency fault hook runs inside the packed solve, so an
        # identity hook changes nothing: not the answer, not the
        # telemetry fleet tournaments read unconditionally.
        jobs = [job for pair in self.many_pairs()[:4] for job in pair]
        groups = [[0, 1], [2, 3], [4, 5], [6, 7]]
        packed = {}
        unhooked = skx_machine.run_colocated_groups(jobs, groups,
                                                    stats=packed)
        previous = set_latency_fault_hook(lambda tier: (1.0, 0.0))
        try:
            hooked = {}
            results = skx_machine.run_colocated_groups(jobs, groups,
                                                       stats=hooked)
        finally:
            set_latency_fault_hook(previous)
        assert hooked == packed
        assert hooked["replay_resolves"] == 0
        assert_bit_identical(results, unhooked)

    def test_fault_hook_sees_every_tier(self, skx_machine):
        jobs = self.pairs()[0]
        baseline = skx_machine.run_colocated(jobs)
        seen = set()

        def spike(tier):
            seen.add(tier)
            return 1.5, 0.0

        previous = set_latency_fault_hook(spike)
        try:
            spiked = skx_machine.run_colocated(jobs)
        finally:
            set_latency_fault_hook(previous)
        assert seen == {"dram", "cxl-a"}
        for got, want in zip(spiked, baseline):
            assert got.cycles > want.cycles

    def test_rejects_overlapping_groups(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1], [1, 2, 3]])

    def test_rejects_incomplete_partition(self, skx_machine):
        jobs = [job for pair in self.pairs() for job in pair]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1]])

    def test_rejects_out_of_range_member(self, skx_machine):
        jobs = self.pairs()[0]
        with pytest.raises(ValueError):
            skx_machine.run_colocated_groups(jobs, [[0, 1, 7]])


class TestExecutorBatching:
    """The runtime's serial path groups specs through run_batch."""

    def sweep_specs(self, machine, points=MIN_BATCH_GROUP + 4):
        return [RunSpec.from_machine(machine, workload, placement)
                for workload, placement in sweep_pairs(points=points)]

    def test_batched_path_is_byte_identical(self, tmp_path):
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        assert executor.telemetry.counters.get("batched_solves") == 1
        scalar = [machine.run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(results, scalar)

    def test_small_groups_stay_scalar(self, tmp_path):
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine, points=5)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        executor.run(specs)
        assert "batched_solves" not in executor.telemetry.counters

    def test_mixed_machines_solve_as_one_batch(self, tmp_path):
        # Lanes carry their own (platform, noise, seed), so distinct
        # machine identities no longer split the pending batch.
        specs = (self.sweep_specs(Machine(SKX2S)) +
                 self.sweep_specs(Machine(SKX2S, seed=7)))
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        assert executor.telemetry.counters.get("batched_solves") == 1
        assert len(results) == len(specs)
        scalar = [spec.machine().run(spec.workload, spec.placement)
                  for spec in specs]
        assert_bit_identical(results, scalar)

    def test_pool_chunks_match_serial_byte_for_byte(self, tmp_path):
        # The pool path must ship whole shard-batches to workers, not
        # fall back to scalar solves — and `-j N` must reproduce the
        # `-j 1` bytes exactly.
        specs = (self.sweep_specs(Machine(SKX2S)) +
                 self.sweep_specs(Machine(SPR2S, seed=3)))
        serial = Executor(jobs=1, store=ResultStore(tmp_path / "s"))
        pooled = Executor(jobs=2, store=ResultStore(tmp_path / "p"))
        serial_results = serial.run(specs)
        pooled_results = pooled.run(specs)
        assert pooled.telemetry.counters.get("pool_chunks", 0) >= 1
        assert_bit_identical(pooled_results, serial_results)

    def test_nonconverged_results_are_counted(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(machine_mod, "_MAX_OUTER_ITERATIONS", 20)
        machine = Machine(SKX2S)
        specs = self.sweep_specs(machine)
        executor = Executor(jobs=1, store=ResultStore(tmp_path / "c"))
        results = executor.run(specs)
        nonconverged = sum(1 for r in results if not r.converged)
        assert nonconverged > 0
        assert executor.telemetry.counters["nonconverged_results"] == \
            nonconverged
