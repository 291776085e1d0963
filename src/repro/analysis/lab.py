"""The experiment laboratory: machines, calibrations, and cached runs.

Every table/figure driver needs the same ingredients - the evaluation
suite, a machine per platform, a calibration per device, and a pile of
(workload, placement) executions.  :class:`Lab` owns and memoizes them
so the benchmark harness never repeats a simulated run: drivers share
DRAM baselines, calibrations are fitted once per device, and the whole
EXPERIMENTS.md regeneration stays minutes-scale.

Platform assignment follows the paper's testbeds: the NUMA tier is
evaluated on SKX (the paper emulates NUMA there), the three CXL 2.0
expanders on SPR (their PCIe 5 hosts).  Both can be overridden.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.calibration import Calibration, calibrate
from ..core.slowdown import SlowdownPredictor
from ..runtime import serde
from ..runtime.executor import Executor
from ..runtime.spec import RunSpec
from ..runtime.store import ResultStore
from ..uarch.config import get_platform
from ..uarch.interleave import Placement
from ..uarch.machine import Machine, RunResult
from ..workloads.spec import WorkloadSpec
from ..workloads.suites import evaluation_suite

#: Which platform hosts which slow tier in the paper's evaluation.
DEFAULT_TIER_PLATFORMS: Dict[str, str] = {
    "numa": "skx2s",
    "cxl-a": "spr2s",
    "cxl-b": "spr2s",
    "cxl-c": "spr2s",
}

#: The evaluation tiers, in the paper's reporting order.
REPORT_TIERS: Tuple[str, ...] = ("numa", "cxl-a", "cxl-b", "cxl-c")


class Lab:
    """Memoizing facade over machines, calibrations, and runs.

    With the defaults the memo lives purely in-process, as it always
    has.  Handing the lab a :class:`~repro.runtime.store.ResultStore`
    (or a pre-built :class:`~repro.runtime.executor.Executor`) makes
    every run and calibration persistent across invocations, and
    ``jobs > 1`` lets the batch entry points (:meth:`warm`,
    :func:`calibrate`) fan out over worker processes.
    """

    def __init__(self, seed: int = 2026,
                 tier_platforms: Optional[Dict[str, str]] = None,
                 noise: Optional[float] = None,
                 store: Optional[ResultStore] = None,
                 jobs: int = 1,
                 executor: Optional[Executor] = None):
        self.seed = seed
        self.tier_platforms = dict(tier_platforms or
                                   DEFAULT_TIER_PLATFORMS)
        self._noise = noise
        self.executor = executor if executor is not None else \
            Executor(jobs=jobs, store=store)
        self._machines: Dict[str, Machine] = {}
        self._calibrations: Dict[Tuple[str, str], Calibration] = {}
        self._runs: Dict[Tuple[str, int, WorkloadSpec, Placement],
                         RunResult] = {}
        self._suite: Optional[List[WorkloadSpec]] = None

    # -- ingredients ---------------------------------------------------------
    def suite(self) -> List[WorkloadSpec]:
        """The 265-workload evaluation population (cached)."""
        if self._suite is None:
            self._suite = evaluation_suite(seed=self.seed)
        return self._suite

    def machine(self, platform_name: str) -> Machine:
        """The (cached) machine for a platform preset name."""
        key = platform_name.lower()
        if key not in self._machines:
            platform = get_platform(key)
            if self._noise is None:
                self._machines[key] = Machine(platform)
            else:
                self._machines[key] = Machine(platform,
                                              noise=self._noise)
        return self._machines[key]

    def machine_for_tier(self, tier: str) -> Machine:
        """The machine hosting a slow tier, per the paper's testbeds."""
        platform_name = self.tier_platforms.get(tier.lower())
        if platform_name is None:
            raise KeyError(f"no platform assigned for tier {tier!r}")
        return self.machine(platform_name)

    def calibration(self, tier: str) -> Calibration:
        """One-time CAMP calibration for (hosting platform, tier)."""
        machine = self.machine_for_tier(tier)
        key = (machine.platform.name, tier.lower())
        if key not in self._calibrations:
            with self.executor.telemetry.stage(
                    "lab.calibration", tier=tier.lower(),
                    platform=machine.platform.name):
                self._calibrations[key] = calibrate(
                    machine, tier, store=self.executor.store,
                    executor=self.executor)
        return self._calibrations[key]

    def predictor(self, tier: str) -> SlowdownPredictor:
        return SlowdownPredictor(self.calibration(tier))

    # -- cached execution ----------------------------------------------------
    def run(self, machine: Machine, workload: WorkloadSpec,
            placement: Placement) -> RunResult:
        """Execute (memoized on machine+workload+placement)."""
        key = (machine.platform.name, machine.seed, workload, placement)
        if key not in self._runs:
            self._runs[key] = self.executor.run_one(
                RunSpec.from_machine(machine, workload, placement))
        return self._runs[key]

    def warm(self, machine: Machine,
             work: Sequence[Tuple[WorkloadSpec, Placement]],
             label: str = "warm") -> List[RunResult]:
        """Batch-execute (workload, placement) pairs into the memo.

        The batch entry point for drivers: one call fans the whole
        work list out over the executor's worker pool (and through the
        persistent store), after which the per-run accessors below are
        pure memo hits.  Returns the results in input order.
        """
        keys = [(machine.platform.name, machine.seed, workload, placement)
                for workload, placement in work]
        missing = [(key, workload, placement)
                   for key, (workload, placement) in zip(keys, work)
                   if key not in self._runs]
        if missing:
            specs = [RunSpec.from_machine(machine, workload, placement)
                     for _, workload, placement in missing]
            with self.executor.telemetry.stage(
                    "lab.warm", label=label, batch=len(work),
                    missing=len(missing)):
                for (key, _, _), result in zip(
                        missing, self.executor.run(specs, label=label)):
                    self._runs[key] = result
        return [self._runs[key] for key in keys]

    def _ratio_placement(self, tier: str, x: float) -> Placement:
        if x >= 1.0:
            return Placement.dram_only()
        if x <= 0.0:
            return Placement.slow_only(tier)
        return Placement.interleaved(x, tier)

    def sweep_runs(self, tier: str, workload: WorkloadSpec,
                   ratios: Sequence[float],
                   label: str = "sweep") -> List[RunResult]:
        """Ratio sweep through the vectorized, accelerated solver.

        The sweep shape is the substrate's hottest loop (Fig. 11/13/14
        profile 101 ratios per workload), so it goes straight to one
        cold :meth:`Machine.run_batch_multi` with Anderson acceleration
        instead of N scalar fixed points through the executor.  Each
        point it solves is its cold accelerated solve, a function of
        its spec alone, not of what was solved before it.  Results are
        memoized into the same per-run memo the scalar accessors use;
        points already memoized (for example the DRAM baseline) are
        reused, not re-solved.

        Accelerated results match the scalar path within
        :data:`~repro.uarch.machine.ACCELERATED_RELATIVE_TOLERANCE`
        rather than bit-for-bit, and are therefore never *written* to
        the persistent store - the documented trade (docs/SOLVER.md)
        for the sweep speedup.  The store is still *read*: missing
        points whose exact (scalar/replay) result a previous executor
        run persisted are seeded from one batched
        :meth:`~repro.runtime.store.ResultStore.get_many` before the
        accelerated solve, so sweeps re-solve only ratios the store
        does not hold.
        """
        machine = self.machine_for_tier(tier)
        placements = [self._ratio_placement(tier, float(x))
                      for x in ratios]
        keys = [(machine.platform.name, machine.seed, workload,
                 placement) for placement in placements]
        missing = [index for index, key in enumerate(keys)
                   if key not in self._runs]
        missing = self._seed_from_store(machine, workload, placements,
                                        keys, missing)
        if missing:
            stats: Dict[str, object] = {}
            with self.executor.telemetry.stage(
                    "lab.sweep", tier=tier.lower(), label=label,
                    workload=workload.name, batch=len(keys),
                    missing=len(missing)):
                results = Machine.run_batch_multi(
                    [RunSpec.from_machine(machine, workload,
                                          placements[index])
                     for index in missing],
                    accelerate=True, stats=stats)
            for index, result in zip(missing, results):
                self._runs[keys[index]] = result
            if stats.get("nonconverged"):
                self.executor.telemetry.count(
                    "nonconverged_results", int(stats["nonconverged"]))
        return [self._runs[key] for key in keys]

    def _seed_from_store(self, machine: Machine,
                         workload: WorkloadSpec,
                         placements: Sequence[Placement],
                         keys: Sequence[Tuple],
                         missing: List[int]) -> List[int]:
        """Fill sweep points the persistent store already has exactly.

        One batched ``get_many`` over the missing points' fingerprints;
        hits decode straight into the run memo (they are exact scalar
        results, strictly better than re-solving them approximately)
        and drop out of the accelerated batch.  Returns the indices
        still missing.  Counted as ``sweep_seed_hits``, apart from the
        executor's ``store_hits``, because no executor batch ran.
        """
        store = self.executor.store
        if not missing or store is None or \
                self.executor.fault_plan is not None:
            return missing
        specs = {index: RunSpec.from_machine(machine, workload,
                                             placements[index])
                 for index in missing}
        fragments: Dict[int, str] = {}
        fingerprints = {index: spec.fingerprint(fragments)
                        for index, spec in specs.items()}
        found = store.get_many(sorted(set(fingerprints.values())))
        if not found:
            return missing
        still: List[int] = []
        for index in missing:
            payload = found.get(fingerprints[index])
            if payload is None:
                still.append(index)
            else:
                self._runs[keys[index]] = \
                    serde.run_result_from_dict(payload, specs[index])
        self.executor.telemetry.count("sweep_seed_hits",
                                      len(missing) - len(still))
        return still

    def dram_run(self, tier: str, workload: WorkloadSpec) -> RunResult:
        """The DRAM baseline on the tier's hosting platform."""
        return self.run(self.machine_for_tier(tier), workload,
                        Placement.dram_only())

    def slow_run(self, tier: str, workload: WorkloadSpec) -> RunResult:
        """The all-on-slow-tier run."""
        return self.run(self.machine_for_tier(tier), workload,
                        Placement.slow_only(tier))

    def interleaved_run(self, tier: str, workload: WorkloadSpec,
                        dram_fraction: float) -> RunResult:
        if dram_fraction >= 1.0:
            return self.dram_run(tier, workload)
        if dram_fraction <= 0.0:
            return self.slow_run(tier, workload)
        return self.run(self.machine_for_tier(tier), workload,
                        Placement.interleaved(dram_fraction, tier))

    def cache_size(self) -> int:
        """Number of memoized runs (diagnostics)."""
        return len(self._runs)


#: A process-wide default lab so benches and examples share the cache.
_DEFAULT_LAB: Optional[Lab] = None


def default_lab() -> Lab:
    """The shared module-level :class:`Lab` instance."""
    global _DEFAULT_LAB
    if _DEFAULT_LAB is None:
        _DEFAULT_LAB = Lab()
    return _DEFAULT_LAB


#: Platform assignment for the *bandwidth* studies (sections 5-6).
#: The interleaving and policy experiments need a host whose DRAM a
#: ten-thread streamer can actually contend for; we follow the paper's
#: Fig. 13 setup (10-thread 603.bwaves - the SKX core count) and host
#: every tier on SKX2S there.  The slowdown-prediction study keeps the
#: PCIe5-platform assignment of :data:`DEFAULT_TIER_PLATFORMS`.
BANDWIDTH_TIER_PLATFORMS: Dict[str, str] = {
    tier: "skx2s" for tier in REPORT_TIERS
}

_BANDWIDTH_LAB: Optional[Lab] = None


def bandwidth_lab() -> Lab:
    """The shared lab for the section 5-6 bandwidth experiments."""
    global _BANDWIDTH_LAB
    if _BANDWIDTH_LAB is None:
        _BANDWIDTH_LAB = Lab(tier_platforms=BANDWIDTH_TIER_PLATFORMS)
    return _BANDWIDTH_LAB
