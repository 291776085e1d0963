"""Experiment drivers for the interleaving study (section 5).

========  ========================================================
Fig. 9    :func:`fig9_interleaving_shapes`
Fig. 10   :func:`fig10_mlp_invariance`
Fig. 11   :func:`fig11_latency_curves`
Fig. 13   :func:`fig13_interleave_accuracy`
Fig. 14   :func:`fig14_interleaving_model_accuracy`
========  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.interleaving import InterleavingModel, synthesize
from ..uarch.machine import component_slowdowns, slowdown
from ..workloads.spec import WorkloadSpec
from ..workloads.suites import bandwidth_bound_twenty, get_workload
from .lab import Lab, bandwidth_lab
from .stats import fraction_within

#: Default ratio sweep: the paper profiles 101 ratios (100:0 .. 0:100).
DEFAULT_RATIOS: Tuple[float, ...] = tuple(np.linspace(1.0, 0.0, 101))

#: Coarser sweep for drivers that run many workloads.
COARSE_RATIOS: Tuple[float, ...] = tuple(np.linspace(1.0, 0.0, 21))


# ---------------------------------------------------------------------------
# Figure 9: the two response regimes, per component.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    dram_fraction: float
    total: float
    drd: float
    cache: float
    store: float
    dram_latency_ns: float
    slow_latency_ns: float
    mlp: float


@dataclass(frozen=True)
class WorkloadSweep:
    workload: str
    tier: str
    points: Tuple[SweepPoint, ...]

    @property
    def convex(self) -> bool:
        """Does the measured curve dip below DRAM-only (bathtub)?"""
        return any(point.total < -1e-3 for point in self.points)

    def optimal(self) -> SweepPoint:
        return min(self.points, key=lambda point: point.total)


def sweep_workload(workload: WorkloadSpec, tier: str = "cxl-a",
                   ratios: Sequence[float] = COARSE_RATIOS,
                   lab: Optional[Lab] = None) -> WorkloadSweep:
    """Measure slowdown components across interleaving ratios."""
    lab = lab or bandwidth_lab()
    # One vectorized, warm-started solve for the whole ratio grid; the
    # per-point accessors below are then pure memo hits.
    lab.sweep_runs(tier, workload, (1.0, *map(float, ratios)))
    dram = lab.dram_run(tier, workload)
    points: List[SweepPoint] = []
    for x in ratios:
        run = lab.interleaved_run(tier, workload, float(x))
        comp = component_slowdowns(dram, run)
        points.append(SweepPoint(
            dram_fraction=float(x),
            total=slowdown(dram, run),
            drd=comp["drd"],
            cache=comp["cache"],
            store=comp["store"],
            dram_latency_ns=run.dram_latency_ns,
            slow_latency_ns=(run.slow_latency_ns
                             if run.slow_latency_ns is not None
                             else run.dram_latency_ns),
            mlp=run.breakdown.mlp_effective,
        ))
    return WorkloadSweep(workload=workload.name, tier=tier,
                         points=tuple(points))


def fig9_interleaving_shapes(tier: str = "cxl-a",
                             lab: Optional[Lab] = None
                             ) -> List[WorkloadSweep]:
    """The paper's four Fig. 9 workloads: two convex (bandwidth-bound,
    649.fotonik3d and 654.roms at full thread count), two linear
    (wmt20, rangeQuery2d)."""
    lab = lab or bandwidth_lab()
    workloads = [
        get_workload("649.fotonik3d").with_threads(10),
        get_workload("654.roms").with_threads(10),
        get_workload("wmt20"),
        get_workload("rangeQuery2d"),
    ]
    return [sweep_workload(w, tier, lab=lab) for w in workloads]


# ---------------------------------------------------------------------------
# Figure 10: MLP invariance across ratios.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpInvarianceResult:
    workload: str
    threads: int
    tier: str
    mlp_by_ratio: Tuple[Tuple[float, float], ...]

    @property
    def max_relative_variation(self) -> float:
        values = np.array([mlp for _, mlp in self.mlp_by_ratio])
        return float((values.max() - values.min()) / values.mean())


def fig10_mlp_invariance(tier: str = "cxl-a",
                         thread_counts: Sequence[int] = (2, 8),
                         lab: Optional[Lab] = None
                         ) -> List[MlpInvarianceResult]:
    """603.bwaves: measured MLP across the ratio sweep, 2 vs 8 threads.

    The paper reports <=5% variation whether or not the workload is
    bandwidth-bound - the invariant enabling the synthesis model.
    """
    lab = lab or bandwidth_lab()
    results: List[MlpInvarianceResult] = []
    for threads in thread_counts:
        workload = get_workload("603.bwaves").with_threads(threads)
        sweep = sweep_workload(workload, tier, lab=lab)
        results.append(MlpInvarianceResult(
            workload=workload.name,
            threads=threads,
            tier=tier,
            mlp_by_ratio=tuple((p.dram_fraction, p.mlp)
                               for p in sweep.points),
        ))
    return results


# ---------------------------------------------------------------------------
# Figure 11: per-tier latency curves and the slowdown bathtub.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyCurveResult:
    workload: str
    threads: int
    tier: str
    sweep: WorkloadSweep
    #: Quadratic-fit R^2 of the DRAM-tier latency over its load share
    #: (how well Eq. 8 approximates the substrate's behaviour).
    dram_quadratic_r2: float

    @property
    def bandwidth_bound(self) -> bool:
        return self.sweep.convex


def _quadratic_r2(shares: np.ndarray, latencies: np.ndarray) -> float:
    """R^2 of the Eq. 8 form anchored at the endpoints."""
    if latencies.size < 3:
        return 1.0
    idle = latencies[shares.argmin()]
    full = latencies[shares.argmax()]
    fitted = idle + (full - idle) * shares ** 2
    residual = float(np.sum((latencies - fitted) ** 2))
    total = float(np.sum((latencies - latencies.mean()) ** 2))
    if total <= 0:
        return 1.0
    return 1.0 - residual / total


def fig11_latency_curves(tier: str = "cxl-a",
                         thread_counts: Sequence[int] = (2, 8),
                         lab: Optional[Lab] = None
                         ) -> List[LatencyCurveResult]:
    """603.bwaves latency/slowdown vs ratio, 2 vs 8 threads."""
    lab = lab or bandwidth_lab()
    results: List[LatencyCurveResult] = []
    for threads in thread_counts:
        workload = get_workload("603.bwaves").with_threads(threads)
        sweep = sweep_workload(workload, tier, ratios=DEFAULT_RATIOS,
                               lab=lab)
        shares = np.array([p.dram_fraction for p in sweep.points])
        dram_lat = np.array([p.dram_latency_ns for p in sweep.points])
        results.append(LatencyCurveResult(
            workload=workload.name,
            threads=threads,
            tier=tier,
            sweep=sweep,
            dram_quadratic_r2=_quadratic_r2(shares, dram_lat),
        ))
    return results


# ---------------------------------------------------------------------------
# Figure 13: per-component prediction across the ratio sweep.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig13Point:
    dram_fraction: float
    predicted: Dict[str, float]
    actual: Dict[str, float]

    @property
    def predicted_total(self) -> float:
        return sum(self.predicted.values())

    @property
    def actual_total(self) -> float:
        return sum(self.actual.values())


@dataclass(frozen=True)
class Fig13Result:
    workload: str
    tier: str
    points: Tuple[Fig13Point, ...]

    def errors(self) -> np.ndarray:
        return np.array([abs(p.predicted_total - p.actual_total)
                         for p in self.points])


def build_model(workload: WorkloadSpec, tier: str,
                lab: Optional[Lab] = None) -> InterleavingModel:
    """Synthesize the section 5 model for a workload (Fig. 12 path)."""
    lab = lab or bandwidth_lab()
    calibration = lab.calibration(tier)
    dram_profile = lab.dram_run(tier, workload).profiled()
    from ..core.classify import classify
    if classify(dram_profile,
                calibration.idle_latency_dram_ns).is_bandwidth_bound:
        slow_profile = lab.slow_run(tier, workload).profiled()
        return synthesize(dram_profile, calibration, slow_profile)
    return synthesize(dram_profile, calibration)


def fig13_interleave_accuracy(tier: str = "cxl-a", threads: int = 10,
                              ratios: Sequence[float] = None,
                              lab: Optional[Lab] = None) -> Fig13Result:
    """10-thread 603.bwaves: predicted vs actual, per component, over
    the 99:1..1:99 sweep."""
    lab = lab or bandwidth_lab()
    if ratios is None:
        ratios = tuple(np.linspace(0.99, 0.01, 99))
    workload = get_workload("603.bwaves").with_threads(threads)
    model = build_model(workload, tier, lab)
    dram = lab.dram_run(tier, workload)

    lab.sweep_runs(tier, workload, tuple(map(float, ratios)))
    points: List[Fig13Point] = []
    for x in ratios:
        run = lab.interleaved_run(tier, workload, float(x))
        prediction = model.predict(float(x))
        points.append(Fig13Point(
            dram_fraction=float(x),
            predicted=dict(prediction.components),
            actual=component_slowdowns(dram, run),
        ))
    return Fig13Result(workload=workload.name, tier=tier,
                       points=tuple(points))


# ---------------------------------------------------------------------------
# Figure 14: model accuracy over the 20 bandwidth-bound workloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimumComparison:
    workload: str
    predicted_ratio: float
    actual_ratio: float
    #: Actual slowdown when running at each ratio.
    slowdown_at_predicted: float
    slowdown_at_actual: float

    @property
    def performance_gap(self) -> float:
        """How much worse the predicted ratio's real performance is
        than the oracle's (0 = identical, Fig. 14c's claim)."""
        oracle = 1.0 + self.slowdown_at_actual
        chosen = 1.0 + self.slowdown_at_predicted
        return chosen / oracle - 1.0


@dataclass(frozen=True)
class Fig14Result:
    tier: str
    #: Absolute slowdown errors pooled over workloads x ratios (a).
    errors: np.ndarray
    within_5pct: float
    #: Predicted vs actual optimal ratio per workload (b), and the
    #: realized performance comparison (c).
    optima: Tuple[OptimumComparison, ...]


def fig14_interleaving_model_accuracy(
        tier: str = "cxl-a",
        workloads: Optional[Sequence[WorkloadSpec]] = None,
        ratios: Sequence[float] = COARSE_RATIOS,
        lab: Optional[Lab] = None) -> Fig14Result:
    """Pooled interleaving-prediction errors and optimum comparison."""
    lab = lab or bandwidth_lab()
    if workloads is None:
        workloads = bandwidth_bound_twenty()

    pooled_errors: List[float] = []
    optima: List[OptimumComparison] = []
    for workload in workloads:
        model = build_model(workload, tier, lab)
        dram = lab.dram_run(tier, workload)
        lab.sweep_runs(tier, workload, tuple(map(float, ratios)))
        actual_by_ratio: Dict[float, float] = {}
        for x in ratios:
            run = lab.interleaved_run(tier, workload, float(x))
            actual = slowdown(dram, run)
            actual_by_ratio[float(x)] = actual
            pooled_errors.append(
                abs(model.predict(float(x)).total - actual))
        predicted_ratio, _ = model.optimal_ratio(ratios)
        actual_ratio = min(actual_by_ratio,
                           key=lambda x: actual_by_ratio[x])
        optima.append(OptimumComparison(
            workload=workload.name,
            predicted_ratio=predicted_ratio,
            actual_ratio=actual_ratio,
            slowdown_at_predicted=actual_by_ratio[
                min(actual_by_ratio,
                    key=lambda x: abs(x - predicted_ratio))],
            slowdown_at_actual=actual_by_ratio[actual_ratio],
        ))

    errors = np.asarray(pooled_errors)
    return Fig14Result(
        tier=tier,
        errors=errors,
        within_5pct=fraction_within(errors, 0.05),
        optima=tuple(optima),
    )
