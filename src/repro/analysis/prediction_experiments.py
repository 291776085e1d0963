"""Experiment drivers for the prediction study (sections 2 and 4).

One driver per table/figure; each returns a plain-data result object
that the benchmarks print and EXPERIMENTS.md records:

========  ========================================================
Table 1   :func:`table1_metric_correlations`
Fig. 1    same data as Table 1 (per-workload scatter included)
Fig. 2    :func:`fig2_decomposition`
Fig. 4    :func:`fig4_drd_derivation`
Fig. 5    :func:`fig5_lfb_pressure`
Fig. 6    :func:`fig6_component_error_cdfs`
Fig. 7    :func:`table6_overall_accuracy` (scatter series)
Fig. 8    :func:`fig8_timeseries`
Table 6   :func:`table6_overall_accuracy`
========  ========================================================

All drivers work purely through :class:`~repro.analysis.lab.Lab` so
repeated invocations share simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.counters import ProfiledRun
from ..core.drd import measured_tolerance
from ..core.metrics import BASELINE_METRICS
from ..core.signature import Signature, signature
from ..uarch.interleave import Placement
from ..uarch.machine import component_slowdowns, slowdown
from ..workloads.phases import tc_kron_phased
from ..workloads.spec import WorkloadSpec
from .lab import Lab, REPORT_TIERS, default_lab
from .stats import AccuracySummary, accuracy_summary, pearson, percentile_row


# ---------------------------------------------------------------------------
# Shared: per-workload records on one tier.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadRecord:
    """Everything the prediction study needs about one workload."""

    name: str
    suite: str
    dram_signature: Signature
    slow_signature: Signature
    dram_profile: ProfiledRun
    actual_slowdown: float
    actual_components: Dict[str, float]
    predicted_components: Dict[str, float]

    @property
    def predicted_slowdown(self) -> float:
        return sum(self.predicted_components.values())


def collect_records(tier: str, lab: Optional[Lab] = None,
                    workloads: Optional[Sequence[WorkloadSpec]] = None
                    ) -> List[WorkloadRecord]:
    """Run the suite on DRAM and ``tier``; predict from DRAM only."""
    lab = lab or default_lab()
    predictor = lab.predictor(tier)
    chosen = list(workloads if workloads is not None else lab.suite())
    # One batched fan-out through the lab's executor (parallel workers
    # and the persistent store, when configured) before the per-run
    # accessors below, which then hit the memo.
    lab.warm(lab.machine_for_tier(tier),
             [(w, Placement.dram_only()) for w in chosen] +
             [(w, Placement.slow_only(tier)) for w in chosen],
             label=f"suite:{tier}")
    records: List[WorkloadRecord] = []
    for workload in chosen:
        dram = lab.dram_run(tier, workload)
        slow = lab.slow_run(tier, workload)
        dram_profile = dram.profiled()
        prediction = predictor.predict(dram_profile)
        records.append(WorkloadRecord(
            name=workload.name,
            suite=workload.suite,
            dram_signature=signature(dram_profile),
            slow_signature=signature(slow.profiled()),
            dram_profile=dram_profile,
            actual_slowdown=slowdown(dram, slow),
            actual_components=component_slowdowns(dram, slow),
            predicted_components={"drd": prediction.drd,
                                  "cache": prediction.cache,
                                  "store": prediction.store},
        ))
    return records


# ---------------------------------------------------------------------------
# Table 1 / Figure 1: metric correlation study.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricCorrelation:
    metric: str
    system: str
    paper_pearson: float
    measured_pearson: float
    #: Scatter series for Fig. 1 (metric value, actual slowdown).
    series: Tuple[Tuple[float, float], ...] = field(repr=False)


@dataclass(frozen=True)
class Table1Result:
    tier: str
    correlations: Tuple[MetricCorrelation, ...]

    def by_metric(self) -> Dict[str, MetricCorrelation]:
        return {c.metric: c for c in self.correlations}


def table1_metric_correlations(tier: str = "numa",
                               lab: Optional[Lab] = None) -> Table1Result:
    """Correlate each baseline metric (and CAMP) with actual slowdown.

    The paper reports *absolute* Pearson values; IPC correlates
    negatively by construction, so we report ``|r|`` as the paper does.
    """
    lab = lab or default_lab()
    records = collect_records(tier, lab)
    actual = [r.actual_slowdown for r in records]

    correlations: List[MetricCorrelation] = []
    for spec in BASELINE_METRICS:
        values = [spec.compute(r.dram_profile) for r in records]
        correlations.append(MetricCorrelation(
            metric=spec.name,
            system=spec.system,
            paper_pearson=spec.paper_pearson,
            measured_pearson=abs(pearson(values, actual)),
            series=tuple(zip(values, actual)),
        ))
    camp_values = [r.predicted_slowdown for r in records]
    correlations.append(MetricCorrelation(
        metric="camp",
        system="CAMP (ours)",
        paper_pearson=0.97,
        measured_pearson=abs(pearson(camp_values, actual)),
        series=tuple(zip(camp_values, actual)),
    ))
    return Table1Result(tier=tier, correlations=tuple(correlations))


# ---------------------------------------------------------------------------
# Figure 2: slowdown decomposition.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionRow:
    name: str
    total: float
    drd: float
    cache: float
    store: float
    residual: float


def fig2_decomposition(tier: str = "cxl-a",
                       workload_names: Sequence[str] = (
                           "605.mcf", "649.fotonik3d", "619.lbm",
                           "557.xz", "llama-7b", "rangeQuery2d"),
                       lab: Optional[Lab] = None
                       ) -> List[DecompositionRow]:
    """S = S_DRd + S_Cache + S_Store on representative workloads.

    ``residual`` is the part of total slowdown the three components do
    not explain - near zero by the Melody decomposition (Eq. 1).
    """
    lab = lab or default_lab()
    names = set(workload_names)
    chosen = [w for w in lab.suite() if w.name in names]
    rows: List[DecompositionRow] = []
    for record in collect_records(tier, lab, chosen):
        comp = record.actual_components
        explained = comp["drd"] + comp["cache"] + comp["store"]
        rows.append(DecompositionRow(
            name=record.name,
            total=record.actual_slowdown,
            drd=comp["drd"],
            cache=comp["cache"],
            store=comp["store"],
            residual=record.actual_slowdown - explained,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 4: the S_DRd derivation study.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4Result:
    tier: str
    #: (b) distribution of s_LLC / C on DRAM.
    sllc_over_c: Dict[str, float]
    #: (c) distributions of the three scaling ratios.
    r_n: Dict[str, float]
    r_lat: Dict[str, float]
    r_mlp: Dict[str, float]
    #: Fraction of workloads with R_N within 5% of 1.0 (paper: >95%).
    r_n_stable_fraction: float
    #: (d) correlation of baseline DRAM latency with R_Lat.
    latency_vs_rlat_pearson: float
    #: (e) correlation of baseline MLP with R_MLP.
    mlp_vs_rmlp_pearson: float
    #: (f) hyperbola fit: correlation of f(AOL) with the measured
    #: latency-tolerance factor across the corpus.
    tolerance_fit_pearson: float
    #: (a) proxy error comparison: mean |error| of S_DRd estimators.
    proxy_errors: Dict[str, float]


def fig4_drd_derivation(tier: str = "numa",
                        lab: Optional[Lab] = None) -> Fig4Result:
    """Reproduce the Fig. 4 measurements over the corpus."""
    lab = lab or default_lab()
    records = collect_records(tier, lab)
    calibration = lab.calibration(tier)

    sllc_c, r_n, r_lat, r_mlp = [], [], [], []
    tolerance_measured, tolerance_fitted = [], []
    err_full, err_no_mlp, err_no_lat, err_c_only = [], [], [], []
    for record in records:
        dram, slow = record.dram_signature, record.slow_signature
        if dram.memory_active_cycles > 0:
            sllc_c.append(dram.s_llc / dram.memory_active_cycles)
        if dram.demand_reads > 0 and slow.demand_reads > 0:
            r_n.append(slow.demand_reads / dram.demand_reads)
        if dram.latency_cycles > 0:
            r_lat.append(slow.latency_cycles / dram.latency_cycles)
        r_mlp.append(slow.mlp / dram.mlp)

        measured = measured_tolerance(dram, slow)
        fitted = calibration.drd.tolerance(dram.aol)
        tolerance_measured.append(measured)
        tolerance_fitted.append(fitted)

        # (a) S_DRd proxy comparison.  "Full" uses the measured scaling
        # ratios (attribution-grade); the ablations drop R_Lat or R_MLP;
        # "C-only" assumes stalls scale with the raw latency ratio.
        actual = record.actual_components["drd"]
        c_frac = dram.memory_active_cycles / dram.cycles
        ratio_lat = (slow.latency_cycles / dram.latency_cycles
                     if dram.latency_cycles > 0 else 1.0)
        ratio_mlp = slow.mlp / dram.mlp
        scale = dram.s_llc / max(dram.memory_active_cycles, 1.0)
        err_full.append(abs(
            (ratio_lat / ratio_mlp - 1.0) * c_frac * scale - actual))
        err_no_mlp.append(abs(
            (ratio_lat - 1.0) * c_frac * scale - actual))
        err_no_lat.append(abs(
            (1.0 / ratio_mlp - 1.0) * c_frac * scale - actual))
        err_c_only.append(abs(
            (ratio_lat / ratio_mlp - 1.0) * c_frac - actual))

    r_n = np.asarray(r_n)
    return Fig4Result(
        tier=tier,
        sllc_over_c=percentile_row(sllc_c),
        r_n=percentile_row(r_n),
        r_lat=percentile_row(r_lat),
        r_mlp=percentile_row(r_mlp),
        r_n_stable_fraction=float(np.mean(np.abs(r_n - 1.0) <= 0.05)),
        latency_vs_rlat_pearson=pearson(
            [r.dram_signature.latency_cycles for r in records
             if r.dram_signature.latency_cycles > 0],
            r_lat),
        mlp_vs_rmlp_pearson=pearson(
            [r.dram_signature.mlp for r in records], r_mlp),
        tolerance_fit_pearson=pearson(tolerance_fitted,
                                      tolerance_measured),
        proxy_errors={
            "C with R_Lat and R_MLP": float(np.mean(err_full)),
            "C with R_Lat only": float(np.mean(err_no_mlp)),
            "C with R_MLP only": float(np.mean(err_no_lat)),
            "C without s_LLC proxy": float(np.mean(err_c_only)),
        },
    )


# ---------------------------------------------------------------------------
# Figure 5: LFB pressure correlations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig5Result:
    tier: str
    #: (a) Delta(L1PF L3 misses) vs Delta(LFB hits) across tiers.
    pf_miss_vs_lfb_hit_pearson: float
    #: (b) Delta(LFB hits) vs Delta(L1 hit rate): LFB growth comes at
    #: the expense of L1 hits (expected strongly negative).
    lfb_vs_l1_hit_pearson: float
    #: (c) cache slowdown vs DRAM LFB-hit ratio.
    cache_slowdown_vs_lfb_pearson: float


def fig5_lfb_pressure(tier: str = "cxl-a",
                      lab: Optional[Lab] = None) -> Fig5Result:
    lab = lab or default_lab()
    records = collect_records(tier, lab)

    from ..core.counters import Counter
    delta_pf_miss, delta_lfb_hit, delta_l1_hit = [], [], []
    lfb_ratio, cache_slow = [], []
    for record in records:
        dram_sample = record.dram_profile.sample
        slow_run = lab.slow_run(tier, _spec_by_name(lab, record.name))
        slow_sample = slow_run.counters
        instructions = max(record.dram_signature.instructions, 1.0)

        # (c): the DRAM-visible LFB reliance against the eventual
        # cache slowdown.
        lfb_ratio.append(record.dram_signature.lfb_hit_ratio)
        cache_slow.append(record.actual_components["cache"])

        # (a): growth of L1-prefetch L3 misses vs growth of LFB hits
        # when moving from DRAM to the slow tier (per instruction).
        pf_miss_dram = (dram_sample[Counter.PF_L1D_ANY_RESPONSE] -
                        dram_sample[Counter.PF_L1D_L3_HIT])
        pf_miss_slow = (slow_sample[Counter.PF_L1D_ANY_RESPONSE] -
                        slow_sample[Counter.PF_L1D_L3_HIT])
        delta_pf_miss.append((pf_miss_slow - pf_miss_dram) /
                             instructions)
        lfb_growth = (slow_sample[Counter.LFB_HIT] -
                      dram_sample[Counter.LFB_HIT]) / instructions
        delta_lfb_hit.append(lfb_growth)

        # (b): L1 hit-rate change across tiers; loads that used to hit
        # L1 (timely prefetches) now hit the LFB instead.
        misses_dram = (dram_sample[Counter.L1_MISS] +
                       dram_sample[Counter.LFB_HIT])
        misses_slow = (slow_sample[Counter.L1_MISS] +
                       slow_sample[Counter.LFB_HIT])
        delta_l1_hit.append((misses_dram - misses_slow) / instructions)

    return Fig5Result(
        tier=tier,
        pf_miss_vs_lfb_hit_pearson=pearson(delta_pf_miss, delta_lfb_hit),
        lfb_vs_l1_hit_pearson=pearson(delta_lfb_hit, delta_l1_hit),
        cache_slowdown_vs_lfb_pearson=pearson(lfb_ratio, cache_slow),
    )


def _spec_by_name(lab: Lab, name: str) -> WorkloadSpec:
    for workload in lab.suite():
        if workload.name == name:
            return workload
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Figure 6: per-component error CDFs.  Table 6 / Figure 7: overall.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentAccuracy:
    tier: str
    component: str
    errors: np.ndarray
    within_5pct: float


def fig6_component_error_cdfs(tiers: Sequence[str] = REPORT_TIERS,
                              lab: Optional[Lab] = None
                              ) -> List[ComponentAccuracy]:
    """Absolute prediction error per component per tier (CDF data)."""
    lab = lab or default_lab()
    out: List[ComponentAccuracy] = []
    for tier in tiers:
        records = collect_records(tier, lab)
        for component in ("drd", "cache", "store"):
            errors = np.array([
                abs(r.predicted_components[component] -
                    r.actual_components[component]) for r in records])
            out.append(ComponentAccuracy(
                tier=tier, component=component, errors=errors,
                within_5pct=float(np.mean(errors <= 0.05))))
    return out


@dataclass(frozen=True)
class Table6Row:
    tier: str
    summary: AccuracySummary
    #: Fig. 7 scatter: (predicted, actual) per workload.
    scatter: Tuple[Tuple[float, float], ...] = field(repr=False)


def table6_overall_accuracy(tiers: Sequence[str] = REPORT_TIERS,
                            lab: Optional[Lab] = None) -> List[Table6Row]:
    """Overall prediction accuracy per tier (Table 6, Fig. 7)."""
    lab = lab or default_lab()
    rows: List[Table6Row] = []
    for tier in tiers:
        records = collect_records(tier, lab)
        predicted = [r.predicted_slowdown for r in records]
        actual = [r.actual_slowdown for r in records]
        rows.append(Table6Row(
            tier=tier,
            summary=accuracy_summary(predicted, actual),
            scatter=tuple(zip(predicted, actual)),
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 8: time-series (phased) prediction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeseriesPoint:
    window: int
    phase: str
    predicted: float
    actual: float


def fig8_timeseries(tier: str = "cxl-a", cycles: int = 3,
                    lab: Optional[Lab] = None) -> List[TimeseriesPoint]:
    """Per-window predicted vs actual slowdown for phased tc-kron."""
    lab = lab or default_lab()
    predictor = lab.predictor(tier)
    phased = tc_kron_phased(cycles=cycles)

    points: List[TimeseriesPoint] = []
    for index, window in enumerate(phased.windows()):
        dram = lab.dram_run(tier, window)
        slow = lab.slow_run(tier, window)
        predicted = predictor.predict(dram.profiled()).total
        points.append(TimeseriesPoint(
            window=index,
            phase=window.name,
            predicted=predicted,
            actual=slowdown(dram, slow),
        ))
    return points
