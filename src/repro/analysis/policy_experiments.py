"""Experiment drivers for the use-case study (section 6).

========  ========================================================
Fig. 15   :func:`fig15_bestshot_vs_baselines`
Fig. 16a  :func:`fig16a_colocation_prediction`
Fig. 16b  :func:`fig16b_colocation_placement`
Fig. 16c  :func:`fig16c_mixed_colocation`
========  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.metrics import mpki
from ..core.signature import signature
from ..core.slowdown import SlowdownPredictor
from ..policies import (TieringContext, compare_policies, fig15_policies,
                        mixed_colocation, schedule_by_camp,
                        schedule_by_mpki)
from ..policies.colocation import ColocationOutcome
from ..uarch.interleave import Placement
from ..workloads.spec import WorkloadSpec
from ..workloads.suites import (bandwidth_bound_eight, colocation_pairs,
                                get_workload)
from .lab import Lab, bandwidth_lab
from .stats import geometric_mean

#: Baselines are provisioned with a 4:1 fast:slow capacity ratio (80%
#: of the footprint fits in fast memory) - paper section 6.2.1.
BASELINE_FAST_SHARE = 0.8


# ---------------------------------------------------------------------------
# Figure 15: Best-shot vs the seven baselines.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig15Result:
    tier: str
    #: workload -> {policy name -> normalized performance}.
    table: Dict[str, Dict[str, float]]
    policy_order: Tuple[str, ...]

    def geomeans(self) -> Dict[str, float]:
        means: Dict[str, float] = {}
        for policy in self.policy_order:
            means[policy] = geometric_mean(
                [row[policy] for row in self.table.values()])
        return means

    def best_shot_gain_over(self, baseline: str) -> float:
        """Best-shot's largest per-workload gain over a baseline."""
        gains = [row["best-shot"] / row[baseline] - 1.0
                 for row in self.table.values()]
        return max(gains)


def fig15_bestshot_vs_baselines(
        tier: str = "cxl-a",
        workloads: Optional[Sequence[WorkloadSpec]] = None,
        fast_share: float = BASELINE_FAST_SHARE,
        lab: Optional[Lab] = None) -> Fig15Result:
    """Normalized performance of all policies on the BW-bound eight."""
    lab = lab or bandwidth_lab()
    machine = lab.machine_for_tier(tier)
    calibration = lab.calibration(tier)
    policies = fig15_policies(calibration)
    if workloads is None:
        workloads = bandwidth_bound_eight()

    table: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        context = TieringContext(
            machine=machine, workload=workload, device=tier,
            fast_capacity_gib=fast_share * workload.footprint_gib)
        outcomes = compare_policies(policies, context)
        table[workload.name] = {
            outcome.policy: outcome.normalized_performance
            for outcome in outcomes}
    return Fig15Result(
        tier=tier,
        table=table,
        policy_order=tuple(policy.name for policy in policies),
    )


# ---------------------------------------------------------------------------
# Figure 16a: CAMP vs MPKI as colocation predictors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColocationPredictionRow:
    workload: str
    camp_predicted: float
    actual_colocated: float
    mpki_value: float
    #: Rank by each signal among the pair (0 = "suffers most on slow").
    camp_rank: int
    mpki_rank: int


def fig16a_colocation_prediction(tier: str = "cxl-a",
                                 lab: Optional[Lab] = None
                                 ) -> List[ColocationPredictionRow]:
    """Per-workload slow-tier slowdown: CAMP forecast vs measurement
    under colocation, with the MPKI signal alongside.

    The chosen pairs are ones where CAMP and MPKI *rank the partners
    oppositely* - the cases where hotness-guided placement goes wrong.
    """
    lab = lab or bandwidth_lab()
    machine = lab.machine_for_tier(tier)
    calibration = lab.calibration(tier)
    predictor = SlowdownPredictor(calibration)

    rows: List[ColocationPredictionRow] = []
    for pair in colocation_pairs():
        # One DRAM-only run per workload is its CAMP profile, its MPKI
        # profile and its solo baseline.
        solo = {workload.name: machine.run(workload, Placement.dram_only())
                for workload in pair}
        forecasts = {name: predictor.predict(run.profiled()).total
                     for name, run in solo.items()}
        mpki_values = {name: mpki(signature(run.profiled()))
                       for name, run in solo.items()}
        actuals = {}
        # Actual colocated slowdown of each partner when *it* is the
        # one on the slow tier (the other holds DRAM).
        for victim, partner in (pair, tuple(reversed(pair))):
            jobs = [(partner, Placement.dram_only()),
                    (victim, Placement.slow_only(tier))]
            results = machine.run_colocated(jobs)
            actuals[victim.name] = (results[1].cycles /
                                    solo[victim.name].cycles - 1.0)

        camp_order = sorted(pair, key=lambda w: -forecasts[w.name])
        mpki_order = sorted(pair, key=lambda w: -mpki_values[w.name])
        for workload in pair:
            rows.append(ColocationPredictionRow(
                workload=workload.name,
                camp_predicted=forecasts[workload.name],
                actual_colocated=actuals[workload.name],
                mpki_value=mpki_values[workload.name],
                camp_rank=[w.name for w in camp_order].index(
                    workload.name),
                mpki_rank=[w.name for w in mpki_order].index(
                    workload.name),
            ))
    return rows


# ---------------------------------------------------------------------------
# Figure 16b: placement quality, CAMP-guided vs MPKI-guided.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementComparison:
    pair: Tuple[str, str]
    camp: ColocationOutcome
    mpki: ColocationOutcome

    @property
    def camp_advantage(self) -> float:
        """Relative improvement of CAMP placement over MPKI placement
        in pair throughput (weighted speedup)."""
        return (self.camp.weighted_speedup /
                self.mpki.weighted_speedup - 1.0)


def fig16b_colocation_placement(tier: str = "cxl-a",
                                lab: Optional[Lab] = None
                                ) -> List[PlacementComparison]:
    lab = lab or bandwidth_lab()
    machine = lab.machine_for_tier(tier)
    calibration = lab.calibration(tier)
    comparisons: List[PlacementComparison] = []
    for pair in colocation_pairs():
        camp = schedule_by_camp(machine, pair, tier, calibration)
        mpki_outcome = schedule_by_mpki(machine, pair, tier)
        comparisons.append(PlacementComparison(
            pair=(pair[0].name, pair[1].name),
            camp=camp,
            mpki=mpki_outcome,
        ))
    return comparisons


# ---------------------------------------------------------------------------
# Figure 16c: mixed BW-bound + latency-bound colocation across ratios.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedRow:
    fast_share: float
    #: policy -> weighted speedup of the pair.
    speedups: Dict[str, float]


def fig16c_mixed_colocation(tier: str = "cxl-a",
                            fast_shares: Sequence[float] = (
                                0.4, 0.5, 0.6, 0.7, 0.8),
                            policies: Sequence[str] = (
                                "best-shot", "first-touch", "nbt",
                                "colloid"),
                            lab: Optional[Lab] = None) -> List[MixedRow]:
    """654.roms (10 threads, BW-bound) + 557.xz (latency-bound) under
    varying fast-tier provisioning."""
    lab = lab or bandwidth_lab()
    machine = lab.machine_for_tier(tier)
    calibration = lab.calibration(tier)
    bw = get_workload("654.roms").with_threads(10)
    lat = get_workload("557.xz")
    total_fp = bw.footprint_gib + lat.footprint_gib

    rows: List[MixedRow] = []
    for share in fast_shares:
        capacity = share * total_fp
        speedups: Dict[str, float] = {}
        for policy in policies:
            outcome = mixed_colocation(machine, bw, lat, tier, capacity,
                                       calibration, policy=policy)
            speedups[policy] = outcome.weighted_speedup
        rows.append(MixedRow(fast_share=share, speedups=speedups))
    return rows
