"""Best-shot: CAMP's predictive interleaving policy (paper section 6.1).

Best-shot uses the interleaving synthesis model (section 5) to jump
directly to the analytically-optimal DRAM:CXL ratio - no online search,
no reactive migration:

1. profile the workload on DRAM (one run);
2. classify; bandwidth-bound workloads get one extra profiling run on
   the slow tier (Fig. 12);
3. synthesize the full performance curve and pick the ratio minimizing
   predicted slowdown, subject to the fast-tier capacity budget;
4. deploy at that ratio under weighted interleaving.

For workloads that cannot benefit from CXL bandwidth the predicted
optimum is simply the largest ``x`` the capacity allows - Best-shot
also protects against *harmful* configurations (section 6.1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.calibration import Calibration, calibrate
from ..core.interleaving import synthesize
from ..uarch.interleave import Placement
from .base import PolicyDecision, TieringContext, TieringPolicy

#: Default ratio grid: the paper sweeps percent granularity.
_DEFAULT_GRID = 101


class BestShot(TieringPolicy):
    """The Best-shot predictive interleaving policy.

    Parameters
    ----------
    calibration:
        The one-time platform calibration.  When omitted, the policy
        calibrates on first use against the context's machine+device
        (convenient for experiments; a deployment would reuse one).
    grid_points:
        Resolution of the ratio search over the synthesized curve.
    """

    name = "best-shot"

    def __init__(self, calibration: Optional[Calibration] = None,
                 grid_points: int = _DEFAULT_GRID):
        if grid_points < 2:
            raise ValueError("grid needs at least 2 points")
        self.calibration = calibration
        self.grid_points = grid_points

    def _calibration_for(self, context: TieringContext) -> Calibration:
        if (self.calibration is not None and
                self.calibration.device == context.device):
            return self.calibration
        self.calibration = calibrate(context.machine, context.device)
        return self.calibration

    def decide(self, context: TieringContext) -> PolicyDecision:
        calibration = self._calibration_for(context)
        machine, workload = context.machine, context.workload

        dram_profile = machine.profile(workload, Placement.dram_only())
        model = synthesize(dram_profile, calibration, slow_profile=None
                           if not _needs_slow_run(dram_profile,
                                                  calibration)
                           else machine.profile(
                               workload,
                               Placement.slow_only(context.device)))
        runs = 2 if model.classification.is_bandwidth_bound else 1

        cap = context.capacity_fraction
        ratios = np.linspace(min(1.0, cap), 0.0, self.grid_points)
        best_x, best_slowdown = model.optimal_ratio(ratios)

        placement = (Placement.dram_only() if best_x >= 1.0 else
                     Placement.interleaved(best_x, context.device))
        return PolicyDecision(
            placement=placement,
            runtime_overhead=0.0,
            profiling_runs=runs,
            note=(f"predicted S({best_x:.2f}) = {best_slowdown:+.3f}, "
                  f"{model.classification.workload_class.value}"),
        )


def _needs_slow_run(dram_profile, calibration) -> bool:
    """Peek at the classification to know whether to profile the slow
    tier (mirrors Fig. 12 without building the model twice)."""
    from ..core.classify import classify
    return classify(dram_profile,
                    calibration.idle_latency_dram_ns).is_bandwidth_bound
