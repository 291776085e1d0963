"""Placement policies: Best-shot and the section 6 baselines.

- :class:`~repro.policies.bestshot.BestShot` - CAMP's predictive
  interleaving (section 6.1);
- baselines: :class:`~repro.policies.static.Interleave11`,
  :class:`~repro.policies.static.FirstTouch`,
  :class:`~repro.policies.caption.Caption`,
  :class:`~repro.policies.nbt.NBT`,
  :class:`~repro.policies.colloid.Colloid`,
  :class:`~repro.policies.colloid.Alto`,
  :class:`~repro.policies.soar.Soar`;
- colocation scheduling (section 6.3) in
  :mod:`~repro.policies.colocation`.
"""

from .base import (PolicyDecision, PolicyOutcome, TieringContext,
                   TieringPolicy, compare_policies, evaluate_policy)
from .bestshot import BestShot
from .caption import Caption
from .colloid import Alto, Colloid
from .dynamics import (BestShotDynamics, ColloidDynamics,
                       DynamicPolicy, FirstTouchDynamics, NBTDynamics,
                       TieringTrace, simulate_tiering)
from .colocation import (ColocationOutcome, MixedColocationOutcome,
                         contention_amplification, mixed_colocation,
                         schedule_by_camp, schedule_by_mpki)
from .fleet import FleetAssignment, FleetPlan, FleetPlanner
from .nbt import NBT
from .soar import Soar
from .static import FirstTouch, Interleave11

#: The Fig. 15 policy lineup, in reporting order.
def fig15_policies(calibration=None):
    """Best-shot plus the seven baselines, ready to evaluate."""
    return [
        BestShot(calibration),
        Interleave11(),
        Caption(),
        FirstTouch(),
        NBT(),
        Colloid(),
        Alto(),
        Soar(),
    ]

__all__ = [
    "PolicyDecision", "PolicyOutcome", "TieringContext", "TieringPolicy",
    "compare_policies", "evaluate_policy", "BestShot", "Caption", "Alto",
    "Colloid", "ColocationOutcome", "MixedColocationOutcome",
    "contention_amplification",
    "mixed_colocation", "schedule_by_camp", "schedule_by_mpki", "NBT", "Soar", "FirstTouch", "Interleave11",
    "BestShotDynamics", "ColloidDynamics", "DynamicPolicy",
    "FirstTouchDynamics", "NBTDynamics", "TieringTrace",
    "simulate_tiering",
    "FleetAssignment", "FleetPlan", "FleetPlanner",
    "fig15_policies",
]
