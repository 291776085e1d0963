"""Tiering-policy framework: the common decision/evaluation harness.

A tiering policy answers one question for one workload on one machine:
*where should the pages live?*  The answer is a :class:`PolicyDecision` -
a :class:`~repro.uarch.interleave.Placement` plus the costs incurred
reaching it (profiling runs, online probing, migration traffic).

The evaluation harness (:func:`evaluate_policy`) mirrors the paper's
section 6.2 methodology: run the workload under the decided placement,
apply the decision overheads, and report performance normalized to
DRAM-only execution (Fig. 15's y-axis; higher is better).

Capacity: policies receive the *fast-tier budget* available to the
workload.  The paper provisions baselines with a 4:1 fast:slow ratio
(80% of the footprint fits in fast memory), while Best-shot typically
chooses to use only 62-74% of it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..uarch.interleave import Placement
from ..uarch.machine import Machine, RunResult
from ..workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class TieringContext:
    """What a policy may look at when deciding a placement."""

    machine: Machine
    workload: WorkloadSpec
    #: Slow tier backing the spill ("numa", "cxl-a", ...).
    device: str
    #: Fast-tier capacity available to this workload, in GiB.
    fast_capacity_gib: float

    @property
    def capacity_fraction(self) -> float:
        """Largest DRAM footprint fraction that fits the fast budget."""
        return min(1.0, self.fast_capacity_gib /
                   self.workload.footprint_gib)


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's placement plus the cost of reaching it."""

    placement: Placement
    #: Fractional runtime overhead from migrations / online probing
    #: (0.05 = the run takes 5% longer than the placement alone would).
    runtime_overhead: float = 0.0
    #: Profiling runs consumed before deployment (offline cost).
    profiling_runs: int = 0
    #: Free-form notes for reports ("equalized at x=0.71", ...).
    note: str = ""

    def __post_init__(self):
        if self.runtime_overhead < 0:
            raise ValueError("runtime overhead must be non-negative")


class TieringPolicy(abc.ABC):
    """Interface all tiering/interleaving policies implement."""

    #: Reporting name (Fig. 15 legend).
    name: str = "policy"

    @abc.abstractmethod
    def decide(self, context: TieringContext) -> PolicyDecision:
        """Choose a placement for the workload."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class PolicyOutcome:
    """One (policy, workload) evaluation."""

    policy: str
    workload: str
    decision: PolicyDecision
    result: RunResult
    #: Effective cycles including decision overhead.
    effective_cycles: float
    #: Cycles of the DRAM-only reference execution.
    dram_cycles: float

    @property
    def normalized_performance(self) -> float:
        """Fig. 15's metric: DRAM-only time over policy time (>1 means
        the policy beats DRAM-only execution)."""
        return self.dram_cycles / self.effective_cycles

    @property
    def slowdown(self) -> float:
        return self.effective_cycles / self.dram_cycles - 1.0


def evaluate_policy(policy: TieringPolicy, context: TieringContext,
                    dram_reference: Optional[RunResult] = None
                    ) -> PolicyOutcome:
    """Decide, execute, and score one policy on one workload."""
    machine = context.machine
    if dram_reference is None:
        dram_reference = machine.run(context.workload,
                                     Placement.dram_only())
    decision = policy.decide(context)
    if (decision.placement.dram_fraction *
            context.workload.footprint_gib >
            context.fast_capacity_gib * (1.0 + 1e-9)):
        raise ValueError(
            f"{policy.name} exceeded its fast-tier budget: "
            f"{decision.placement.describe()} with footprint "
            f"{context.workload.footprint_gib} GiB vs budget "
            f"{context.fast_capacity_gib} GiB")
    result = machine.run(context.workload, decision.placement)
    effective = result.cycles * (1.0 + decision.runtime_overhead)
    return PolicyOutcome(
        policy=policy.name,
        workload=context.workload.name,
        decision=decision,
        result=result,
        effective_cycles=effective,
        dram_cycles=dram_reference.cycles,
    )


def compare_policies(policies: Sequence[TieringPolicy],
                     context: TieringContext) -> List[PolicyOutcome]:
    """Evaluate several policies on the same workload (one Fig. 15
    cluster).  The DRAM reference run is shared."""
    reference = context.machine.run(context.workload,
                                    Placement.dram_only())
    return [evaluate_policy(policy, context, reference)
            for policy in policies]
