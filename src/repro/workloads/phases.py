"""Phased (time-varying) workloads for dynamic prediction (Fig. 8).

Real programs move through phases with different memory behaviour; the
paper shows CAMP's per-window predictions track measured slowdown over
time for ``tc-kron`` (triangle counting alternates between build and
count phases with very different access patterns).

A :class:`PhasedWorkload` is an ordered sequence of
(:class:`~repro.workloads.spec.WorkloadSpec`, duration-weight) windows.
Each window is executed and profiled independently - exactly how a
per-second perf sampling loop sees a phased program - and the aggregate
behaves like the weighted union of its windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .spec import WorkloadSpec
from .suites import get_workload


@dataclass(frozen=True)
class Phase:
    """One execution phase: a behaviour plus its share of instructions."""

    spec: WorkloadSpec
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("phase weight must be positive")


@dataclass(frozen=True)
class PhasedWorkload:
    """A workload that moves through behavioural phases over time."""

    name: str
    phases: Tuple[Phase, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("a phased workload needs at least one phase")

    @property
    def total_weight(self) -> float:
        return sum(phase.weight for phase in self.phases)

    def windows(self, total_instructions: float = 2e9
                ) -> List[WorkloadSpec]:
        """Per-phase WorkloadSpecs with instructions split by weight.

        Each returned spec carries a ``-p<i>`` suffix so profiling
        windows stay distinguishable in reports.
        """
        total = self.total_weight
        specs: List[WorkloadSpec] = []
        for index, phase in enumerate(self.phases):
            share = phase.weight / total
            specs.append(phase.spec.evolved(
                name=f"{self.name}-p{index}",
                instructions=total_instructions * share))
        return specs


def tc_kron_phased(cycles: int = 3) -> PhasedWorkload:
    """The paper's Fig. 8 workload: tc-kron's alternating phases.

    Triangle counting alternates between a neighbourhood-intersection
    phase (bandwidth-hungry, prefetch-friendly scans) and an irregular
    lookup phase (latency-sensitive, low MLP).  ``cycles`` repetitions
    produce the oscillating slowdown trace of the figure.
    """
    base = get_workload("tc-kron")
    scan = base.evolved(
        name="tc-kron-scan", mlp=7.0, mlp_headroom=0.18,
        same_line_ratio=0.55, pf_friend=0.7, pf_lookahead_ns=125.0,
        l1_hit=0.88, stall_exposure=0.55)
    probe = base.evolved(
        name="tc-kron-probe", mlp=2.2, mlp_headroom=0.03,
        same_line_ratio=0.05, pf_friend=0.1, pf_lookahead_ns=70.0,
        l1_hit=0.8, stall_exposure=0.68)
    ramp = base.evolved(
        name="tc-kron-ramp", mlp=4.0, mlp_headroom=0.08,
        same_line_ratio=0.3, pf_friend=0.4, stall_exposure=0.62)
    phases: List[Phase] = []
    for _ in range(max(1, cycles)):
        phases.append(Phase(scan, 2.0))
        phases.append(Phase(ramp, 1.0))
        phases.append(Phase(probe, 2.0))
    return PhasedWorkload(name="tc-kron", phases=tuple(phases))
