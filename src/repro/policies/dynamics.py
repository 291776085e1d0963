"""Epoch-based dynamics of reactive tiering (section 6.2.3's mechanism).

The static policy classes in this package charge reactive systems a
parametric runtime overhead.  This module derives those costs from
first principles by actually *simulating the migration loop*: execution
proceeds in epochs; after each epoch the policy observes the machine
(per-tier latencies, placement) and migrates pages, paying for the
copies with real bandwidth.

This reproduces the paper's two structural critiques of reactive
tiering:

- **warm-up**: epochs run at suboptimal placements until the loop
  converges, while Best-shot starts at its analytically-chosen ratio;
- **migration traffic**: every moved page is a read + a write through
  the same memory system the workload needs.

The simulation is deliberately policy-agnostic: a
:class:`DynamicPolicy` sees only what its real counterpart sees
(latency samples for Colloid, hotness/capacity for NBT) and answers
with a new target placement, rate-limited by the migration budget.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Tuple

from ..core.calibration import Calibration
from ..core.interleaving import synthesize
from ..uarch.interleave import Placement
from ..uarch.machine import Machine
from ..workloads.spec import WorkloadSpec

#: Sustained page-migration copy bandwidth (GB/s).  Kernel migration
#: (4 KiB copies + page-table fixups + TLB shootdowns) moves far less
#: than memcpy speed; a few GB/s matches published numbers for
#: NUMA-balancing-style migration.
MIGRATION_BANDWIDTH_GBPS = 4.0

#: Largest footprint fraction a reactive loop migrates per epoch.
DEFAULT_MIGRATION_RATE = 0.10


@dataclass(frozen=True)
class EpochObservation:
    """What a reactive policy can see at the end of an epoch."""

    epoch: int
    placement_x: float
    dram_latency_ns: float
    slow_latency_ns: float
    dram_utilization: float
    slow_utilization: float


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of the trace: placement, work, and migration cost."""

    epoch: int
    placement_x: float
    cycles: float
    migration_cycles: float
    observation: EpochObservation

    @property
    def total_cycles(self) -> float:
        return self.cycles + self.migration_cycles


@dataclass(frozen=True)
class TieringTrace:
    """A full dynamic-tiering execution."""

    policy: str
    workload: str
    records: Tuple[EpochRecord, ...]
    #: DRAM-only total cycles over the same work, for normalization.
    dram_only_cycles: float

    @property
    def total_cycles(self) -> float:
        return sum(record.total_cycles for record in self.records)

    @property
    def migration_cycles(self) -> float:
        return sum(record.migration_cycles for record in self.records)

    @property
    def normalized_performance(self) -> float:
        """DRAM-only time over policy time (Fig. 15 metric)."""
        return self.dram_only_cycles / self.total_cycles

    @property
    def final_x(self) -> float:
        return self.records[-1].placement_x

    def convergence_epoch(self, tolerance: float = 0.02) -> int:
        """First epoch from which the placement stays within
        ``tolerance`` of its final value."""
        final = self.final_x
        for record in self.records:
            if abs(record.placement_x - final) <= tolerance:
                return record.epoch
        return self.records[-1].epoch


class DynamicPolicy(abc.ABC):
    """A reactive (or proactive) placement loop."""

    name: str = "dynamic-policy"

    @abc.abstractmethod
    def initial_x(self, machine: Machine, workload: WorkloadSpec,
                  device: str, capacity_fraction: float) -> float:
        """Placement before the first epoch."""

    def adjust(self, observation: EpochObservation,
               capacity_fraction: float) -> float:
        """Target placement for the next epoch (default: hold)."""
        return observation.placement_x


class FirstTouchDynamics(DynamicPolicy):
    """Fill the fast tier at allocation time, never migrate."""

    name = "first-touch"

    def initial_x(self, machine, workload, device,
                  capacity_fraction) -> float:
        return capacity_fraction


class ColloidDynamics(DynamicPolicy):
    """Latency equalization, one proportional step per epoch.

    Moves pages toward the lower-latency tier, as the real system's
    per-quantum decision does; the step is proportional to the relative
    latency gap, capped by the migration rate.
    """

    name = "colloid"

    def __init__(self, gain: float = 0.6,
                 migration_rate: float = DEFAULT_MIGRATION_RATE):
        self.gain = gain
        self.migration_rate = migration_rate

    def initial_x(self, machine, workload, device,
                  capacity_fraction) -> float:
        # Real deployments start from the first-touch layout.
        return capacity_fraction

    #: Relative latency gap below which Colloid holds still (real
    #: implementations damp around equality to avoid ping-ponging).
    deadband = 0.05

    def adjust(self, observation, capacity_fraction) -> float:
        gap = (observation.slow_latency_ns -
               observation.dram_latency_ns)
        scale = max(observation.dram_latency_ns, 1.0)
        relative = gap / scale
        if abs(relative) < self.deadband:
            return observation.placement_x
        step = max(-self.migration_rate,
                   min(self.migration_rate, self.gain * relative))
        return min(capacity_fraction,
                   max(0.0, observation.placement_x + step))


class NBTDynamics(DynamicPolicy):
    """Hot-page promotion: rate-limited climb toward the capacity fill.

    NUMA-balancing tiering promotes recently-touched pages into the
    fast tier; with our (mostly uniform) page popularity that converges
    on filling the fast tier, at the kernel's promotion pace.
    """

    name = "nbt"

    def __init__(self, promotion_rate: float = 0.06,
                 start_fraction: float = 0.3):
        self.promotion_rate = promotion_rate
        self.start_fraction = start_fraction

    def initial_x(self, machine, workload, device,
                  capacity_fraction) -> float:
        # Pages land interleaved-ish before promotion kicks in.
        return min(capacity_fraction, self.start_fraction)

    def adjust(self, observation, capacity_fraction) -> float:
        target = capacity_fraction * 0.95  # promotion watermark
        step = min(self.promotion_rate,
                   abs(target - observation.placement_x))
        direction = 1.0 if target > observation.placement_x else -1.0
        return min(capacity_fraction,
                   max(0.0, observation.placement_x + direction * step))


class BestShotDynamics(DynamicPolicy):
    """CAMP's proactive policy: profile, predict, jump, never migrate."""

    name = "best-shot"

    def __init__(self, calibration: Calibration):
        self.calibration = calibration

    def initial_x(self, machine, workload, device,
                  capacity_fraction) -> float:
        from ..core.classify import classify
        dram_profile = machine.profile(workload, Placement.dram_only())
        slow_profile = None
        if classify(dram_profile,
                    self.calibration.idle_latency_dram_ns
                    ).is_bandwidth_bound:
            slow_profile = machine.profile(
                workload, Placement.slow_only(device))
        model = synthesize(dram_profile, self.calibration, slow_profile)
        import numpy as np
        ratios = np.linspace(min(1.0, capacity_fraction), 0.0, 101)
        x_best, _ = model.optimal_ratio(ratios)
        return x_best


def simulate_tiering(machine: Machine, workload: WorkloadSpec,
                     device: str, fast_capacity_gib: float,
                     policy: DynamicPolicy, epochs: int = 20,
                     hotness_bias: float = 0.0,
                     epoch_seconds: float = 1.0) -> TieringTrace:
    """Run the epoch loop and return the full trace.

    The workload is rescaled so one epoch is ``epoch_seconds`` of
    DRAM-only execution (migration costs are wall-clock, so the
    work-to-footprint ratio must be realistic), then split across
    ``epochs``.  Each epoch executes at the policy's current placement;
    the policy observes and adjusts; moved pages cost
    ``bytes / MIGRATION_BANDWIDTH_GBPS`` of wall-clock, charged to the
    epoch that performs the move.
    """
    if epochs < 1:
        raise ValueError("need at least one epoch")
    capacity_fraction = min(1.0, fast_capacity_gib /
                            workload.footprint_gib)
    # Rescale to epoch_seconds of DRAM-only time per epoch.
    probe = machine.run(workload, Placement.dram_only())
    scale = epoch_seconds * epochs / max(probe.runtime_s, 1e-9)
    workload = workload.evolved(
        instructions=workload.instructions * scale)
    slice_spec = workload.evolved(
        instructions=workload.instructions / epochs)

    def placement(x: float) -> Placement:
        if x >= 1.0:
            return Placement.dram_only()
        return Placement(dram_fraction=x, device=device,
                         hotness_bias=hotness_bias)

    x = policy.initial_x(machine, workload, device, capacity_fraction)
    records: List[EpochRecord] = []
    for epoch in range(epochs):
        result = machine.run(slice_spec, placement(x))
        slow_latency_ns = (result.slow_latency_ns
                           if result.slow_latency_ns is not None else
                           machine.idle_latency_ns(device))
        observation = EpochObservation(
            epoch=epoch,
            placement_x=x,
            dram_latency_ns=result.dram_latency_ns,
            slow_latency_ns=slow_latency_ns,
            dram_utilization=result.dram_utilization,
            slow_utilization=result.slow_utilization,
        )
        new_x = min(capacity_fraction,
                    max(0.0, policy.adjust(observation,
                                           capacity_fraction)))
        moved_gib = abs(new_x - x) * workload.footprint_gib
        migration_seconds = (moved_gib * 1.074) / \
            MIGRATION_BANDWIDTH_GBPS  # GiB -> GB, read+write amortized
        migration_cycles = migration_seconds * \
            machine.platform.frequency_ghz * 1e9
        records.append(EpochRecord(
            epoch=epoch,
            placement_x=x,
            cycles=result.cycles,
            migration_cycles=migration_cycles,
            observation=observation,
        ))
        x = new_x

    dram_only = machine.run(workload, Placement.dram_only())
    return TieringTrace(
        policy=policy.name,
        workload=workload.name,
        records=tuple(records),
        dram_only_cycles=dram_only.cycles,
    )
