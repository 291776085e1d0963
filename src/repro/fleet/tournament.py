"""Fleet-scale colocation policy tournaments (``docs/FLEET.md``).

Pipeline:

1. draw the fleet (:func:`~repro.fleet.population.draw_fleet`) from
   the 265-workload evaluation population;
2. profile + synthesize each distinct workload **once** (batched and
   cached through the executor) into a shared model cache;
3. per policy, plan every node's placements analytically - Best-shot
   through :class:`~repro.policies.fleet.FleetPlanner`, the baselines
   through their section-6 placement rules;
4. shard the fleet and solve every shard's node groups in one
   pack-once joint batch
   (:meth:`~repro.uarch.machine.Machine.run_colocated_groups`),
   fanned out over the executor's worker pool;
5. score each policy on fleet SLO metrics - p99 slowdown (seeded
   reservoir percentiles), migration churn, stranded fast-tier
   capacity, weighted speedup - through the arrival schedule, and
   rank them into a :class:`~repro.fleet.report.FleetReport`.

Placements are planned from profiles; only the joint colocated runs
execute, which is the paper's whole operating model scaled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.calibration import Calibration
from ..core.classify import classify
from ..core.interleaving import InterleavingModel, synthesize
from ..policies.caption import DEFAULT_CANDIDATES as CAPTION_CANDIDATES
from ..policies.fleet import FleetPlanner
from ..runtime.executor import Executor
from ..runtime.spec import RunSpec
from ..serve.slo import LatencyRecorder
from ..uarch.interleave import Placement
from ..uarch.machine import Machine
from ..workloads.spec import WorkloadSpec
from ..workloads.suites import evaluation_suite
from .population import (ARRIVAL_SCHEDULES, DEFAULT_GROUP_SIZE, FleetPhase,
                         draw_fleet, node_active, schedule_weights)
from .report import FLEET_SCHEMA, FleetReport, PolicyStanding

#: The tournament lineup, reporting every policy the paper's section 6
#: compares, scaled to fleet groups.
TOURNAMENT_POLICIES: Tuple[str, ...] = (
    "best-shot", "static", "first-touch", "caption", "nbt", "colloid")

#: Nodes solved per shard (each shard is one pack-once joint batch;
#: one executor.map item).
DEFAULT_SHARD_NODES = 250

#: Joint fixed-point tolerance for shard solves.  Looser than the
#: pairwise default (1e-6): fleet metrics aggregate thousands of
#: groups, where 1e-4 relative traffic error is far below the
#: phase-sampling noise floor.
SHARD_JOINT_TOLERANCE = 1e-4

#: Hotness bias each policy's placement carries (matches
#: ``policies/colocation.py``: reactive promoters concentrate hot
#: pages on DRAM, static striping does not).
POLICY_HOTNESS_BIAS: Dict[str, float] = {
    "best-shot": 0.0,
    "static": 0.0,
    "first-touch": 0.10,
    "caption": 0.0,
    "nbt": 0.30,
    "colloid": 0.25,
}

# -- migration-churn model (documented in docs/FLEET.md) -------------
#: First-touch pays one fault-in fill of its planned fast GiB when a
#: node first activates; the placement then persists.
FIRST_TOUCH_FILL_FRACTION = 1.0
#: Reactive policies re-promote their hot set after an idle gap, and
#: keep sampling/migrating while active.  NBT's page-table scanning
#: churns harder than Colloid's latency-gated promotion.
NBT_REACTIVATION_FRACTION = 1.0
NBT_SAMPLING_FRACTION = 0.10
COLLOID_REACTIVATION_FRACTION = 0.6
COLLOID_SAMPLING_FRACTION = 0.04


@dataclass(frozen=True)
class TournamentConfig:
    """Everything a tournament run depends on (all seeded)."""

    nodes: int = 1000
    seed: int = 2026
    device: str = "cxl-a"
    schedule: str = "diurnal"
    group_size: int = DEFAULT_GROUP_SIZE
    shard_nodes: int = DEFAULT_SHARD_NODES
    policies: Tuple[str, ...] = TOURNAMENT_POLICIES
    joint_tolerance: float = SHARD_JOINT_TOLERANCE
    #: Draw from only the first N population workloads (smoke runs).
    population_limit: Optional[int] = None

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.schedule not in ARRIVAL_SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"pick one of {sorted(ARRIVAL_SCHEDULES)}")
        if self.shard_nodes < 1:
            raise ValueError("shard size must be >= 1")
        if len(self.policies) < 2:
            raise ValueError("a tournament needs >= 2 policies")
        for policy in self.policies:
            if policy not in POLICY_HOTNESS_BIAS:
                raise ValueError(
                    f"unknown tournament policy {policy!r}; pick "
                    f"from {sorted(POLICY_HOTNESS_BIAS)}")


def _solve_fleet_shard(task):
    """Pool worker: one shard's pack-once joint solve.

    Pure function of its arguments (machine, jobs, groups, tolerance);
    returns compact per-job cycles plus the solver telemetry, so a 10k
    node fleet ships floats - not RunResults - back over the pipe.
    """
    machine, jobs, groups, tolerance = task
    stats: Dict[str, object] = {}
    results = machine.run_colocated_groups(
        jobs, groups, tolerance=tolerance, stats=stats)
    return ([result.cycles for result in results],
            {"joint_iterations": int(stats["joint_iterations"]),
             "outer_iterations": int(stats["outer_iterations"]),
             "nonconverged": int(stats["nonconverged"]),
             "replay_resolves": int(stats["replay_resolves"]),
             "joint_converged": bool(stats["joint_converged"])})


def _build_models(machine: Machine, calibration: Calibration,
                  executor: Executor,
                  specs: Sequence[WorkloadSpec]
                  ) -> Dict[str, Tuple[InterleavingModel, bool]]:
    """Profile + synthesize every distinct workload once, batched."""
    dram_profiles = executor.profile(
        [RunSpec.from_machine(machine, spec, Placement.dram_only())
         for spec in specs], label="fleet:dram")
    flags = [classify(profile,
                      calibration.idle_latency_dram_ns
                      ).is_bandwidth_bound
             for profile in dram_profiles]
    bandwidth_bound = [spec for spec, is_bw in zip(specs, flags)
                       if is_bw]
    slow_profiles = {}
    if bandwidth_bound:
        profiled = executor.profile(
            [RunSpec.from_machine(
                machine, spec, Placement.slow_only(calibration.device))
             for spec in bandwidth_bound], label="fleet:slow")
        slow_profiles = {spec.name: profile for spec, profile
                         in zip(bandwidth_bound, profiled)}
    models: Dict[str, Tuple[InterleavingModel, bool]] = {}
    for spec, dram_profile, is_bw in zip(specs, dram_profiles, flags):
        models[spec.name] = (
            synthesize(dram_profile, calibration,
                       slow_profiles.get(spec.name)),
            is_bw)
    return models


def _node_fractions(policy: str, specs: Sequence[WorkloadSpec],
                    capacity_gib: float,
                    models: Dict[str, Tuple[InterleavingModel, bool]],
                    planner: FleetPlanner) -> List[float]:
    """Per-workload DRAM fractions under one policy's placement rule."""
    total_gib = sum(spec.footprint_gib for spec in specs)
    if policy == "best-shot":
        plan = planner.plan(specs, capacity_gib)
        return [assignment.dram_fraction
                for assignment in plan.assignments]
    if policy == "static":
        # 1:1 weighted interleave, scaled down only when even a 50:50
        # split of every footprint exceeds the node's fast tier.
        return [min(0.5, capacity_gib / total_gib)] * len(specs)
    if policy == "first-touch":
        fractions = []
        remaining = capacity_gib
        for spec in specs:
            x = min(1.0, remaining / spec.footprint_gib)
            remaining = max(0.0, remaining - x * spec.footprint_gib)
            fractions.append(x)
        return fractions
    if policy == "caption":
        # Coarse per-workload ratio probe (policies/caption.py's
        # candidate grid) on each member's own predicted curve, then a
        # proportional scale-down if the picks overcommit the node.
        fractions = []
        for spec in specs:
            model, _ = models[spec.name]
            cap = min(1.0, capacity_gib / spec.footprint_gib)
            candidates = [min(ratio, cap)
                          for ratio in CAPTION_CANDIDATES]
            fractions.append(min(
                candidates,
                key=lambda x: model.predict(float(x)).total))
        planned_gib = sum(x * spec.footprint_gib
                          for x, spec in zip(fractions, specs))
        if planned_gib > capacity_gib:
            fractions = [x * capacity_gib / planned_gib
                         for x in fractions]
        return fractions
    if policy in ("nbt", "colloid"):
        # Reactive promotion converges to a proportional share of the
        # fast tier (policies/colocation.py's approximation).
        share = min(1.0, capacity_gib / total_gib)
        return [share] * len(specs)
    raise ValueError(f"unknown tournament policy {policy!r}")


def _placement(x: float, device: str, bias: float) -> Placement:
    if x >= 1.0:
        return Placement.dram_only()
    if x <= 0.0:
        return Placement.slow_only(device)
    return Placement(dram_fraction=x, device=device, hotness_bias=bias)


def _churn_gib(policy: str, fast_gib: float,
               activity: Sequence[bool]) -> float:
    """Migration traffic one node generates over the schedule (GiB).

    Planned placements (best-shot, static, caption) pin pages and
    never migrate.  First-touch faults its fast share in once.
    Reactive policies (nbt, colloid) re-promote their hot set on every
    idle-to-active transition and keep sampling while active.
    """
    if policy in ("best-shot", "static", "caption"):
        return 0.0
    if policy == "first-touch":
        return (FIRST_TOUCH_FILL_FRACTION * fast_gib
                if any(activity) else 0.0)
    if policy == "nbt":
        react, sample = (NBT_REACTIVATION_FRACTION,
                         NBT_SAMPLING_FRACTION)
    elif policy == "colloid":
        react, sample = (COLLOID_REACTIVATION_FRACTION,
                         COLLOID_SAMPLING_FRACTION)
    else:
        raise ValueError(f"unknown tournament policy {policy!r}")
    churn = 0.0
    previously_active = False
    for active in activity:
        if active and not previously_active:
            churn += react * fast_gib
        if active:
            churn += sample * fast_gib
        previously_active = active
    return churn


@dataclass
class _PolicyAccumulator:
    recorder: LatencyRecorder
    speedups: List[float] = field(default_factory=list)
    churn_gib: float = 0.0
    stranded_gib: float = 0.0
    solver: Dict[str, int] = field(default_factory=lambda: {
        "shards": 0, "joint_iterations": 0, "outer_iterations": 0,
        "nonconverged": 0, "replay_resolves": 0,
        "joint_nonconverged_shards": 0})


def run_tournament(machine: Machine, calibration: Calibration,
                   executor: Executor,
                   config: TournamentConfig) -> FleetReport:
    """Run the full tournament and return the ranked report."""
    population = list(evaluation_suite(seed=2026))
    if config.population_limit is not None:
        population = population[:config.population_limit]
    fleet = draw_fleet(population, config.nodes, config.seed,
                       group_size=config.group_size)
    by_name = {spec.name: spec for spec in population}
    used_names = sorted({name for node in fleet
                         for name in node.workloads})
    used_specs = [by_name[name] for name in used_names]

    models = _build_models(machine, calibration, executor, used_specs)
    planner = FleetPlanner(machine, calibration,
                           profiler=executor.profiler(machine),
                           model_cache=models)

    # Solo DRAM-only baselines (slowdown denominators), one batched
    # cached pass over the distinct members.
    solo_results = executor.run(
        [RunSpec.from_machine(machine, spec, Placement.dram_only())
         for spec in used_specs], label="fleet:solo")
    solo_cycles = {spec.name: result.cycles
                   for spec, result in zip(used_specs, solo_results)}

    phases: Tuple[FleetPhase, ...] = ARRIVAL_SCHEDULES[config.schedule]
    weights = schedule_weights(phases)
    activity: List[Tuple[bool, ...]] = [
        tuple(node_active(config.seed, node.node_id, phase_index,
                          phase.intensity)
              for phase_index, phase in enumerate(phases))
        for node in fleet]

    mean_capacity_gib = (sum(node.fast_capacity_gib for node in fleet)
                         / len(fleet))
    standings: List[PolicyStanding] = []
    for policy in config.policies:
        bias = POLICY_HOTNESS_BIAS[policy]
        accumulator = _PolicyAccumulator(
            recorder=LatencyRecorder(seed=config.seed))

        node_jobs: List[List[Tuple[WorkloadSpec, Placement]]] = []
        node_fast_gib: List[float] = []
        for node in fleet:
            specs = [by_name[name] for name in node.workloads]
            fractions = _node_fractions(
                policy, specs, node.fast_capacity_gib, models, planner)
            node_jobs.append([
                (spec, _placement(x, config.device, bias))
                for spec, x in zip(specs, fractions)])
            node_fast_gib.append(sum(
                x * spec.footprint_gib
                for spec, x in zip(specs, fractions)))

        # Shard and solve: each task is one pack-once joint batch.
        tasks = []
        for start in range(0, len(fleet), config.shard_nodes):
            shard = range(start, min(start + config.shard_nodes,
                                     len(fleet)))
            jobs: List[Tuple[WorkloadSpec, Placement]] = []
            groups: List[Tuple[int, ...]] = []
            for node_index in shard:
                base = len(jobs)
                jobs.extend(node_jobs[node_index])
                groups.append(tuple(
                    range(base, base + len(node_jobs[node_index]))))
            tasks.append((machine, jobs, groups,
                          config.joint_tolerance))
        shard_outputs = executor.map(_solve_fleet_shard, tasks,
                                     label=f"fleet:{policy}")

        for _, solver_stats in shard_outputs:
            accumulator.solver["shards"] += 1
            for key in ("joint_iterations", "outer_iterations",
                        "nonconverged", "replay_resolves"):
                accumulator.solver[key] += int(solver_stats[key])
            if not solver_stats["joint_converged"]:
                accumulator.solver["joint_nonconverged_shards"] += 1
        flat_cycles = [cycles for shard_cycles, _ in shard_outputs
                       for cycles in shard_cycles]
        cursor = 0
        per_node_cycles: List[List[float]] = []
        for node_index in range(len(fleet)):
            width = len(node_jobs[node_index])
            per_node_cycles.append(flat_cycles[cursor:cursor + width])
            cursor += width

        # Score through the arrival schedule.
        for node_index, node in enumerate(fleet):
            names = node.workloads
            cycles = per_node_cycles[node_index]
            slowdowns = [cycle / solo_cycles[name] - 1.0
                         for name, cycle in zip(names, cycles)]
            accumulator.speedups.append(sum(
                solo_cycles[name] / cycle
                for name, cycle in zip(names, cycles)))
            accumulator.churn_gib += _churn_gib(
                policy, node_fast_gib[node_index],
                activity[node_index])
            for phase_index, weight in enumerate(weights):
                if activity[node_index][phase_index]:
                    for value in slowdowns:
                        accumulator.recorder.record("ok", value)
                    stranded = max(0.0, node.fast_capacity_gib -
                                   node_fast_gib[node_index])
                else:
                    stranded = node.fast_capacity_gib
                accumulator.stranded_gib += weight * stranded

        summary = accumulator.recorder.latency_summary_ms()
        standings.append(PolicyStanding(
            policy=policy,
            rank=0,  # assigned below
            slowdown=summary,
            dropped_samples=accumulator.recorder.dropped_samples,
            weighted_speedup=(sum(accumulator.speedups)
                              / len(accumulator.speedups)),
            migration_gib_per_node=(accumulator.churn_gib
                                    / len(fleet)),
            stranded_gib_per_node=(accumulator.stranded_gib
                                   / len(fleet)),
            stranded_fraction=(accumulator.stranded_gib / len(fleet)
                               / mean_capacity_gib),
            solver=dict(accumulator.solver),
        ))

    ordered = sorted(
        standings,
        key=lambda s: (s.slowdown.get("p99", 0.0),
                       s.migration_gib_per_node, s.policy))
    ranked = tuple(
        PolicyStanding(
            policy=s.policy, rank=rank, slowdown=s.slowdown,
            dropped_samples=s.dropped_samples,
            weighted_speedup=s.weighted_speedup,
            migration_gib_per_node=s.migration_gib_per_node,
            stranded_gib_per_node=s.stranded_gib_per_node,
            stranded_fraction=s.stranded_fraction, solver=s.solver)
        for rank, s in enumerate(ordered, start=1))

    return FleetReport(
        config={
            "schema_origin": FLEET_SCHEMA,
            "nodes": config.nodes,
            "seed": config.seed,
            "platform": machine.platform.name,
            "device": config.device,
            "schedule": config.schedule,
            "group_size": config.group_size,
            "shard_nodes": config.shard_nodes,
            "joint_tolerance": config.joint_tolerance,
            "policies": list(config.policies),
            "population": len(population),
            "distinct_workloads": len(used_specs),
        },
        policies=ranked,
    )
