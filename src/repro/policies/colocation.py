"""Colocated workload scheduling (paper section 6.3).

When two workloads share a machine whose fast tier can only hold one of
them, the scheduler must pick which one to banish to the slow tier.
Section 6.3 contrasts two signals:

- **MPKI-guided** (conventional hotness): keep the high-MPKI workload
  in fast memory - it "touches memory more", so it looks like it needs
  DRAM.  The paper's counter-examples (gpt-2 vs tc-road) show MPKI
  does not measure latency *tolerance*.
- **CAMP-guided**: keep the workload with the higher *predicted
  slowdown* in fast memory - placement by modeled performance impact.

Both run under genuine interference: the colocated pair shares the
tiers' bandwidth, so each workload's latency reflects the other's
traffic (:meth:`repro.uarch.machine.Machine.run_colocated`).

The mixed scenario of Fig. 16c - a bandwidth-bound workload interleaved
at its Best-shot ratio next to a latency-bound workload holding the
remaining fast memory - is implemented by :func:`mixed_colocation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.calibration import Calibration
from ..core.interleaving import synthesize
from ..core.metrics import mpki
from ..core.signature import signature
from ..core.slowdown import SlowdownPredictor
from ..uarch.interleave import Placement
from ..uarch.machine import Machine, RunResult
from ..workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class ColocationOutcome:
    """One scheduled pair: who got DRAM, and how everyone fared."""

    scheduler: str
    #: Workload names in (fast-tier, slow-tier) order.
    fast_workload: str
    slow_workload: str
    results: Tuple[RunResult, RunResult]
    #: Solo DRAM-only cycles for normalization, same order as results.
    solo_cycles: Tuple[float, float]

    @property
    def slowdowns(self) -> Tuple[float, float]:
        return tuple(
            result.cycles / solo - 1.0
            for result, solo in zip(self.results, self.solo_cycles))

    @property
    def weighted_speedup(self) -> float:
        """Sum of per-workload normalized performance (higher better)."""
        return sum(solo / result.cycles
                   for result, solo in zip(self.results,
                                           self.solo_cycles))


def _run_pair(machine: Machine, pair: Sequence[WorkloadSpec],
              solo: Sequence[RunResult], scores: Sequence[float],
              device: str, scheduler: str) -> ColocationOutcome:
    """Execute ``pair`` with the higher-scoring workload on DRAM and the
    other on the device.

    ``solo`` holds each workload's DRAM-only run, which the scheduler
    already made to profile it; its cycles are the slowdown baseline.
    """
    ranked = list(zip(pair, solo))
    if not scores[0] >= scores[1]:
        ranked.reverse()
    (fast, fast_solo), (slow, slow_solo) = ranked
    jobs = [(fast, Placement.dram_only()),
            (slow, Placement.slow_only(device))]
    results = machine.run_colocated(jobs)
    return ColocationOutcome(
        scheduler=scheduler,
        fast_workload=fast.name,
        slow_workload=slow.name,
        results=(results[0], results[1]),
        solo_cycles=(fast_solo.cycles, slow_solo.cycles),
    )


def _dram_runs(machine: Machine, pair: Sequence[WorkloadSpec]
               ) -> List[RunResult]:
    return [machine.run(workload, Placement.dram_only())
            for workload in pair]


def schedule_by_mpki(machine: Machine, pair: Sequence[WorkloadSpec],
                     device: str) -> ColocationOutcome:
    """Conventional placement: high-MPKI workload keeps fast memory."""
    solo = _dram_runs(machine, pair)
    scores = [mpki(signature(run.profiled())) for run in solo]
    return _run_pair(machine, pair, solo, scores, device,
                     scheduler="mpki")


def schedule_by_camp(machine: Machine, pair: Sequence[WorkloadSpec],
                     device: str, calibration: Calibration
                     ) -> ColocationOutcome:
    """CAMP placement: the workload predicted to suffer more on the
    slow tier keeps fast memory."""
    predictor = SlowdownPredictor(calibration)
    solo = _dram_runs(machine, pair)
    scores = [predictor.predict(run.profiled()).total for run in solo]
    return _run_pair(machine, pair, solo, scores, device,
                     scheduler="camp")


@dataclass(frozen=True)
class MixedColocationOutcome:
    """Fig. 16c: one policy's placement of a BW-bound + latency-bound
    pair at a given fast:slow capacity split."""

    policy: str
    fast_capacity_gib: float
    bw_placement: Placement
    lat_placement: Placement
    results: Tuple[RunResult, RunResult]
    solo_cycles: Tuple[float, float]

    @property
    def weighted_speedup(self) -> float:
        return sum(solo / result.cycles
                   for result, solo in zip(self.results,
                                           self.solo_cycles))


def _is_bw_bound(dram_profile, calibration: Calibration) -> bool:
    from ..core.classify import classify
    return classify(dram_profile,
                    calibration.idle_latency_dram_ns).is_bandwidth_bound


def contention_amplification(machine: Machine, device: str,
                             calibration: Calibration,
                             spill_gbps: float) -> float:
    """Excess-latency amplification a spill stream inflicts on ``device``.

    A colocated partner's slow-tier penalty scales with the *excess*
    latency over DRAM, which contention amplifies.  The denominator is
    the idle excess of the device actually being shared - probed via
    :meth:`Machine.idle_latency_ns` - not the calibration's device:
    calibrating against cxl-a and colocating on cxl-b must use cxl-b's
    idle latency or the amplification is computed against the wrong
    baseline.
    """
    from ..uarch.memory import loaded_latency_ns

    slow_device = machine.device(device)
    idle_dram_ns = calibration.idle_latency_dram_ns
    idle_slow_ns = machine.idle_latency_ns(device)
    utilization = min(spill_gbps / slow_device.peak_bandwidth_gbps, 0.95)
    loaded_ns = loaded_latency_ns(slow_device, utilization)
    return max(1.0, (loaded_ns - idle_dram_ns) /
               max(idle_slow_ns - idle_dram_ns, 1.0))


def mixed_colocation(machine: Machine, bw_workload: WorkloadSpec,
                     lat_workload: WorkloadSpec, device: str,
                     fast_capacity_gib: float,
                     calibration: Calibration,
                     policy: str = "best-shot"
                     ) -> MixedColocationOutcome:
    """Colocate a bandwidth-bound and a latency-bound workload.

    ``policy`` selects the placement rule:

    - ``"best-shot"``: the BW-bound workload gets its predicted-optimal
      interleave ratio (capacity permitting); the latency-bound one
      takes the remaining fast memory.
    - ``"first-touch"``: both fill fast memory in order (BW first),
      spilling the remainder.
    - ``"nbt"`` / ``"colloid"``: hotness/latency-driven splits of the
      fast tier, approximated by proportional capacity sharing with
      the corresponding hotness bias.
    """
    bw_fp = bw_workload.footprint_gib
    lat_fp = lat_workload.footprint_gib
    # The solo baselines, and Best-shot's DRAM profiles.
    solo = _dram_runs(machine, (bw_workload, lat_workload))

    if policy == "best-shot":
        # CAMP-guided joint placement: synthesize both workloads'
        # predicted performance curves, then pick the fast-memory split
        # that maximizes the *pair's* predicted throughput.  The
        # latency-bound partner's forecast is contention-adjusted: the
        # BW-bound workload's spill traffic loads the shared slow tier,
        # inflating its latency per the device's queueing curve -
        # analytics an operator can do from the same profiling data.
        from ..core.metrics import bandwidth_gbps

        bw_dram, lat_dram = (run.profiled() for run in solo)
        bw_slow = machine.profile(bw_workload,
                                  Placement.slow_only(device))
        bw_model = synthesize(bw_dram, calibration, bw_slow)
        lat_model = synthesize(lat_dram, calibration,
                               machine.profile(
                                   lat_workload,
                                   Placement.slow_only(device))
                               if _is_bw_bound(lat_dram, calibration)
                               else None)
        x_cap = min(1.0, fast_capacity_gib / bw_fp)
        bw_traffic = bandwidth_gbps(bw_dram)

        best = None
        for step in range(0, 21):
            x_bw_candidate = x_cap * step / 20.0
            remaining = max(0.0,
                            fast_capacity_gib - x_bw_candidate * bw_fp)
            x_lat_candidate = min(1.0, remaining / lat_fp)

            spill_gbps = (1.0 - x_bw_candidate) * bw_traffic
            amplification = contention_amplification(
                machine, device, calibration, spill_gbps)
            s_lat = (lat_model.predict(x_lat_candidate).total *
                     amplification)
            predicted = (
                1.0 / (1.0 + bw_model.predict(x_bw_candidate).total) +
                1.0 / (1.0 + max(s_lat, -0.5)))
            if best is None or predicted > best[0]:
                best = (predicted, x_bw_candidate, x_lat_candidate)
        _, x_bw, x_lat = best
        bias = 0.0
    elif policy == "first-touch":
        x_bw = min(1.0, fast_capacity_gib / bw_fp)
        remaining = max(0.0, fast_capacity_gib - x_bw * bw_fp)
        x_lat = min(1.0, remaining / lat_fp)
        bias = 0.10
    elif policy in ("nbt", "colloid"):
        # Reactive policies converge to a proportional share of the
        # fast tier (both workloads' hot pages compete for promotion).
        share = fast_capacity_gib / (bw_fp + lat_fp)
        x_bw = min(1.0, share)
        x_lat = min(1.0, share)
        bias = 0.30 if policy == "nbt" else 0.25
    else:
        raise ValueError(f"unknown mixed-colocation policy {policy!r}")

    def _placement(x: float) -> Placement:
        if x >= 1.0:
            return Placement.dram_only()
        return Placement(dram_fraction=x, device=device,
                         hotness_bias=bias)

    jobs = [(bw_workload, _placement(x_bw)),
            (lat_workload, _placement(x_lat))]
    results = machine.run_colocated(jobs)
    return MixedColocationOutcome(
        policy=policy,
        fast_capacity_gib=fast_capacity_gib,
        bw_placement=jobs[0][1],
        lat_placement=jobs[1][1],
        results=(results[0], results[1]),
        solo_cycles=(solo[0].cycles, solo[1].cycles),
    )
