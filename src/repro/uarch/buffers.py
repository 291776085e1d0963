"""Hardware-buffer pressure models: LFB / SuperQueue occupancy, MLP
scaling, and Store Buffer backpressure.

These are the paper's "microarchitectural pressure points" (section 2.3):
the small structures where added memory latency turns into pipeline
stalls.  Three effects live here:

``effective_mlp``
    The demand-read concurrency a core actually sustains: the workload's
    intrinsic MLP, grown slightly under higher latency (requests pend
    longer, so the window spends more time at high concurrency - paper
    Fig. 4c/e), but capped by the LFB entries left over after prefetch
    in-flight occupancy.

``lfb_contention_stalls``
    When demand + prefetch in-flight occupancy exceeds the LFB, new
    allocations block; the excess converts a slice of memory-active
    cycles into extra cache-level stalls (paper 4.2.1, "extended
    occupancy ... can prevent other data accesses from allocating").

``store_backpressure_stalls``
    The SB-full mechanism of section 4.3: store RFO occupancy beyond the
    Store Buffer capacity back-pressures retirement; each memory RFO then
    costs ``L_rfo / drain_parallelism`` cycles of stall.  The transition
    is smoothed with a logistic gate because bursts cross the threshold
    before the mean occupancy does.
"""

from __future__ import annotations

import numpy as np

from ..workloads.spec import WorkloadSpec
from .config import PlatformConfig

#: Latency scale (ns) over which MLP growth saturates: pending-time
#: driven concurrency growth builds quickly over the first ~100 ns of
#: added latency, then hardware limits dominate (paper Fig. 4c/e: MLP
#: growth is already visible on the +50 ns NUMA tier and mostly
#: saturated on CXL).
MLP_GROWTH_SCALE_NS = 120.0

#: Slice of memory-active cycles converted to stalls per unit of
#: fractional LFB over-subscription.
LFB_CONTENTION_GAIN = 0.30



def mlp_growth_factor(spec: WorkloadSpec, latency_ns: float,
                      reference_latency_ns: float) -> float:
    """Multiplier on intrinsic MLP at a given latency (>= 1).

    At the reference (idle local DRAM) latency the factor is 1; it grows
    toward ``1 + mlp_headroom`` as latency rises, saturating on the
    scale of :data:`MLP_GROWTH_SCALE_NS`.
    """
    excess = max(0.0, latency_ns - reference_latency_ns)
    if excess <= 0 or spec.mlp_headroom <= 0:
        return 1.0
    # np.exp, not math.exp: libm and numpy disagree in the last ulp and
    # the batched kernels must replay this path bit-for-bit.
    return 1.0 + spec.mlp_headroom * (
        1.0 - float(np.exp(-excess / MLP_GROWTH_SCALE_NS)))


#: LFB entries L1 prefetches may hold against demand pressure.  Real
#: prefetchers throttle when fill buffers are scarce (demand wins
#: allocation conflicts), so prefetch in-flight occupancy displaces at
#: most this many entries from the demand-visible LFB share.
PF_LFB_ENTRY_CAP = 2.0


def effective_mlp(spec: WorkloadSpec, platform: PlatformConfig,
                  growth: float, pf_l1_inflight: float) -> float:
    """Sustained demand-read MLP per core on this platform.

    ``growth`` is :func:`mlp_growth_factor` at the run's latency, which
    the cycle fixed point holds fixed, so its caller computes it once.
    ``pf_l1_inflight`` is the average number of LFB entries occupied by
    L1-prefetch requests; demand reads use the remainder, but prefetch
    displacement is bounded by :data:`PF_LFB_ENTRY_CAP` (adaptive
    prefetch throttling yields entries to demand).  The hard LFB cap is
    what keeps streaming workloads' MLP flat across tiers and
    interleaving ratios (paper Fig. 10) - they already run at the bound.
    """
    grown = spec.mlp * growth
    displaced = min(max(pf_l1_inflight, 0.0), PF_LFB_ENTRY_CAP)
    demand_entries = max(1.0, platform.lfb_entries - displaced)
    return max(1.0, min(grown, demand_entries))


def lfb_occupancy(demand_mlp: float, pf_l1_inflight: float) -> float:
    """Mean LFB entries in use while the core is memory-active."""
    return max(0.0, demand_mlp) + max(0.0, pf_l1_inflight)


def lfb_contention_stalls(occupancy: float, platform: PlatformConfig,
                          memory_active_cycles: float) -> float:
    """Extra cache-level stall cycles from LFB over-subscription.

    Zero while occupancy fits; beyond capacity, the fractional excess
    converts memory-active cycles into allocation stalls at
    :data:`LFB_CONTENTION_GAIN`.
    """
    if memory_active_cycles <= 0:
        return 0.0
    excess = occupancy - platform.lfb_entries
    if excess <= 0:
        return 0.0
    return (excess / platform.lfb_entries) * LFB_CONTENTION_GAIN * \
        memory_active_cycles


def sb_full_fraction(occupancy: float, capacity: float,
                     burstiness: float) -> float:
    """Fraction of drain time the Store Buffer spends back-pressuring.

    ``occ_eff / (occ_eff + capacity)``, where burstiness inflates
    effective occupancy (bursty stores hit the ceiling while the mean is
    below it).  Saturating-linear rather than a hard threshold: store
    bursts fill the SB briefly even at modest mean occupancy, and the
    full-time then scales with how long each RFO pins its entry - the
    near-proportionality in RFO latency that makes the paper's linear
    S_Store model (Eq. 7) work.
    """
    if capacity <= 0:
        return 1.0
    effective = max(0.0, occupancy) * (1.0 + burstiness)
    return effective / (effective + capacity)


#: Fraction of store-drain time hidden under other execution even when
#: the Store Buffer is saturated (independent work keeps retiring while
#: the SB drains between bursts).
SB_DRAIN_OVERLAP = 0.25


def store_backpressure_stalls(spec: WorkloadSpec, platform: PlatformConfig,
                              store_mem_rfos_per_core: float,
                              rfo_latency_cycles: float,
                              cycles: float) -> float:
    """SB-full stall cycles for one core over a run of ``cycles``.

    Two pieces, multiplied:

    - the *drain service time* ``N_rfo * L_rfo / drain_parallelism`` -
      the cycles the memory system needs to grant all store ownerships;
    - a logistic *full gate* on the SB's Little's-law occupancy
      (``rate * latency``, burst-inflated): near zero while stores fit,
      approaching one when the pipeline is continuously back-pressured.

    The gate makes the term self-limiting inside the cycle fixed point:
    stalls stretch the run, which lowers the store rate, which relaxes
    the gate - exactly the flow-control feedback of section 4.3.
    """
    if cycles <= 0 or store_mem_rfos_per_core <= 0:
        return 0.0
    rfo_rate = store_mem_rfos_per_core / cycles
    occupancy = rfo_rate * rfo_latency_cycles
    full = sb_full_fraction(occupancy, platform.sb_entries, spec.store_burst)
    service = (store_mem_rfos_per_core * rfo_latency_cycles /
               platform.sb_drain_parallelism)
    return full * service * (1.0 - SB_DRAIN_OVERLAP)


# --------------------------------------------------------------------------
# Batched kernels (docs/SOLVER.md): struct-of-arrays mirrors of the
# scalar buffer models above, arithmetic-identical per element.
# --------------------------------------------------------------------------


def mlp_growth_factor_batch(mlp_headroom: np.ndarray, latency_ns: np.ndarray,
                            reference_latency_ns: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mlp_growth_factor`."""
    excess = np.maximum(0.0, latency_ns - reference_latency_ns)
    grown = 1.0 + mlp_headroom * (
        1.0 - np.exp(-excess / MLP_GROWTH_SCALE_NS))
    return np.where((excess <= 0) | (mlp_headroom <= 0), 1.0, grown)


def effective_mlp_batch(mlp: np.ndarray, lfb_entries: np.ndarray,
                        growth: np.ndarray,
                        pf_l1_inflight: np.ndarray) -> np.ndarray:
    """Vectorized :func:`effective_mlp`."""
    grown = mlp * growth
    displaced = np.minimum(np.maximum(pf_l1_inflight, 0.0), PF_LFB_ENTRY_CAP)
    demand_entries = np.maximum(1.0, lfb_entries - displaced)
    return np.maximum(1.0, np.minimum(grown, demand_entries))


def lfb_occupancy_batch(demand_mlp: np.ndarray,
                        pf_l1_inflight: np.ndarray) -> np.ndarray:
    """Vectorized :func:`lfb_occupancy`."""
    return np.maximum(0.0, demand_mlp) + np.maximum(0.0, pf_l1_inflight)


def lfb_contention_stalls_batch(occupancy: np.ndarray,
                                lfb_entries: np.ndarray,
                                memory_active_cycles: np.ndarray
                                ) -> np.ndarray:
    """Vectorized :func:`lfb_contention_stalls`."""
    excess = occupancy - lfb_entries
    stalls = (excess / lfb_entries) * LFB_CONTENTION_GAIN * \
        memory_active_cycles
    return np.where((memory_active_cycles <= 0) | (excess <= 0),
                    0.0, stalls)


def sb_full_fraction_batch(occupancy: np.ndarray, capacity: np.ndarray,
                           burstiness: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sb_full_fraction`."""
    effective = np.maximum(0.0, occupancy) * (1.0 + burstiness)
    fraction = effective / (effective + capacity)
    return np.where(capacity <= 0, 1.0, fraction)


def store_backpressure_stalls_batch(store_burst: np.ndarray,
                                    sb_entries: np.ndarray,
                                    sb_drain_parallelism: np.ndarray,
                                    store_mem_rfos_per_core: np.ndarray,
                                    rfo_latency_cycles: np.ndarray,
                                    cycles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`store_backpressure_stalls`."""
    safe_cycles = np.where(cycles > 0, cycles, 1.0)
    rfo_rate = store_mem_rfos_per_core / safe_cycles
    occupancy = rfo_rate * rfo_latency_cycles
    full = sb_full_fraction_batch(occupancy, sb_entries, store_burst)
    service = (store_mem_rfos_per_core * rfo_latency_cycles /
               sb_drain_parallelism)
    stalls = full * service * (1.0 - SB_DRAIN_OVERLAP)
    return np.where((cycles <= 0) | (store_mem_rfos_per_core <= 0),
                    0.0, stalls)
