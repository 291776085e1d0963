"""Calibration microbenchmarks (paper section 4.4.1).

CAMP's one-time platform calibration runs a small suite of
microbenchmarks on both DRAM and the target slow tier to learn the
platform constants (``p``, ``q`` of the hyperbolic latency-tolerance
model and the per-component ``k`` scaling factors).  The paper's suite:

1. *Pointer chasing* - pure latency sensitivity (``MLP ~= 1``); swept
   over independent-chain counts, it traces out controlled MLP levels.
2. *Sequential reads* - high bandwidth, characterizes MLP behaviour.
3. *Strided access* - triggers the prefetchers, calibrates S_Cache.
4. *Memset* - back-to-back stores, characterizes SB backpressure.

Each microbenchmark here is a :class:`WorkloadSpec` whose correlated
fields (MLP headroom, near-buffer absorption) follow the *central*
population trends exactly - microbenchmarks are clean code with the
canonical dependency structure, which is precisely why they calibrate
well.
"""

from __future__ import annotations

from typing import List

from .generator import typical_mlp_headroom, typical_near_buffer
from .spec import WorkloadSpec

#: Instruction budget for microbenchmarks: short, calibration-sized runs.
_MICRO_INSTRUCTIONS = 5e8


def _micro(name: str, **fields) -> WorkloadSpec:
    mlp = fields.get("mlp", 1.0)
    footprint = fields.get("footprint_gib", 8.0)
    same_line = fields.get("same_line_ratio", 0.0)
    fields.setdefault("mlp_headroom", typical_mlp_headroom(mlp))
    fields.setdefault("near_buffer_hit",
                      typical_near_buffer(footprint, same_line))
    fields.setdefault("instructions", _MICRO_INSTRUCTIONS)
    return WorkloadSpec(name=name, suite="microbench", **fields)


def pointer_chase(chains: int = 1,
                  footprint_gib: float = 16.0) -> WorkloadSpec:
    """Dependent pointer chasing over ``chains`` independent chains.

    One chain is the canonical latency probe (``MLP = 1``); more chains
    raise MLP in controlled steps, tracing the latency-tolerance curve
    the hyperbolic fit needs.
    """
    if chains < 1:
        raise ValueError("chains must be >= 1")
    # Footprints near the LLC size genuinely hit in L3 part of the time;
    # these variants teach the fit what L3-hit-diluted offcore latency
    # looks like (population workloads are similarly diluted).
    footprint_mib = footprint_gib * 1024.0
    l3_hit = min(0.9, 0.9 * 14.0 / max(footprint_mib, 14.0))
    return _micro(
        f"mb-chase-x{chains}-{footprint_gib:g}g",
        base_cpi=0.7,
        loads_per_ki=420.0,
        stores_per_ki=5.0,
        footprint_gib=footprint_gib,
        l1_hit=0.02,
        l2_hit=0.02,
        l3_hit_small_llc=l3_hit,
        llc_sensitivity=0.0,
        mlp=float(chains),
        stall_exposure=0.72,
        same_line_ratio=0.0,
        pf_friend=0.0,
        pf_lookahead_ns=0.0,
        store_miss_ratio=0.0,
        tags=("microbench", "pointer-chase"),
    )


def sequential_read(threads: int = 1,
                    footprint_gib: float = 8.0) -> WorkloadSpec:
    """Streaming sequential reads - drives bandwidth, high MLP."""
    return _micro(
        f"mb-seqread-{threads}t",
        threads=threads,
        base_cpi=0.35,
        loads_per_ki=380.0,
        stores_per_ki=10.0,
        footprint_gib=footprint_gib,
        l1_hit=0.875,  # one miss per line: 8B loads over 64B lines
        l2_hit=0.05,
        l3_hit_small_llc=0.02,
        llc_sensitivity=0.0,
        mlp=10.0,
        stall_exposure=0.55,
        same_line_ratio=0.85,
        pf_friend=0.9,
        pf_lookahead_ns=140.0,
        store_miss_ratio=0.0,
        tags=("microbench", "streaming"),
    )


def strided_access(stride_lines: int = 2,
                   stores_per_ki: float = 10.0) -> WorkloadSpec:
    """Strided reads: every ``stride_lines``-th cacheline.

    Large enough strides defeat spatial reuse but keep the prefetchers
    engaged - the S_Cache calibration point.  ``stores_per_ki``
    variants add a write stream: store RFOs share the uncore lookup
    counters, so the R_Mem proxy must be calibrated under both clean
    and store-diluted conditions (real streaming codes write).
    """
    if stride_lines < 1:
        raise ValueError("stride must be >= 1 line")
    coverage = max(0.3, 0.9 - 0.1 * (stride_lines - 1))
    return _micro(
        f"mb-stride-{stride_lines}-w{stores_per_ki:g}",
        base_cpi=0.5,
        loads_per_ki=400.0,
        stores_per_ki=stores_per_ki,
        footprint_gib=12.0,
        l1_hit=0.6,
        l2_hit=0.1,
        l3_hit_small_llc=0.05,
        llc_sensitivity=0.0,
        mlp=5.0,
        stall_exposure=0.6,
        same_line_ratio=0.3,
        pf_friend=coverage,
        pf_lookahead_ns=110.0,
        store_miss_ratio=0.15 if stores_per_ki > 50 else 0.0,
        tags=("microbench", "strided"),
    )


def memset(buffer_gib: float = 8.0, burst: float = 0.5,
           stores_per_ki: float = 340.0) -> WorkloadSpec:
    """Back-to-back stores: the SB-backpressure calibration point.

    ``stores_per_ki`` variants sweep the Store Buffer occupancy range so
    the linear S_Store fit sees both lightly- and heavily-pressured
    points.
    """
    return _micro(
        f"mb-memset-{buffer_gib:g}g-r{stores_per_ki:g}-b{burst:g}",
        base_cpi=0.4,
        loads_per_ki=20.0,
        stores_per_ki=stores_per_ki,
        footprint_gib=buffer_gib,
        l1_hit=0.95,
        l2_hit=0.5,
        l3_hit_small_llc=0.1,
        llc_sensitivity=0.0,
        mlp=2.0,
        stall_exposure=0.5,
        same_line_ratio=0.5,
        pf_friend=0.2,
        pf_lookahead_ns=90.0,
        # One RFO per line = 1/8 of 8-byte stores.
        store_miss_ratio=0.125,
        store_burst=burst,
        tags=("microbench", "store-heavy"),
    )


def calibration_suite() -> List[WorkloadSpec]:
    """The full one-time calibration suite for a platform.

    Pointer-chase sweeps (chains x footprints) trace the hyperbolic
    latency-tolerance curve; sequential/strided runs pin the cache
    model; memset variants pin the store model.
    """
    suite: List[WorkloadSpec] = []
    for chains in (1, 2, 3, 4, 6, 8, 10, 12):
        for footprint in (0.03, 0.12, 1.0, 4.0, 16.0):
            suite.append(pointer_chase(chains, footprint))
    suite.append(sequential_read(1))
    for stride in (1, 2, 4):
        suite.append(strided_access(stride))
        suite.append(strided_access(stride, stores_per_ki=120.0))
    for stores_per_ki in (120.0, 220.0, 340.0):
        for burst in (0.2, 0.6):
            suite.append(memset(burst=burst, stores_per_ki=stores_per_ki))
    return suite
