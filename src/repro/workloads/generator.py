"""Seeded synthetic workload generation.

Builds the parametric population that stands in for the paper's 265 real
programs.  Each *family* (pointer-chasing, streaming HPC, graph
analytics, cloud serving, AI inference, compute-bound, ...) is a set of
parameter distributions over :class:`~repro.workloads.spec.WorkloadSpec`
fields, sampled with a deterministic per-family RNG so every run of the
suite sees the identical population.

Two cross-field correlations are load-bearing - they are the physical
regularities CAMP's predictors exploit, and the paper measures them on
real hardware:

- :func:`typical_mlp_headroom` - how much a workload's MLP can grow
  under added latency increases with its intrinsic MLP (Fig. 4c/e/f:
  serialized pointer chains cannot widen; parallel access streams keep
  more requests in flight as each one pends longer).
- :func:`near_buffer_from_footprint` - small-footprint workloads hit
  uncore/memory-controller buffers more often, lowering their observed
  baseline latency and their latency growth on slow tiers (Fig. 4d).

The generator applies bounded noise around both correlations so they are
trends, not identities - CAMP has to fit them, as on real machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .spec import WorkloadSpec


def typical_mlp_headroom(mlp: float) -> float:
    """Central MLP-growth headroom for a workload of intrinsic ``mlp``.

    Serialized code (MLP ~= 1) has no headroom - dependence chains
    cannot widen.  Mid-MLP code gains the most: longer pending times
    keep more of its independent requests in flight.  Code already
    running at the Line-Fill-Buffer bound (~12 entries) has nowhere to
    grow - which is why the paper's streaming workloads show near-flat
    MLP across tiers and interleaving ratios (Fig. 10) while mid-MLP
    workloads show up to ~20% growth (Fig. 4c/e).
    """
    room_above = max(0.0, (11.5 - mlp) / 10.5)
    return max(0.0, 0.07 * (mlp - 1.0) * room_above)


def near_buffer_from_footprint(footprint_gib: float) -> float:
    """Central near-buffer absorption for a given footprint.

    Small footprints keep a larger share of their traffic inside uncore
    and memory-controller buffers (~45 ns), lowering observed latency.
    """
    return 0.02 + 0.30 * math.exp(-max(footprint_gib, 0.01) / 3.0)


def typical_near_buffer(footprint_gib: float,
                        same_line_ratio: float) -> float:
    """Central fast-path absorption: footprint plus access regularity.

    Two mechanisms lower a workload's observed baseline latency
    (Fig. 4d): small footprints hit uncore/MC buffers, and *regular*
    access streams (high same-line locality) hit open DRAM rows and
    combine in MC buffers.  Streaming workloads therefore observe lower
    latency AND have higher MLP - the L-MLP correlation that makes AOL
    (and the hyperbolic fit) predictive on real machines.
    """
    return min(0.45, near_buffer_from_footprint(footprint_gib) +
               0.18 * max(0.0, min(1.0, same_line_ratio)))


@dataclass(frozen=True)
class Range:
    """A closed interval sampled uniformly (optionally log-uniformly)."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self):
        if self.high < self.low:
            raise ValueError("range high must be >= low")
        if self.log and self.low <= 0:
            raise ValueError("log-uniform ranges need a positive low")

    def sample(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.low),
                                            np.log(self.high))))
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Family:
    """Parameter distributions for one workload family."""

    name: str
    suite: str
    base_cpi: Range = Range(0.4, 0.9)
    loads_per_ki: Range = Range(180.0, 360.0)
    stores_per_ki: Range = Range(40.0, 130.0)
    footprint_gib: Range = Range(2.0, 32.0, log=True)
    l1_hit: Range = Range(0.88, 0.97)
    l2_hit: Range = Range(0.25, 0.65)
    l3_hit_small_llc: Range = Range(0.1, 0.6)
    llc_sensitivity: Range = Range(0.1, 0.5)
    mlp: Range = Range(1.5, 8.0)
    stall_exposure: Range = Range(0.5, 0.7)
    same_line_ratio: Range = Range(0.1, 0.6)
    pf_friend: Range = Range(0.2, 0.8)
    pf_l1_share: Range = Range(0.25, 0.45)
    pf_lookahead_ns: Range = Range(90.0, 140.0)
    store_miss_ratio: Range = Range(0.02, 0.15)
    store_burst: Range = Range(0.1, 0.4)
    burstiness: Range = Range(0.0, 0.1)
    tail_sensitivity: Range = Range(0.0, 0.1)
    hotness_skew: Range = Range(0.3, 0.5)
    threads: Tuple[int, ...] = (1,)
    tags: Tuple[str, ...] = ()
    #: Noise (sigma, relative) around the mlp-headroom correlation.
    headroom_noise: float = 0.25
    #: Noise (sigma, absolute) around the footprint->near-buffer trend.
    near_buffer_noise: float = 0.03

    def sample(self, rng: np.random.Generator, name: str) -> WorkloadSpec:
        """Draw one workload from this family's distributions."""
        mlp = self.mlp.sample(rng)
        headroom = typical_mlp_headroom(mlp) * float(
            rng.normal(1.0, self.headroom_noise))
        headroom = float(min(0.4, max(0.0, headroom)))

        footprint = self.footprint_gib.sample(rng)
        same_line = self.same_line_ratio.sample(rng)
        near_buffer = typical_near_buffer(footprint, same_line) + float(
            rng.normal(0.0, self.near_buffer_noise))
        near_buffer = float(min(0.45, max(0.0, near_buffer)))

        return WorkloadSpec(
            name=name,
            suite=self.suite,
            threads=int(rng.choice(self.threads)),
            base_cpi=self.base_cpi.sample(rng),
            loads_per_ki=self.loads_per_ki.sample(rng),
            stores_per_ki=self.stores_per_ki.sample(rng),
            footprint_gib=footprint,
            l1_hit=self.l1_hit.sample(rng),
            l2_hit=self.l2_hit.sample(rng),
            l3_hit_small_llc=self.l3_hit_small_llc.sample(rng),
            llc_sensitivity=self.llc_sensitivity.sample(rng),
            mlp=mlp,
            mlp_headroom=headroom,
            stall_exposure=self.stall_exposure.sample(rng),
            same_line_ratio=same_line,
            pf_friend=self.pf_friend.sample(rng),
            pf_l1_share=self.pf_l1_share.sample(rng),
            pf_lookahead_ns=self.pf_lookahead_ns.sample(rng),
            store_miss_ratio=self.store_miss_ratio.sample(rng),
            store_burst=self.store_burst.sample(rng),
            burstiness=self.burstiness.sample(rng),
            tail_sensitivity=self.tail_sensitivity.sample(rng),
            hotness_skew=self.hotness_skew.sample(rng),
            near_buffer_hit=near_buffer,
            tags=self.tags,
        )

    def generate(self, count: int, seed: int,
                 prefix: Optional[str] = None) -> List[WorkloadSpec]:
        """Generate ``count`` deterministic workloads from this family."""
        if count < 0:
            raise ValueError("count must be non-negative")
        # zlib.crc32 is stable across processes (str.__hash__ is not).
        import zlib
        family_key = zlib.crc32(self.name.encode())
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, family_key]))
        prefix = prefix or self.name
        return [self.sample(rng, f"{prefix}-{index:03d}")
                for index in range(count)]


# ---------------------------------------------------------------------------
# The family definitions.  Ranges are chosen so the population spans the
# paper's behavioural spectrum: slowdowns from ~0 (compute-bound) to
# >100% (serialized pointer chasing), every mix of the three slowdown
# components, and the named misprediction classes.
# ---------------------------------------------------------------------------

POINTER_CHASE = Family(
    name="pointer",
    suite="pointer",
    base_cpi=Range(0.6, 1.1),
    loads_per_ki=Range(250.0, 420.0),
    stores_per_ki=Range(15.0, 70.0),
    footprint_gib=Range(4.0, 64.0, log=True),
    l1_hit=Range(0.75, 0.92),
    l2_hit=Range(0.1, 0.35),
    l3_hit_small_llc=Range(0.03, 0.25),
    llc_sensitivity=Range(0.1, 0.45),
    mlp=Range(1.0, 2.6),
    stall_exposure=Range(0.6, 0.75),
    same_line_ratio=Range(0.0, 0.12),
    pf_friend=Range(0.02, 0.25),
    pf_lookahead_ns=Range(50.0, 90.0),
    store_miss_ratio=Range(0.01, 0.08),
    tags=("latency-sensitive", "pointer-chase"),
)

STREAMING_HPC = Family(
    name="hpc-stream",
    suite="spec2017",
    base_cpi=Range(0.35, 0.6),
    loads_per_ki=Range(260.0, 380.0),
    stores_per_ki=Range(80.0, 160.0),
    footprint_gib=Range(4.0, 24.0, log=True),
    l1_hit=Range(0.82, 0.90),
    l2_hit=Range(0.2, 0.45),
    l3_hit_small_llc=Range(0.02, 0.2),
    llc_sensitivity=Range(0.02, 0.2),
    mlp=Range(5.0, 10.0),
    stall_exposure=Range(0.5, 0.65),
    same_line_ratio=Range(0.45, 0.65),
    pf_friend=Range(0.7, 0.95),
    pf_lookahead_ns=Range(110.0, 160.0),
    store_miss_ratio=Range(0.04, 0.12),
    store_burst=Range(0.15, 0.45),
    hotness_skew=Range(0.05, 0.2),
    tags=("streaming",),
)

GRAPH_ANALYTICS = Family(
    name="graph",
    suite="gapbs",
    base_cpi=Range(0.5, 0.9),
    loads_per_ki=Range(280.0, 430.0),
    stores_per_ki=Range(30.0, 100.0),
    footprint_gib=Range(8.0, 64.0, log=True),
    l1_hit=Range(0.78, 0.9),
    l2_hit=Range(0.12, 0.4),
    l3_hit_small_llc=Range(0.05, 0.35),
    llc_sensitivity=Range(0.2, 0.55),
    mlp=Range(1.8, 6.5),
    stall_exposure=Range(0.55, 0.72),
    same_line_ratio=Range(0.02, 0.25),
    pf_friend=Range(0.05, 0.4),
    pf_lookahead_ns=Range(60.0, 100.0),
    tail_sensitivity=Range(0.05, 0.35),
    threads=(1, 1, 1, 2),
    tags=("graph", "irregular"),
)

CLOUD_SERVING = Family(
    name="cloud",
    suite="cloud",
    base_cpi=Range(0.5, 1.0),
    loads_per_ki=Range(180.0, 320.0),
    stores_per_ki=Range(90.0, 200.0),
    footprint_gib=Range(8.0, 48.0, log=True),
    l1_hit=Range(0.9, 0.97),
    l2_hit=Range(0.35, 0.7),
    l3_hit_small_llc=Range(0.2, 0.6),
    llc_sensitivity=Range(0.25, 0.6),
    mlp=Range(1.5, 5.0),
    same_line_ratio=Range(0.1, 0.4),
    pf_friend=Range(0.15, 0.5),
    store_miss_ratio=Range(0.04, 0.15),
    store_burst=Range(0.3, 0.7),
    threads=(1, 1, 2),
    tags=("cloud", "store-heavy"),
)

AI_INFERENCE = Family(
    name="ai",
    suite="ai",
    base_cpi=Range(0.35, 0.6),
    loads_per_ki=Range(240.0, 360.0),
    stores_per_ki=Range(50.0, 120.0),
    footprint_gib=Range(4.0, 48.0, log=True),
    l1_hit=Range(0.88, 0.96),
    l2_hit=Range(0.3, 0.6),
    l3_hit_small_llc=Range(0.1, 0.4),
    llc_sensitivity=Range(0.2, 0.5),
    mlp=Range(4.0, 9.0),
    same_line_ratio=Range(0.4, 0.7),
    pf_friend=Range(0.5, 0.85),
    burstiness=Range(0.35, 0.8),
    tags=("ai", "bursty"),
)

COMPUTE_BOUND = Family(
    name="compute",
    suite="spec2017",
    base_cpi=Range(0.5, 1.6),
    loads_per_ki=Range(120.0, 260.0),
    stores_per_ki=Range(30.0, 90.0),
    footprint_gib=Range(0.5, 8.0, log=True),
    l1_hit=Range(0.96, 0.995),
    l2_hit=Range(0.6, 0.9),
    l3_hit_small_llc=Range(0.5, 0.9),
    llc_sensitivity=Range(0.3, 0.7),
    mlp=Range(1.5, 5.0),
    same_line_ratio=Range(0.1, 0.4),
    pf_friend=Range(0.3, 0.7),
    tags=("compute-bound",),
)

STORE_INTENSIVE = Family(
    name="storeheavy",
    suite="phoronix",
    base_cpi=Range(0.4, 0.8),
    loads_per_ki=Range(60.0, 180.0),
    stores_per_ki=Range(180.0, 340.0),
    footprint_gib=Range(2.0, 24.0, log=True),
    l1_hit=Range(0.92, 0.98),
    l2_hit=Range(0.4, 0.8),
    l3_hit_small_llc=Range(0.2, 0.6),
    mlp=Range(2.0, 6.0),
    same_line_ratio=Range(0.3, 0.6),
    pf_friend=Range(0.2, 0.6),
    store_miss_ratio=Range(0.08, 0.3),
    store_burst=Range(0.35, 0.8),
    tags=("store-heavy",),
)

SERIALIZED_WARM = Family(
    name="serialized-warm",
    suite="cloud",
    base_cpi=Range(0.5, 0.9),
    loads_per_ki=Range(180.0, 300.0),
    stores_per_ki=Range(40.0, 110.0),
    footprint_gib=Range(2.0, 12.0, log=True),
    l1_hit=Range(0.94, 0.985),
    l2_hit=Range(0.6, 0.85),
    l3_hit_small_llc=Range(0.2, 0.5),
    llc_sensitivity=Range(0.2, 0.5),
    mlp=Range(1.0, 2.2),
    stall_exposure=Range(0.62, 0.75),
    same_line_ratio=Range(0.05, 0.25),
    pf_friend=Range(0.05, 0.3),
    pf_lookahead_ns=Range(55.0, 85.0),
    store_miss_ratio=Range(0.01, 0.08),
    tags=("latency-sensitive", "low-mpki"),
)

MIXED_GENERAL = Family(
    name="mixed",
    suite="pbbs",
    l1_hit=Range(0.84, 0.94),
    l3_hit_small_llc=Range(0.05, 0.45),
    tags=("mixed",),
)

FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (POINTER_CHASE, STREAMING_HPC, GRAPH_ANALYTICS,
                   CLOUD_SERVING, AI_INFERENCE, COMPUTE_BOUND,
                   STORE_INTENSIVE, SERIALIZED_WARM, MIXED_GENERAL)
}


def generate_population(counts: Dict[str, int],
                        seed: int = 2026) -> List[WorkloadSpec]:
    """Generate a mixed population: ``{family name: count}`` -> specs."""
    population: List[WorkloadSpec] = []
    for family_name in sorted(counts):
        family = FAMILIES.get(family_name)
        if family is None:
            raise KeyError(
                f"unknown family {family_name!r}; "
                f"available: {sorted(FAMILIES)}")
        population.extend(family.generate(counts[family_name], seed))
    return population
