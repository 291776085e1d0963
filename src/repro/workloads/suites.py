"""Workload suites: named paper workloads and the 265-strong population.

Two layers:

- **Named workloads** - hand-characterized stand-ins for the programs
  the paper calls out by name (603.bwaves, 654.roms, pr-kron, gpt-2,
  llama, rangeQuery2d, ...).  Their parameters encode the behaviour the
  paper attributes to them: bwaves/fotonik3d/roms are bandwidth-bound
  streamers, pr-kron is the hyper-MLP overestimation outlier, llama the
  bursty-MLP outlier, pr-twitter the tail-latency underestimation case,
  gpt-2 the low-MPKI/high-slowdown colocation example, tc-road its
  high-MPKI/low-slowdown counterpart.

- **The evaluation population** - :func:`evaluation_suite` returns
  exactly 265 workloads (the named ones plus seeded family samples),
  mirroring the paper's evaluation corpus size and behavioural spread.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .generator import (generate_population, typical_mlp_headroom,
                        typical_near_buffer)
from .spec import WorkloadSpec

#: Size of the paper's evaluation corpus.
EVALUATION_SUITE_SIZE = 265


def _named(name: str, suite: str, **fields) -> WorkloadSpec:
    """Build a named workload, defaulting correlated fields sensibly."""
    mlp = fields.get("mlp", 4.0)
    footprint = fields.get("footprint_gib", 8.0)
    same_line = fields.get("same_line_ratio", 0.35)
    fields.setdefault("mlp_headroom", typical_mlp_headroom(mlp))
    fields.setdefault("near_buffer_hit",
                      typical_near_buffer(footprint, same_line))
    return WorkloadSpec(name=name, suite=suite, **fields)


def _spec_stream(name: str, **overrides) -> WorkloadSpec:
    """A SPEC CPU 2017 bandwidth-bound streaming archetype."""
    fields = dict(
        base_cpi=0.45, loads_per_ki=320.0, stores_per_ki=120.0,
        footprint_gib=12.0, l1_hit=0.90, l2_hit=0.3, l3_hit_small_llc=0.06,
        llc_sensitivity=0.08, mlp=8.0, stall_exposure=0.55,
        same_line_ratio=0.60, pf_friend=0.88, pf_l1_share=0.35,
        pf_lookahead_ns=80.0, store_miss_ratio=0.08, store_burst=0.3,
        tags=("streaming", "bandwidth-bound"),
    )
    fields.update(overrides)
    return _named(name, "spec2017", **fields)


def _spec_pointer(name: str, **overrides) -> WorkloadSpec:
    """A SPEC CPU 2017 latency-sensitive pointer archetype."""
    fields = dict(
        base_cpi=0.8, loads_per_ki=340.0, stores_per_ki=60.0,
        footprint_gib=16.0, l1_hit=0.82, l2_hit=0.25,
        l3_hit_small_llc=0.15, llc_sensitivity=0.35, mlp=1.8,
        stall_exposure=0.68, same_line_ratio=0.05, pf_friend=0.12,
        pf_lookahead_ns=70.0, store_miss_ratio=0.04,
        tags=("latency-sensitive", "pointer-chase"),
    )
    fields.update(overrides)
    return _named(name, "spec2017", **fields)


def _gap(name: str, **overrides) -> WorkloadSpec:
    """A GAPBS graph-kernel archetype."""
    fields = dict(
        base_cpi=0.65, loads_per_ki=380.0, stores_per_ki=70.0,
        footprint_gib=24.0, l1_hit=0.82, l2_hit=0.2,
        l3_hit_small_llc=0.12, llc_sensitivity=0.4, mlp=3.5,
        stall_exposure=0.65, same_line_ratio=0.1, pf_friend=0.18,
        pf_lookahead_ns=75.0, store_miss_ratio=0.05,
        tail_sensitivity=0.25, tags=("graph", "irregular"),
    )
    fields.update(overrides)
    return _named(name, "gapbs", **fields)


def _ai(name: str, **overrides) -> WorkloadSpec:
    """An AI-inference archetype (bursty MLP)."""
    fields = dict(
        base_cpi=0.45, loads_per_ki=300.0, stores_per_ki=80.0,
        footprint_gib=14.0, l1_hit=0.92, l2_hit=0.45,
        l3_hit_small_llc=0.2, llc_sensitivity=0.35, mlp=6.0,
        stall_exposure=0.58, same_line_ratio=0.55, pf_friend=0.65,
        pf_lookahead_ns=115.0, store_miss_ratio=0.06, burstiness=0.6,
        tags=("ai", "bursty"),
    )
    fields.update(overrides)
    return _named(name, "ai", **fields)


def named_workloads() -> Dict[str, WorkloadSpec]:
    """The hand-characterized paper workloads, keyed by name."""
    workloads = [
        # -- SPEC CPU 2017: bandwidth-bound streamers --------------------
        _spec_stream("603.bwaves", mlp=10.5, loads_per_ki=330.0,
                     footprint_gib=11.0),
        _spec_stream("649.fotonik3d", mlp=10.0, stores_per_ki=140.0,
                     store_miss_ratio=0.14, footprint_gib=9.5),
        _spec_stream("654.roms", mlp=10.0, loads_per_ki=300.0,
                     stores_per_ki=130.0, footprint_gib=10.5),
        _spec_stream("619.lbm", mlp=11.0, stores_per_ki=160.0,
                     store_miss_ratio=0.15, footprint_gib=6.5),
        _spec_stream("621.wrf", mlp=9.0, pf_friend=0.8,
                     footprint_gib=8.0),
        _spec_stream("628.pop2", mlp=9.0, loads_per_ki=280.0,
                     footprint_gib=7.0),
        _spec_stream("607.cactuBSSN", mlp=9.5, base_cpi=0.5,
                     footprint_gib=13.0),
        _spec_stream("622.wrf-s", mlp=8.5, pf_friend=0.75,
                     footprint_gib=6.0),
        # -- SPEC CPU 2017: latency-sensitive / pointer ------------------
        _spec_pointer("605.mcf", mlp=2.2, footprint_gib=20.0),
        _spec_pointer("620.omnetpp", mlp=1.6, footprint_gib=9.0,
                      l3_hit_small_llc=0.25, llc_sensitivity=0.5),
        _spec_pointer("623.xalancbmk", mlp=1.9, footprint_gib=6.0,
                      l1_hit=0.88),
        _spec_pointer("602.gcc", mlp=2.4, footprint_gib=5.0,
                      l3_hit_small_llc=0.3, base_cpi=0.7),
        _named("557.xz", "spec2017", base_cpi=0.75, loads_per_ki=260.0,
               stores_per_ki=90.0, footprint_gib=8.0, l1_hit=0.9,
               l2_hit=0.45, l3_hit_small_llc=0.3, llc_sensitivity=0.45,
               mlp=2.8, stall_exposure=0.62, same_line_ratio=0.2,
               pf_friend=0.3, pf_lookahead_ns=85.0, store_miss_ratio=0.06,
               hotness_skew=0.3, tags=("latency-sensitive",)),
        _named("625.x264", "spec2017", base_cpi=0.45, loads_per_ki=200.0,
               stores_per_ki=80.0, footprint_gib=2.0, l1_hit=0.97,
               l2_hit=0.8, l3_hit_small_llc=0.7, llc_sensitivity=0.5,
               mlp=3.5, same_line_ratio=0.4, pf_friend=0.6,
               tags=("compute-bound",)),
        _named("500.perlbench", "spec2017", base_cpi=0.55,
               loads_per_ki=240.0, stores_per_ki=110.0, footprint_gib=1.5,
               l1_hit=0.98, l2_hit=0.85, l3_hit_small_llc=0.8,
               llc_sensitivity=0.6, mlp=2.5, same_line_ratio=0.3,
               pf_friend=0.5, tags=("compute-bound",)),
        # -- GAPBS graph kernels ------------------------------------------
        # pr-kron: the hyper-parallelism outlier.  Frontier supersteps
        # make its instantaneous concurrency exceed the average (the
        # paper: overlap "scales non-linearly in ways that simple
        # average MLP metrics do not fully capture"), so CAMP
        # overestimates its slowdown.
        _gap("pr-kron", mlp=11.0, stall_exposure=0.6, pf_friend=0.3,
             same_line_ratio=0.3, tail_sensitivity=0.0,
             burstiness=0.5, mlp_headroom=0.2,
             footprint_gib=32.0, tags=("graph", "hyper-mlp")),
        _gap("pr-twitter", mlp=4.5, tail_sensitivity=0.6,
             footprint_gib=28.0, tags=("graph", "irregular", "tail")),
        _gap("pr-road", mlp=2.5, tail_sensitivity=0.15,
             footprint_gib=12.0),
        _gap("bfs-kron", mlp=5.0, loads_per_ki=360.0,
             footprint_gib=30.0),
        _gap("bfs-twitter", mlp=4.0, tail_sensitivity=0.45,
             footprint_gib=26.0),
        _gap("cc-kron", mlp=4.8, footprint_gib=30.0),
        _gap("cc-twitter", mlp=3.8, tail_sensitivity=0.4,
             footprint_gib=26.0),
        _gap("sssp-kron", mlp=3.2, footprint_gib=34.0),
        _gap("bc-kron", mlp=4.2, footprint_gib=36.0),
        # tc-road: high MPKI but latency tolerant (high MLP growth,
        # strong buffering) - the colocation counter-example.
        _gap("tc-road", mlp=10.0, l1_hit=0.8, l3_hit_small_llc=0.08,
             loads_per_ki=390.0, footprint_gib=2.5,
             stall_exposure=0.36, tail_sensitivity=0.05,
             mlp_headroom=0.45, near_buffer_hit=0.45, base_cpi=1.0,
             tags=("graph", "latency-tolerant", "high-mpki")),
        _gap("tc-kron", mlp=6.0, footprint_gib=30.0,
             tail_sensitivity=0.2, tags=("graph", "phased")),
        # -- PBBS ----------------------------------------------------------
        _named("rangeQuery2d", "pbbs", base_cpi=0.7, loads_per_ki=330.0,
               stores_per_ki=50.0, footprint_gib=18.0, l1_hit=0.85,
               l2_hit=0.3, l3_hit_small_llc=0.18, llc_sensitivity=0.35,
               mlp=4.2, mlp_headroom=0.25, near_buffer_hit=0.22,
               stall_exposure=0.52, same_line_ratio=0.08,
               pf_friend=0.15, pf_lookahead_ns=70.0,
               store_miss_ratio=0.03,
               tags=("latency-sensitive", "pointer-chase")),
        _named("integerSort", "pbbs", base_cpi=0.5, loads_per_ki=280.0,
               stores_per_ki=180.0, footprint_gib=8.0, l1_hit=0.9,
               l2_hit=0.35, l3_hit_small_llc=0.1, mlp=5.5,
               same_line_ratio=0.5, pf_friend=0.6,
               store_miss_ratio=0.2, store_burst=0.5,
               tags=("store-heavy",)),
        _named("suffixArray", "pbbs", base_cpi=0.6, loads_per_ki=310.0,
               stores_per_ki=90.0, footprint_gib=12.0, l1_hit=0.86,
               l2_hit=0.3, l3_hit_small_llc=0.15, mlp=3.0,
               same_line_ratio=0.2, pf_friend=0.35),
        # -- HPC / simulation ----------------------------------------------
        _named("xsbench", "xsbench", base_cpi=0.7, loads_per_ki=350.0,
               stores_per_ki=40.0, footprint_gib=22.0, l1_hit=0.8,
               l2_hit=0.2, l3_hit_small_llc=0.1, llc_sensitivity=0.2,
               mlp=7.5, mlp_headroom=0.35, near_buffer_hit=0.25,
               stall_exposure=0.5, same_line_ratio=0.1,
               pf_friend=0.1, pf_lookahead_ns=65.0,
               tags=("random-access", "latency-tolerant")),
        # -- Cloud ----------------------------------------------------------
        _named("redis-ycsb", "cloud", base_cpi=0.6, loads_per_ki=260.0,
               stores_per_ki=140.0, footprint_gib=24.0, l1_hit=0.95,
               l2_hit=0.55, l3_hit_small_llc=0.3, llc_sensitivity=0.5,
               mlp=1.05, mlp_headroom=0.0, near_buffer_hit=0.02,
               stall_exposure=0.75, same_line_ratio=0.1, pf_friend=0.1,
               store_miss_ratio=0.12, store_burst=0.5,
               tags=("cloud", "latency-sensitive", "low-mpki")),
        _named("spark-terasort", "cloud", base_cpi=0.55, threads=2,
               loads_per_ki=260.0, stores_per_ki=130.0,
               footprint_gib=40.0, l1_hit=0.9, l2_hit=0.4,
               l3_hit_small_llc=0.15, mlp=5.0, same_line_ratio=0.5,
               pf_friend=0.6, store_miss_ratio=0.18, store_burst=0.4,
               tags=("cloud", "streaming")),
        _named("voltdb-tpcc", "cloud", base_cpi=0.7, threads=2,
               loads_per_ki=230.0, stores_per_ki=190.0,
               footprint_gib=16.0, l1_hit=0.94, l2_hit=0.55,
               l3_hit_small_llc=0.4, llc_sensitivity=0.55, mlp=2.2,
               same_line_ratio=0.2, pf_friend=0.25,
               store_miss_ratio=0.15, store_burst=0.65,
               tags=("cloud", "store-heavy")),
        # -- AI -------------------------------------------------------------
        _ai("llama-7b", mlp=7.0, burstiness=0.75, footprint_gib=26.0,
            tags=("ai", "bursty", "bandwidth-bound")),
        _ai("llama-13b", mlp=7.5, burstiness=0.7, footprint_gib=48.0,
            loads_per_ki=330.0, tags=("ai", "bursty", "bandwidth-bound")),
        # gpt-2 token generation: low MPKI (warm caches) but serialized
        # memory dependencies -> high slowdown; the colocation example.
        _ai("gpt-2", mlp=1.6, burstiness=0.2, footprint_gib=4.0,
            l1_hit=0.96, l2_hit=0.75, l3_hit_small_llc=0.35,
            llc_sensitivity=0.3, loads_per_ki=240.0,
            stall_exposure=0.7, same_line_ratio=0.15, pf_friend=0.2,
            near_buffer_hit=0.05, mlp_headroom=0.0,
            tags=("ai", "latency-sensitive", "low-mpki")),
        _ai("dlrm", mlp=4.0, burstiness=0.4, footprint_gib=40.0,
            l1_hit=0.85, l2_hit=0.3, l3_hit_small_llc=0.12,
            loads_per_ki=360.0, pf_friend=0.25, same_line_ratio=0.2,
            tags=("ai", "random-access")),
        _ai("wmt20", mlp=8.0, burstiness=0.5, footprint_gib=18.0,
            loads_per_ki=340.0, stores_per_ki=110.0, pf_friend=0.8,
            same_line_ratio=0.65, store_miss_ratio=0.12,
            tags=("ai", "bandwidth-bound")),
        _ai("resnet50", mlp=6.5, burstiness=0.45, footprint_gib=6.0,
            l1_hit=0.95, l2_hit=0.6, l3_hit_small_llc=0.4,
            tags=("ai",)),
    ]
    return {workload.name: workload for workload in workloads}


def get_workload(name: str) -> WorkloadSpec:
    """Look up a named paper workload."""
    try:
        return named_workloads()[name]
    except KeyError:
        raise KeyError(f"unknown named workload {name!r}") from None


#: Family mix for the generated remainder of the evaluation population.
_POPULATION_MIX: Dict[str, int] = {
    "pointer": 36,
    "hpc-stream": 35,
    "graph": 36,
    "cloud": 25,
    "ai": 24,
    "compute": 18,
    "storeheavy": 20,
    "serialized-warm": 14,
    "mixed": 18,
}


def evaluation_suite(seed: int = 2026) -> List[WorkloadSpec]:
    """The 265-workload evaluation population (named + generated).

    Deterministic for a given seed; the default seed is the one used
    throughout the benchmarks and EXPERIMENTS.md.
    """
    named = list(named_workloads().values())
    generated = generate_population(_POPULATION_MIX, seed=seed)
    suite = named + generated
    if len(suite) != EVALUATION_SUITE_SIZE:
        raise AssertionError(
            f"evaluation suite size drifted: {len(suite)} != "
            f"{EVALUATION_SUITE_SIZE}; adjust _POPULATION_MIX")
    return suite


def bandwidth_bound_eight() -> List[WorkloadSpec]:
    """The eight bandwidth-bound workloads of the Best-shot evaluation
    (Fig. 15): SPEC CPU 2017 streamers plus Llama, at 10 threads (the
    full SKX core count, as the paper's bandwidth-bound experiments)."""
    names = ["603.bwaves", "649.fotonik3d", "654.roms", "619.lbm",
             "621.wrf", "628.pop2", "607.cactuBSSN", "llama-13b"]
    return [get_workload(name).with_threads(10) for name in names]


def bandwidth_bound_twenty() -> List[WorkloadSpec]:
    """The twenty bandwidth-bound workloads of the interleaving-model
    evaluation (Fig. 14): thread-count variants of the SPEC streamers
    and Llama."""
    thread_variants = {
        "603.bwaves": (4, 8, 10),
        "649.fotonik3d": (4, 8),
        "654.roms": (4, 8),
        "619.lbm": (4, 8),
        "621.wrf": (4, 8),
        "628.pop2": (4, 8),
        "607.cactuBSSN": (4, 8),
        "622.wrf-s": (8,),
        "llama-7b": (4, 8),
        "llama-13b": (8,),
        "wmt20": (8,),
    }
    workloads: List[WorkloadSpec] = []
    for name in sorted(thread_variants):
        for threads in thread_variants[name]:
            spec = get_workload(name).with_threads(threads)
            workloads.append(spec.evolved(
                name=f"{name}-{threads}t"))
    if len(workloads) != 20:
        raise AssertionError(
            f"expected 20 bandwidth-bound variants, got {len(workloads)}")
    return workloads


def colocation_pairs() -> List[Sequence[WorkloadSpec]]:
    """The three latency-bound pairs where CAMP and MPKI disagree
    (Fig. 16a/b)."""
    return [
        (get_workload("gpt-2"), get_workload("tc-road")),
        (get_workload("605.mcf"), get_workload("xsbench")),
        (get_workload("rangeQuery2d"), get_workload("redis-ycsb")),
    ]
