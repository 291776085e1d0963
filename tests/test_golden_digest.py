"""A golden digest over the seed-2026 suite population.

The digest pins every observable of every replay lane - cycles,
counters, latencies, traffic - for ``evaluation_suite(2026)`` x {DRAM,
cxl-a slow-only, 50:50 cxl-a} x SKX/SPR/EMR, the population
``repro suite`` solves.  ``marshal`` writes floats as their exact bits,
so the digest moves on any ulp-level change to a solo answer.  A change
that must move it bumps ``CACHE_SCHEMA_VERSION`` in the same change,
because stored results would no longer match freshly solved ones.
The same population checks the scalar ``Machine.run`` oracle against
its replay lanes.
"""

import hashlib
import marshal

from repro.runtime import serde
from repro.runtime.spec import RunSpec
from repro.uarch import EMR2S, Machine, Placement, SKX2S, SPR2S
from repro.uarch.buffers import PF_LFB_ENTRY_CAP
from repro.workloads.suites import evaluation_suite

#: sha256 of the population's replay results, in platform, workload,
#: placement order.
GOLDEN_DIGEST = (
    "e99c08a416064c131d8ec5b224226e415ecfedee2f2373319a63ac0c08ddb339")


def population_specs():
    placements = (Placement.dram_only(), Placement.slow_only("cxl-a"),
                  Placement.interleaved(0.5, "cxl-a"))
    return [RunSpec.from_machine(Machine(platform), workload, placement)
            for platform in (SKX2S, SPR2S, EMR2S)
            for workload in evaluation_suite(2026)
            for placement in placements]


def test_replay_population_digest_is_pinned():
    specs = population_specs()
    assert len(specs) == 265 * 3 * 3
    digest = hashlib.sha256()
    for result in Machine.run_batch_multi(specs):
        digest.update(marshal.dumps(serde.run_result_to_dict(result), 4))
    assert digest.hexdigest() == GOLDEN_DIGEST


#: Every seventh lane: 341 lanes, every platform x placement pair.
ORACLE_STRIDE = 7


def test_scalar_oracle_matches_replay_across_the_population():
    """Scalar ``Machine.run`` serializes exactly like its replay lane.

    A strided subset keeps this tier-1; it reaches the kernels' edge
    cases: no exposure saturation (observed latency below the DRAM
    reference), no MLP headroom, and L1-prefetch displacement past the
    LFB cap.
    """
    specs = population_specs()[::ORACLE_STRIDE]
    assert len(specs) >= 300
    assert len({(spec.platform.name, spec.placement)
                for spec in specs}) == 9
    scalar = [spec.execute() for spec in specs]
    assert any(result.observed_read_ns + 1.0 <
               result.platform.dram.idle_latency_ns for result in scalar)
    assert any(spec.workload.mlp_headroom == 0 for spec in specs)
    assert any(result.breakdown.pf_l1_inflight > PF_LFB_ENTRY_CAP
               for result in scalar)
    for spec, lone, lane in zip(specs, scalar,
                                Machine.run_batch_multi(specs)):
        assert marshal.dumps(serde.run_result_to_dict(lone), 4) == \
            marshal.dumps(serde.run_result_to_dict(lane), 4), spec
