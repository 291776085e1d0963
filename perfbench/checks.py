"""Output checks of the benchmark's workloads.

Each check returns a list of failure messages (empty when the outputs
are right).  They run after the timed window, so they cost nothing in
the metrics, and each failed item counts against ``failed``.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import random
from typing import Any, Dict, List, Mapping, Sequence

#: Worst relative cycles difference a colocated job may show against a
#: scalar re-solve under its partner's final traffic.  The joint solve
#: stops when the traffic moves by at most 1e-6 relatively, so cycles
#: agree far closer than that in practice (about 1e-9).
FIXED_POINT_TOLERANCE = 1e-6

#: Observables of a serve answer compared with the replay solve.
SERVE_FIELDS = ("runtime_s", "observed_read_ns", "tier_read_ns", "rfo_ns",
                "dram_latency_ns", "slow_latency_ns")


def result_digest(results: Sequence[Any]) -> str:
    """sha256 over every result's serialized form, in order.

    ``marshal`` writes floats as their exact bits, so two digests agree
    only when every observable is bit-identical.
    """
    from repro.runtime import serde

    digest = hashlib.sha256()
    for result in results:
        digest.update(marshal.dumps(serde.run_result_to_dict(result), 4))
    return digest.hexdigest()


def check_lanes_match_scalar(specs: Sequence[Any], results: Sequence[Any],
                             seed: int, sample: int) -> List[str]:
    """A seeded sample of batch lanes equals looped ``Machine.run``."""
    from repro.runtime import serde
    from repro.uarch.machine import Machine

    failures = []
    picks = random.Random(seed).sample(range(len(specs)),
                                       min(sample, len(specs)))
    for index in sorted(picks):
        spec = specs[index]
        scalar = Machine(spec.platform, noise=spec.noise,
                         seed=spec.seed).run(spec.workload, spec.placement)
        if (serde.run_result_to_dict(scalar) !=
                serde.run_result_to_dict(results[index])):
            failures.append(f"lane {index} ({spec.workload.name}, "
                            f"{spec.placement.describe()}, "
                            f"{spec.platform.name}) differs from "
                            f"Machine.run")
    return failures


def check_reference(digest: str, pearsons: Mapping[str, float],
                    reference: Mapping[str, Any]) -> List[str]:
    """The default seed's digest and Pearsons equal the committed ones."""
    failures = []
    if digest != reference["digest"]:
        failures.append(f"result digest {digest[:16]} != committed "
                        f"{reference['digest'][:16]}")
    for platform, expected in reference["pearson"].items():
        got = pearsons.get(platform)
        if got is None or not math.isclose(got, expected, rel_tol=1e-12):
            failures.append(f"{platform} Pearson {got} != committed "
                            f"{expected}")
    return failures


def check_fixed_point(machine: Any, outcome: Any) -> List[str]:
    """Each colocated job reproduces its cycles when re-solved alone.

    Job ``i`` is re-run with scalar ``Machine.run`` under its partner's
    final tier traffic; at the joint fixed point that must give back
    the joint result's cycles.
    """
    failures = []
    results = outcome.results
    for index, result in enumerate(results):
        partner = results[1 - index]
        external = {"dram": partner.dram_gbps}
        if partner.placement.device is not None:
            external[partner.placement.device] = partner.slow_gbps
        alone = machine.run(result.workload, result.placement,
                            external_traffic=external)
        error = abs(alone.cycles - result.cycles) / result.cycles
        if not error <= FIXED_POINT_TOLERANCE:
            failures.append(f"{result.workload.name} next to "
                            f"{partner.workload.name}: cycles differ by "
                            f"{error:.3g} from the fixed point")
    return failures


def check_serve_answers(answers: Sequence[Mapping[str, Any]],
                        specs: Sequence[Any],
                        tolerance: float) -> List[str]:
    """Each ``ok`` answer is the replay solve of its query.

    ``answers[i]`` is the response body to the query whose spec is
    ``specs[i]``.  The fingerprint must name that spec, and every
    observable in :data:`SERVE_FIELDS` must lie within ``tolerance``
    (relative) of a replay ``run_batch_multi`` solve.
    """
    from repro.runtime import serde
    from repro.uarch.machine import Machine

    failures = []
    replay = Machine.run_batch_multi(list(specs))
    for answer, spec, expected in zip(answers, specs, replay):
        if answer.get("fingerprint") != spec.fingerprint():
            failures.append(f"{spec.workload.name}: answer fingerprint "
                            f"does not match the query")
            continue
        got = answer["result"]
        want = serde.run_result_to_dict(expected)
        for name in SERVE_FIELDS:
            a, b = got[name], want[name]
            if a is None or b is None:
                bad = a is not b
            else:
                bad = not abs(a - b) <= tolerance * max(abs(b), 1e-300)
            if bad:
                failures.append(f"{spec.workload.name} "
                                f"{spec.placement.describe()}: {name} "
                                f"{a} vs replay {b}")
    return failures


def check_repeats(answers: Dict[int, Mapping[str, Any]],
                  repeats: Mapping[int, int]) -> List[str]:
    """A repeated query is answered exactly as its first asking was."""
    failures = []
    for index, original in repeats.items():
        if index in answers and original in answers:
            if answers[index]["result"] != answers[original]["result"]:
                failures.append(f"request {index} repeats request "
                                f"{original} but got another answer")
    return failures
