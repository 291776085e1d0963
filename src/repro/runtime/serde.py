"""Serialization for the objects the result cache persists.

This module is the single place that knows how to flatten the
simulator's dataclasses into plain dicts and rebuild them exactly.

Round-trips are lossless: every field is a float, int, bool, string, or
a nested dataclass of those, so decoding an encoded value reconstructs
it bit-for-bit.  That exactness is load-bearing - it is what makes
warm-cache and cold-cache runs (and serial and parallel runs, which
share this code path) produce byte-identical reports.

A stored run payload (:func:`run_result_to_payload`) holds only the
solved fields.  The cache key already pins the workload, placement and
platform, so :func:`run_result_from_dict` takes those from the spec;
:func:`run_result_to_dict` is the full form answers and digests use.

Inside a :class:`~repro.runtime.store.ResultStore` record the dict
payload is encoded with :mod:`marshal` (see :func:`payload_to_bytes`):
C-speed both ways, floats stored as binary doubles rather than decimal
strings, and loading never executes code.  Cache *keys* remain
canonical JSON through :func:`repro.runtime.spec.canonical_json` -
payload encoding is a private store detail (docs/STORE.md), key
fingerprints are a public contract.
"""

from __future__ import annotations

import marshal
from dataclasses import fields
from typing import TYPE_CHECKING, Any, Dict, Tuple, Union

from ..core.counters import Counter, CounterSample
from ..uarch.caches import DemandProfile
from ..uarch.config import MemoryDeviceConfig, PlatformConfig
from ..uarch.core import CycleBreakdown
from ..uarch.interleave import Placement
from ..uarch.machine import RunResult
from ..uarch.prefetcher import PrefetchProfile
from ..workloads.spec import WorkloadSpec

if TYPE_CHECKING:   # pragma: no cover - typing only, avoids a cycle
    from .spec import RunSpec

# ---------------------------------------------------------------------------
# Payload bytes: what actually lands inside a store record.
# ---------------------------------------------------------------------------

#: ``marshal`` data format version pinned into every record payload
#: (docs/STORE.md, "Payload encoding").
PAYLOAD_MARSHAL_VERSION = 4


def payload_to_bytes(payload: Dict[str, Any]) -> bytes:
    """Binary encoding of one cache payload.

    Payloads are plain data - dicts of floats, ints, bools, strings,
    and lists/dicts of those - which :func:`marshal.dumps` round-trips
    bit-for-bit at C speed; an earlier canonical-JSON encoding spent
    more time formatting floats than the store spent on I/O.  The
    format version is pinned, and a payload written by an incompatible
    interpreter simply fails :func:`payload_from_bytes`, which the
    store reads as corruption: a miss, never an error.
    """
    return marshal.dumps(payload, PAYLOAD_MARSHAL_VERSION)


def payload_from_bytes(raw: bytes) -> Dict[str, Any]:
    """Decode record payload bytes; ``ValueError`` on any damage.

    :func:`marshal.loads` constructs plain values only - unlike
    pickle, damaged or hostile payload bytes cannot execute code; they
    raise, and the store counts the record corrupt.
    """
    try:
        payload = marshal.loads(raw)
    except (EOFError, ValueError, TypeError) as exc:
        raise ValueError("undecodable payload bytes") from exc
    if not isinstance(payload, dict):
        raise ValueError("payload is not a dict")
    return payload


# ---------------------------------------------------------------------------
# Configuration objects.
# ---------------------------------------------------------------------------

def _field_dict(obj: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    """A fresh dict of ``obj``'s fields ``names``, read directly.

    ``dataclasses.asdict`` would deep-copy every scalar value; the
    callers rebuild the only nested values (a platform's DRAM device, a
    workload's tags) themselves, so every dict they return is new.
    """
    return {name: getattr(obj, name) for name in names}


_DEVICE_FIELDS = tuple(item.name for item in fields(MemoryDeviceConfig))
_PLATFORM_FIELDS = tuple(item.name for item in fields(PlatformConfig))
_WORKLOAD_FIELDS = tuple(item.name for item in fields(WorkloadSpec))
_PLACEMENT_FIELDS = tuple(item.name for item in fields(Placement))


def device_to_dict(device: MemoryDeviceConfig) -> Dict[str, Any]:
    return _field_dict(device, _DEVICE_FIELDS)


def platform_to_dict(platform: PlatformConfig) -> Dict[str, Any]:
    data = _field_dict(platform, _PLATFORM_FIELDS)
    data["dram"] = device_to_dict(platform.dram)
    return data


def workload_to_dict(workload: WorkloadSpec) -> Dict[str, Any]:
    data = _field_dict(workload, _WORKLOAD_FIELDS)
    data["tags"] = list(workload.tags)
    return data


def workload_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    data = dict(data)
    data["tags"] = tuple(data.get("tags", ()))
    return WorkloadSpec(**data)


def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    return _field_dict(placement, _PLACEMENT_FIELDS)


def placement_from_dict(data: Dict[str, Any]) -> Placement:
    return Placement(**data)


# ---------------------------------------------------------------------------
# Counter samples.
# ---------------------------------------------------------------------------

#: Counter id -> member, so decoding skips ``Counter(id)``'s enum
#: machinery per entry.
_COUNTERS_BY_ID: Dict[str, Counter] = {counter.value: counter
                                       for counter in Counter}


def sample_to_dict(sample: CounterSample) -> Dict[str, float]:
    return {counter.value: value for counter, value in sample.items()}


def sample_from_dict(data: Dict[str, float]) -> CounterSample:
    # An unknown id stays a string, for CounterSample to reject.
    return CounterSample({_COUNTERS_BY_ID.get(key, key): value
                          for key, value in data.items()})


# ---------------------------------------------------------------------------
# Full run results.
# ---------------------------------------------------------------------------

_BREAKDOWN_FIELDS = tuple(item.name for item in fields(CycleBreakdown))
_DEMAND_FIELDS = tuple(item.name for item in fields(DemandProfile))
_PREFETCH_FIELDS = tuple(item.name for item in fields(PrefetchProfile))


def run_result_to_payload(result: RunResult) -> Dict[str, Any]:
    """The stored form of a run: only what the solver computed.

    The workload, placement and platform are left out - the cache key
    already pins them, and :func:`run_result_from_dict` takes them from
    the spec.
    """
    return {
        "breakdown": _field_dict(result.breakdown, _BREAKDOWN_FIELDS),
        "demand": _field_dict(result.demand, _DEMAND_FIELDS),
        "prefetch": _field_dict(result.prefetch, _PREFETCH_FIELDS),
        "counters": sample_to_dict(result.counters),
        "observed_read_ns": result.observed_read_ns,
        "tier_read_ns": result.tier_read_ns,
        "rfo_ns": result.rfo_ns,
        "dram_latency_ns": result.dram_latency_ns,
        "slow_latency_ns": result.slow_latency_ns,
        "dram_gbps": result.dram_gbps,
        "slow_gbps": result.slow_gbps,
        "dram_utilization": result.dram_utilization,
        "slow_utilization": result.slow_utilization,
        "runtime_s": result.runtime_s,
        "converged": result.converged,
    }


def expand_payload(payload: Dict[str, Any],
                   inputs: Union["RunSpec", RunResult]) -> Dict[str, Any]:
    """The full :func:`run_result_to_dict` form of a stored payload.

    ``inputs`` supplies the workload, placement and platform: the spec
    the payload is stored under, or the result it was encoded from.
    """
    data = {"workload": workload_to_dict(inputs.workload),
            "placement": placement_to_dict(inputs.placement),
            "platform": platform_to_dict(inputs.platform)}
    data.update(payload)
    return data


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Every field of ``result``: the stored payload plus its inputs."""
    return expand_payload(run_result_to_payload(result), result)


def run_result_from_dict(data: Dict[str, Any], spec: "RunSpec") -> RunResult:
    """Rebuild a result from a stored payload and its ``spec``.

    The result carries the spec's own workload, placement and platform
    objects, as a fresh solve does.
    """
    return RunResult(
        workload=spec.workload,
        placement=spec.placement,
        platform=spec.platform,
        breakdown=CycleBreakdown(**data["breakdown"]),
        demand=DemandProfile(**data["demand"]),
        prefetch=PrefetchProfile(**data["prefetch"]),
        counters=sample_from_dict(data["counters"]),
        observed_read_ns=data["observed_read_ns"],
        tier_read_ns=data["tier_read_ns"],
        rfo_ns=data["rfo_ns"],
        dram_latency_ns=data["dram_latency_ns"],
        slow_latency_ns=data["slow_latency_ns"],
        dram_gbps=data["dram_gbps"],
        slow_gbps=data["slow_gbps"],
        dram_utilization=data["dram_utilization"],
        slow_utilization=data["slow_utilization"],
        runtime_s=data["runtime_s"],
        converged=data["converged"],
    )
