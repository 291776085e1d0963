"""Serialization for the objects the result cache persists.

This module is the single place that knows how to flatten the
simulator's dataclasses into plain dicts and rebuild them exactly.

Round-trips are lossless: every field is a float, int, bool, string, or
a nested dataclass of those, so ``from_dict(to_dict(x))`` reconstructs
``x`` bit-for-bit.  That exactness is load-bearing - it is what makes
warm-cache and cold-cache runs (and serial and parallel runs, which
share this code path) produce byte-identical reports.

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
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..core.counters import Counter, CounterSample
from ..uarch.caches import DemandProfile
from ..uarch.config import MemoryDeviceConfig, PlatformConfig
from ..uarch.core import CycleBreakdown
from ..uarch.interleave import Placement
from ..uarch.machine import RunResult
from ..uarch.prefetcher import PrefetchProfile
from ..workloads.spec import WorkloadSpec

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

def device_to_dict(device: MemoryDeviceConfig) -> Dict[str, Any]:
    return asdict(device)


def device_from_dict(data: Dict[str, Any]) -> MemoryDeviceConfig:
    return MemoryDeviceConfig(**data)


def platform_to_dict(platform: PlatformConfig) -> Dict[str, Any]:
    return asdict(platform)


def platform_from_dict(data: Dict[str, Any]) -> PlatformConfig:
    data = dict(data)
    data["dram"] = device_from_dict(data["dram"])
    return PlatformConfig(**data)


def workload_to_dict(workload: WorkloadSpec) -> Dict[str, Any]:
    data = asdict(workload)
    data["tags"] = list(workload.tags)
    return data


def workload_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    data = dict(data)
    data["tags"] = tuple(data.get("tags", ()))
    return WorkloadSpec(**data)


def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    return asdict(placement)


def placement_from_dict(data: Dict[str, Any]) -> Placement:
    return Placement(**data)


# ---------------------------------------------------------------------------
# Counter samples.
# ---------------------------------------------------------------------------

def sample_to_dict(sample: CounterSample) -> Dict[str, float]:
    return {counter.value: value for counter, value in sample.items()}


def sample_from_dict(data: Dict[str, float]) -> CounterSample:
    return CounterSample({Counter(key): value
                          for key, value in data.items()})


# ---------------------------------------------------------------------------
# Full run results.
# ---------------------------------------------------------------------------

def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "workload": workload_to_dict(result.workload),
        "placement": placement_to_dict(result.placement),
        "platform": platform_to_dict(result.platform),
        "breakdown": asdict(result.breakdown),
        "demand": asdict(result.demand),
        "prefetch": asdict(result.prefetch),
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


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    slow_latency_ns: Optional[float] = data["slow_latency_ns"]
    return RunResult(
        workload=workload_from_dict(data["workload"]),
        placement=placement_from_dict(data["placement"]),
        platform=platform_from_dict(data["platform"]),
        breakdown=CycleBreakdown(**data["breakdown"]),
        demand=DemandProfile(**data["demand"]),
        prefetch=PrefetchProfile(**data["prefetch"]),
        counters=sample_from_dict(data["counters"]),
        observed_read_ns=data["observed_read_ns"],
        tier_read_ns=data["tier_read_ns"],
        rfo_ns=data["rfo_ns"],
        dram_latency_ns=data["dram_latency_ns"],
        slow_latency_ns=slow_latency_ns,
        dram_gbps=data["dram_gbps"],
        slow_gbps=data["slow_gbps"],
        dram_utilization=data["dram_utilization"],
        slow_utilization=data["slow_utilization"],
        runtime_s=data["runtime_s"],
        converged=data["converged"],
    )

