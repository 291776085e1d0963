"""SLO accounting for the prediction service (``docs/SERVE.md``).

Two halves:

- :class:`LatencyRecorder` - a thread-safe outcome/latency accumulator
  the server (and the load generator, independently) feed per-request;
- :class:`SLOReport` - the schema-versioned artifact ``repro loadgen``
  emits and CI uploads: percentiles (p50/p99/p999) of the
  slowdown-prediction latency, the shed and deadline-expiry rates, and
  the coalesce factor (lanes solved per batch - the whole economic
  argument for the coalescer is this number staying above 1 under
  concurrent load).

Latency percentiles are computed on the *scheduled* start of each
request, not the moment the client got around to sending it - the
wrk2-style correction for coordinated omission, so a stalled server
cannot hide its own queueing delay from the report.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

#: Schema tag on every SLO payload; bump on layout changes.
SLO_SCHEMA = "repro-slo/1"

#: Latency samples retained per outcome; beyond this the recorder
#: keeps a uniform reservoir instead of storing every sample (the
#: report flags how many arrivals are represented only statistically).
MAX_LATENCY_SAMPLE_COUNT = 200_000


def _reservoir_draw(seed: int, arrival: int, space: int) -> int:
    """Deterministic uniform draw in ``[0, space)`` for one arrival.

    Hash-based rather than stateful RNG so a given (seed, arrival
    index) always lands on the same slot regardless of thread
    interleaving of *other* outcomes.
    """
    digest = hashlib.sha256(
        f"slo-reservoir:{seed}:{arrival}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % space

#: The closed outcome vocabulary (mirrors the protocol statuses).
OUTCOMES = ("ok", "shed", "deadline", "draining", "bad_request",
            "error", "transport_error")


def percentile_ms(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (milliseconds)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyRecorder:
    """Thread-safe per-outcome latency accumulator.

    Past ``max_samples`` ok latencies the recorder switches to seeded
    reservoir sampling (Algorithm R): every arrival - first or last -
    has the same probability of being retained, so a long run's
    p99/p999 describe the whole run rather than its warm-up window.
    ``seed`` pins the replacement draws; the same arrival sequence
    under the same seed reproduces the same reservoir byte for byte.
    """

    def __init__(self, max_samples: int = MAX_LATENCY_SAMPLE_COUNT,
                 seed: int = 0):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._seed = seed
        self._counts: Dict[str, int] = {}
        self._latencies_ms: List[float] = []
        self._ok_seen = 0
        self.dropped_samples = 0

    def record(self, outcome: str, latency_ms: float) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            self._counts[outcome] = self._counts.get(outcome, 0) + 1
            if outcome == "ok":
                # Percentiles are over *answered* predictions: shed and
                # expired requests terminate fast by design and would
                # flatter the tail.
                self._ok_seen += 1
                if len(self._latencies_ms) < self._max_samples:
                    self._latencies_ms.append(latency_ms)
                    return
                # Reservoir step: arrival n (1-based) replaces a
                # resident with probability max_samples / n.
                slot = _reservoir_draw(self._seed, self._ok_seen,
                                       self._ok_seen)
                if slot < self._max_samples:
                    self._latencies_ms[slot] = latency_ms
                # Whether replaced or rejected, exactly one sample's
                # value is no longer individually represented.
                self.dropped_samples += 1

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def latency_summary_ms(self) -> Dict[str, float]:
        with self._lock:
            samples = list(self._latencies_ms)
        return {
            "p50": round(percentile_ms(samples, 0.50), 3),
            "p99": round(percentile_ms(samples, 0.99), 3),
            "p999": round(percentile_ms(samples, 0.999), 3),
            "max": round(max(samples), 3) if samples else 0.0,
            "samples": float(len(samples)),
        }


@dataclass
class SLOReport:
    """The committed/uploaded service-level report."""

    rate_rps: float
    duration_s: float
    sent: int
    outcomes: Dict[str, int]
    latency_ms: Dict[str, float]
    #: Server-side counters snapshot (/stats) at the end of the run.
    server: Dict[str, Any] = field(default_factory=dict)
    schema: str = SLO_SCHEMA

    @property
    def ok(self) -> int:
        return self.outcomes.get("ok", 0)

    @property
    def shed_fraction(self) -> float:
        return self.outcomes.get("shed", 0) / max(1, self.sent)

    @property
    def deadline_fraction(self) -> float:
        return self.outcomes.get("deadline", 0) / max(1, self.sent)

    @property
    def failure_count(self) -> int:
        """Responses outside the graceful vocabulary (must be 0)."""
        return (self.outcomes.get("error", 0)
                + self.outcomes.get("transport_error", 0))

    @property
    def coalesce_factor(self) -> float:
        """Query lanes solved per batch, from the server's counters."""
        batches = self.server.get("batches_solved", 0)
        lanes = self.server.get("lanes_solved", 0)
        return lanes / batches if batches else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "sent": self.sent,
            "outcomes": dict(self.outcomes),
            "latency_ms": dict(self.latency_ms),
            "shed_fraction": round(self.shed_fraction, 6),
            "deadline_fraction": round(self.deadline_fraction, 6),
            "failures": self.failure_count,
            "coalesce_factor": round(self.coalesce_factor, 4),
            "server": dict(self.server),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOReport":
        if data.get("schema") != SLO_SCHEMA:
            raise ValueError(
                f"unsupported SLO schema {data.get('schema')!r}; "
                f"expected {SLO_SCHEMA!r}")
        return cls(rate_rps=float(data["rate_rps"]),
                   duration_s=float(data["duration_s"]),
                   sent=int(data["sent"]),
                   outcomes=dict(data["outcomes"]),
                   latency_ms=dict(data["latency_ms"]),
                   server=dict(data.get("server", {})))

    def render(self) -> str:
        """Deterministic multi-line report (what the CLI prints)."""
        lat = self.latency_ms
        lines = [
            f"slo: {self.sent} requests @ {self.rate_rps:g} rps "
            f"over {self.duration_s:g}s",
            f"  outcomes: " + ", ".join(
                f"{name}={self.outcomes[name]}"
                for name in sorted(self.outcomes)),
            f"  prediction latency ms: p50={lat.get('p50', 0.0):g} "
            f"p99={lat.get('p99', 0.0):g} p999={lat.get('p999', 0.0):g} "
            f"max={lat.get('max', 0.0):g}",
            f"  shed: {self.shed_fraction:.2%}  "
            f"deadline-expired: {self.deadline_fraction:.2%}  "
            f"failures: {self.failure_count}",
            f"  coalesce factor: {self.coalesce_factor:.2f} "
            f"lanes/batch "
            f"({self.server.get('lanes_solved', 0)} lanes, "
            f"{self.server.get('batches_solved', 0)} batches)",
        ]
        breaker = self.server.get("breaker")
        if isinstance(breaker, dict):
            lines.append(
                f"  store breaker: state={breaker.get('state')} "
                f"opens={breaker.get('opens', 0)} "
                f"failures={breaker.get('failures', 0)}")
        return "\n".join(lines)


def load_report(path) -> SLOReport:
    """Read a committed SLO payload back (CI trend checks, tests)."""
    with open(path) as handle:
        return SLOReport.from_dict(json.load(handle))
