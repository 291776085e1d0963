"""Declarative, deterministic fault plans (``docs/FAULTS.md``).

A :class:`FaultPlan` describes *which* faults a chaos run may inject -
counter loss in the profiling path, latency spikes in the memory tiers,
worker crashes/hangs in the process pool, corruption in the persistent
store - and *how often*, as independent per-site probabilities.

Every decision is a pure function of ``(seed, site key)``: the draw
hashes the seed together with a structured key (fault family, task
index, counter id, ...) and compares the result against the fault's
probability.  Two consequences make chaos testing tractable:

- **Reproducibility.**  The same plan and seed injects the same faults
  at the same sites on every run, on every machine - a chaos failure
  can be replayed under a debugger.
- **Parent/child agreement.**  The executor's parent process can
  pre-compute which pool tasks will crash (for telemetry) without any
  back-channel from a worker that is about to ``os._exit``.

Worker faults fire only at ``attempt == 0``, so an injected crash or
hang is transient *by construction*: the retry/fallback path always
succeeds, which is what lets the chaos suite assert recovery rather
than mere failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Counter-fault modes: remove the event entirely, report a hard zero,
#: or multiplicatively perturb the count.
COUNTER_MODES = ("drop", "zero", "perturb")
#: Tier-fault modes: multiplicative tail-latency spike, or an additive
#: transient stall (ns).
TIER_MODES = ("spike", "stall")
#: Worker-fault modes: hard process death, or a hang (sleep).
WORKER_MODES = ("crash", "hang")
#: Store-fault modes: overwrite with garbage, cut the file short,
#: delete it outright, or make the store unreachable for a burst of
#: operations (``disconnect`` - the mode the serve-target chaos suite
#: uses to trip the circuit breaker).
STORE_MODES = ("corrupt", "truncate", "vanish", "disconnect")


def _draw(seed: int, *parts) -> float:
    """Deterministic uniform draw in [0, 1) keyed by ``(seed, parts)``."""
    material = ":".join([str(seed)] + [str(part) for part in parts])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], "
                         f"got {probability}")


@dataclass(frozen=True)
class CounterFault:
    """Loss or distortion of one PMU counter (perf multiplexing model).

    ``counter`` is a paper id (``"P3"``) or ``"*"`` for every expected
    counter; ``CYCLES`` is never touched regardless (a sample cannot
    exist without it).  ``magnitude`` only applies to ``perturb``: the
    count is scaled by a factor drawn from ``1 +- magnitude``.
    """

    counter: str
    mode: str
    probability: float
    magnitude: float = 0.2

    def __post_init__(self):
        if self.mode not in COUNTER_MODES:
            raise ValueError(f"unknown counter-fault mode: {self.mode!r}")
        _check_probability(self.probability)
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")


@dataclass(frozen=True)
class TierFault:
    """Latency misbehaviour of a memory tier (paper section 4.4.4).

    ``tier`` is a device name (``"cxl-a"``) or ``"*"`` for every
    non-DRAM tier.  ``spike`` multiplies the loaded latency by
    ``1 + magnitude`` (a tail event); ``stall`` adds ``magnitude``
    nanoseconds flat (a transient device stall).
    """

    tier: str
    mode: str
    probability: float
    magnitude: float = 2.0

    def __post_init__(self):
        if self.mode not in TIER_MODES:
            raise ValueError(f"unknown tier-fault mode: {self.mode!r}")
        _check_probability(self.probability)
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")


@dataclass(frozen=True)
class WorkerFault:
    """Death or hang of a pool worker executing one task."""

    mode: str
    probability: float
    #: Sleep duration for ``hang`` faults; pick it above the harness's
    #: ``task_timeout`` to exercise the timeout path.
    hang_s: float = 1.5

    def __post_init__(self):
        if self.mode not in WORKER_MODES:
            raise ValueError(f"unknown worker-fault mode: {self.mode!r}")
        _check_probability(self.probability)
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")


@dataclass(frozen=True)
class StoreFault:
    """Damage to a freshly-written persistent cache entry."""

    mode: str
    probability: float

    def __post_init__(self):
        if self.mode not in STORE_MODES:
            raise ValueError(f"unknown store-fault mode: {self.mode!r}")
        _check_probability(self.probability)


@dataclass(frozen=True)
class WorkerAction:
    """The concrete worker fault drawn for one (task, attempt) site."""

    mode: str
    hang_s: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault declarations.

    The plan itself holds no state and is picklable, so it travels into
    pool workers as plain data; all randomness is re-derived from the
    seed at each decision site.
    """

    seed: int = 0
    counter_faults: Tuple[CounterFault, ...] = field(default=())
    tier_faults: Tuple[TierFault, ...] = field(default=())
    worker_faults: Tuple[WorkerFault, ...] = field(default=())
    store_faults: Tuple[StoreFault, ...] = field(default=())
    name: str = "custom"

    # -- decision sites ------------------------------------------------------
    def counter_action(self, context, counter_id: str
                       ) -> Optional[CounterFault]:
        """The counter fault hitting ``counter_id`` at ``context``, if any.

        ``context`` identifies the sample (workload index, window
        index, ...); the first matching declared fault whose draw fires
        wins.  ``CYCLES`` is exempt by contract.
        """
        if counter_id == "cycles":
            return None
        for fault in self.counter_faults:
            if fault.counter not in ("*", counter_id):
                continue
            if _draw(self.seed, "counter", context, counter_id,
                     fault.mode) < fault.probability:
                return fault
        return None

    def perturb_factor(self, context, counter_id: str,
                       magnitude: float) -> float:
        """The deterministic scale factor for a ``perturb`` fault."""
        offset = 2.0 * _draw(self.seed, "perturb", context,
                             counter_id) - 1.0
        return max(0.0, 1.0 + magnitude * offset)

    def tier_action(self, tier: str, call_index: int
                    ) -> Optional[TierFault]:
        """The tier fault hitting one run's ``tier``, if any.

        ``tier`` is ``"dram"`` or a slow device's name.  ``"*"`` faults
        match every tier except local DRAM - the paper's tail/stall
        pathologies are slow-tier phenomena.
        """
        for fault in self.tier_faults:
            if fault.tier == "*":
                if tier == "dram":
                    continue
            elif fault.tier != tier:
                continue
            if _draw(self.seed, "tier", tier, call_index,
                     fault.mode) < fault.probability:
                return fault
        return None

    def worker_action(self, index: int, attempt: int
                      ) -> Optional[WorkerAction]:
        """The worker fault for task ``index`` at ``attempt``, if any.

        Only attempt 0 ever faults, which makes every injected worker
        failure recoverable by one retry or the serial fallback.
        """
        if attempt > 0:
            return None
        for fault in self.worker_faults:
            if _draw(self.seed, "worker", index,
                     fault.mode) < fault.probability:
                return WorkerAction(mode=fault.mode, hang_s=fault.hang_s)
        return None

    def store_action(self, key: str) -> Optional[str]:
        """The store-fault mode hitting the entry ``key``, if any."""
        for fault in self.store_faults:
            if _draw(self.seed, "store", key,
                     fault.mode) < fault.probability:
                return fault.mode
        return None

    # -- convenience ---------------------------------------------------------
    def reseeded(self, seed: int) -> "FaultPlan":
        """The same fault declarations under a different seed."""
        return FaultPlan(seed=seed, counter_faults=self.counter_faults,
                         tier_faults=self.tier_faults,
                         worker_faults=self.worker_faults,
                         store_faults=self.store_faults, name=self.name)


def _schedule_quick(seed: int) -> FaultPlan:
    """A small mixed plan for CI smoke runs: every family, low volume."""
    return FaultPlan(
        seed=seed, name="quick",
        counter_faults=(CounterFault("P3", "drop", 0.6),
                        CounterFault("P7", "perturb", 0.5, 0.3)),
        tier_faults=(TierFault("*", "spike", 0.3, 2.0),),
        worker_faults=(WorkerFault("crash", 0.6),),
        store_faults=(StoreFault("corrupt", 0.5),),
    )


def _schedule_default(seed: int) -> FaultPlan:
    """The full mixed plan: all families at realistic probabilities."""
    return FaultPlan(
        seed=seed, name="default",
        counter_faults=(CounterFault("P3", "drop", 0.5),
                        CounterFault("P13", "drop", 0.35),
                        CounterFault("P7", "drop", 0.35),
                        CounterFault("P6", "zero", 0.25),
                        CounterFault("P12", "perturb", 0.4, 0.25)),
        tier_faults=(TierFault("*", "spike", 0.4, 3.0),
                     TierFault("*", "stall", 0.25, 150.0)),
        worker_faults=(WorkerFault("hang", 0.3, hang_s=1.5),
                       WorkerFault("crash", 0.55)),
        store_faults=(StoreFault("corrupt", 0.4),
                      StoreFault("truncate", 0.3),
                      StoreFault("vanish", 0.2)),
    )


def _schedule_counters(seed: int) -> FaultPlan:
    """Counter loss only: the perf-multiplexing stress test."""
    return FaultPlan(
        seed=seed, name="counters",
        counter_faults=(CounterFault("*", "drop", 0.25),
                        CounterFault("*", "perturb", 0.15, 0.2)),
    )


def _schedule_tiers(seed: int) -> FaultPlan:
    """Latency spikes/stalls only: the CXL tail-pathology stress test."""
    return FaultPlan(
        seed=seed, name="tiers",
        tier_faults=(TierFault("*", "spike", 0.6, 3.0),
                     TierFault("*", "stall", 0.4, 150.0)),
    )


def _schedule_workers(seed: int) -> FaultPlan:
    """Worker crash/hang only: the pool-resilience stress test."""
    return FaultPlan(
        seed=seed, name="workers",
        worker_faults=(WorkerFault("hang", 0.5, hang_s=1.5),
                       WorkerFault("crash", 0.7)),
    )


def _schedule_serve(seed: int) -> FaultPlan:
    """The live-service plan for ``repro chaos --target serve``.

    Store disconnect bursts (to trip the circuit breaker), solver
    crashes and short hangs (to exercise retry and deadline paths),
    and mild tier-latency spikes (to slow solves enough that the
    coalescer actually batches).  Hangs are kept well under typical
    request deadlines so they surface as latency, not mass expiry.
    """
    return FaultPlan(
        seed=seed, name="serve",
        tier_faults=(TierFault("*", "spike", 0.2, 1.5),),
        worker_faults=(WorkerFault("crash", 0.35),
                       WorkerFault("hang", 0.2, hang_s=0.3)),
        store_faults=(StoreFault("disconnect", 0.5),
                      StoreFault("corrupt", 0.3)),
    )


def _schedule_store(seed: int) -> FaultPlan:
    """Cache damage only: the corruption-is-a-miss stress test."""
    return FaultPlan(
        seed=seed, name="store",
        store_faults=(StoreFault("corrupt", 0.6),
                      StoreFault("truncate", 0.4),
                      StoreFault("vanish", 0.3)),
    )


#: Named fault schedules accepted by ``repro chaos --schedule``.
SCHEDULES: Dict[str, object] = {
    "quick": _schedule_quick,
    "default": _schedule_default,
    "counters": _schedule_counters,
    "tiers": _schedule_tiers,
    "workers": _schedule_workers,
    "store": _schedule_store,
    "serve": _schedule_serve,
}


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Instantiate a registered schedule under ``seed``."""
    try:
        factory = SCHEDULES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault schedule {name!r}; "
            f"choose from {', '.join(sorted(SCHEDULES))}") from None
    return factory(seed)
