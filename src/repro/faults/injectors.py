"""Fault injectors: apply a :class:`~repro.faults.plan.FaultPlan`.

Each injector adapts one fault family to the seam where it strikes a
real deployment:

- :class:`CounterInjector` mutates :class:`~repro.core.counters.
  CounterSample` objects the way perf counter multiplexing does -
  events vanish or report garbage, ``CYCLES`` always survives;
- :class:`ChaosStore` damages freshly-written persistent cache entries
  the way a crashed writer or bad disk does - after the atomic replace,
  so the store's own write path stays honest;
- :class:`LatencyInjector` installs the :func:`~repro.uarch.memory.
  set_latency_fault_hook` so solves see slow-tier tail spikes and
  transient stalls.

All injection sites are deterministic under the plan's seed (see
:mod:`repro.faults.plan`), so every injector doubles as a replay tool.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional, Tuple, Union

from ..core.counters import Counter, CounterSample
from ..runtime.errors import StoreError
from ..runtime.store import ResultStore
from ..uarch import memory
from .plan import FaultPlan, _draw


class CounterInjector:
    """Applies a plan's counter faults to raw samples.

    ``apply`` is pure in the plan's seed: the same ``(sample, context)``
    always receives the same faults.  Injection counts accumulate in
    :attr:`injected` for reporting.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: Dict[str, int] = {}

    def _count(self, mode: str) -> None:
        name = f"counter_{mode}"
        self.injected[name] = self.injected.get(name, 0) + 1

    def apply(self, sample: CounterSample, context) -> CounterSample:
        """A copy of ``sample`` with this plan's counter faults applied.

        ``context`` identifies the sample site (workload name, window
        index, ...) so distinct samples draw independent faults.
        ``CYCLES`` is never dropped or zeroed - a sample cannot exist
        without it, exactly as on real hardware where the fixed cycle
        counter is not multiplexed.
        """
        values = {}
        for counter, value in sample.items():
            fault = self.plan.counter_action(context, counter.value)
            if fault is None or counter is Counter.CYCLES:
                values[counter] = value
                continue
            if fault.mode == "drop":
                self._count("drop")
                continue
            if fault.mode == "zero":
                self._count("zero")
                values[counter] = 0.0
                continue
            self._count("perturb")
            factor = self.plan.perturb_factor(context, counter.value,
                                              fault.magnitude)
            values[counter] = value * factor
        return CounterSample(values)


class ChaosStore(ResultStore):
    """A :class:`ResultStore` whose writes may be damaged afterwards.

    ``put`` completes normally (record appended and flushed), then the
    plan decides whether the record's bytes on disk are corrupted
    (payload bytes flipped - a torn sector under the CRC), truncated
    (the segment cut mid-record - a writer that died mid-append), or
    vanished (the segment cut at the record start - an external
    cleaner; the very next append reuses the space).  Reads are
    untouched: the base class's corruption-is-a-miss contract is
    exactly what the chaos suite verifies, both through this store's
    own read path and through a fresh reader's open-time segment scan.
    """

    def __init__(self, root: Union[pathlib.Path, str], plan: FaultPlan):
        super().__init__(pathlib.Path(root))
        self.plan = plan
        self.injected: Dict[str, int] = {}

    #: The modes this injector can realise: on-disk damage only.
    #: ``disconnect`` is an availability fault, not a damage fault -
    #: :class:`FlakyStore` implements it.
    DAMAGE_MODES = ("corrupt", "truncate", "vanish")

    def put(self, key: str, payload) -> None:
        super().put(key, payload)
        mode = self.plan.store_action(key)
        if mode is None or mode not in self.DAMAGE_MODES:
            return
        location = self._record_location(key)
        if location is None:   # pragma: no cover - put just indexed it
            return
        try:
            if mode == "corrupt":
                # Flip the record's last payload bytes in place: the
                # header (and its claimed lengths) stay plausible, so
                # only the CRC can unmask the damage.
                flip_at = location.offset + location.length - 4
                with open(location.path, "r+b") as handle:
                    handle.seek(flip_at)
                    tail = handle.read(4)
                    handle.seek(flip_at)
                    handle.write(bytes(b ^ 0xFF for b in tail))
                self._drop_cached(key)
            elif mode == "truncate":
                self._truncate_at(location.path, location.offset +
                                  location.length // 2)
                self._drop_cached(key)
            elif mode == "vanish":
                self._truncate_at(location.path, location.offset)
                self._drop_cached(key)
                self._drop_index(key)
        except OSError:   # pragma: no cover - damage is best-effort
            return
        name = f"store_{mode}"
        self.injected[name] = self.injected.get(name, 0) + 1

    def put_many(self, items) -> None:
        # The batched commit path must stay damageable: route every
        # entry through ``put`` so each write draws its own fault.
        for key, payload in items:
            self.put(key, payload)


class FlakyStore(ChaosStore):
    """A :class:`ChaosStore` that can also become unreachable.

    Models the availability failure the on-disk damage modes cannot: a
    remote or network-mounted store that stops answering.  Operations
    are counted; each block of :attr:`burst` consecutive operations
    draws once against the plan's ``disconnect`` faults, and a faulted
    block raises :class:`~repro.runtime.errors.StoreError` for every
    operation in it.  Whole-block outages guarantee the consecutive
    failures a circuit breaker needs to trip (a per-operation coin flip
    would make breaker chaos assertions flaky), while staying
    deterministic in the plan's seed.

    Damage modes (corrupt/truncate/vanish) still apply to writes that
    get through, via the base class.
    """

    #: Operations per outage-draw block; at least the breaker's
    #: failure threshold so one faulted block always trips it.
    DEFAULT_BURST = 6

    def __init__(self, root: Union[pathlib.Path, str], plan: FaultPlan,
                 burst: int = DEFAULT_BURST):
        super().__init__(root, plan)
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.burst = burst
        self._operations = 0

    def _gate(self, operation: str, key: str) -> None:
        disconnects = [fault for fault in self.plan.store_faults
                       if fault.mode == "disconnect"]
        if not disconnects:
            return
        index = self._operations
        self._operations += 1
        block = index // self.burst
        for fault in disconnects:
            if _draw(self.plan.seed, "store-disconnect",
                     block) < fault.probability:
                self.injected["store_disconnect"] = (
                    self.injected.get("store_disconnect", 0) + 1)
                raise StoreError(
                    f"injected store disconnect "
                    f"({operation} {key[:12]}..., block {block})")

    def get(self, key: str):
        self._gate("get", key)
        return super().get(key)

    def put(self, key: str, payload) -> None:
        self._gate("put", key)
        super().put(key, payload)


class LatencyInjector:
    """Context manager injecting tier latency faults into the substrate.

    While entered, every solve - scalar, batched or colocated - draws
    one of the plan's tier faults per run and tier when it starts, and
    applies it to that tier's loaded latency in every evaluation:
    ``spike`` multiplies the latency by ``1 + magnitude``, ``stall``
    adds ``magnitude`` nanoseconds.  A per-tier call counter keys the
    draws, so a fixed call sequence (serial execution) sees a fixed
    fault sequence.

    The hook is process-local: pool workers never inherit it, which is
    why the chaos harness runs the tier phase serially.  On exit the
    previously-installed hook (usually ``None``) is restored even if
    the body raised.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}
        self._previous: Optional[memory.LatencyFaultHook] = None
        self._active = False

    def _hook(self, tier: str) -> Tuple[float, float]:
        """``(scale, add_ns)`` for one run's ``tier``."""
        call_index = self._calls.get(tier, 0)
        self._calls[tier] = call_index + 1
        fault = self.plan.tier_action(tier, call_index)
        if fault is None:
            return 1.0, 0.0
        name = f"tier_{fault.mode}"
        self.injected[name] = self.injected.get(name, 0) + 1
        if fault.mode == "spike":
            return 1.0 + fault.magnitude, 0.0
        return 1.0, fault.magnitude

    def __enter__(self) -> "LatencyInjector":
        if self._active:
            raise RuntimeError("LatencyInjector is not reentrant")
        self._previous = memory.set_latency_fault_hook(self._hook)
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        memory.set_latency_fault_hook(self._previous)
        self._previous = None
        self._active = False
