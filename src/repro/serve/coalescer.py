"""Admission control and batch coalescing for ``repro serve``.

The heart of the service.  Query requests flow through a **bounded
admission queue** (full queue -> explicit shed, never a silent drop)
into a single coalescer task that groups concurrent queries into one
solve:

- the first queued query opens a **coalescing window**
  (:data:`~repro.serve.protocol.DEFAULT_COALESCE_WINDOW_MS`); everything
  that arrives before it closes - up to
  :data:`~repro.serve.protocol.MAX_COALESCE_LANES` - joins the batch;
- identical queries (same :class:`~repro.runtime.spec.RunSpec`
  fingerprint) **share one solver lane**, so a thundering herd of the
  same question costs one solve;
- the batch width picks the solver (``docs/SOLVER.md``, "When to
  batch"): one lane solves with the scalar
  :meth:`~repro.uarch.machine.Machine.run`, cheaper than any one-lane
  batch; at least :data:`~repro.runtime.executor.MIN_BATCH_GROUP`
  lanes run one bit-identical *replay*
  :meth:`~repro.uarch.machine.Machine.run_batch_multi`; the widths in
  between run it cold with ``accelerate=True``, so an answer never
  depends on which queries were solved before it;
- scalar and replay answers are exact and are persisted to the result
  store; accelerated answers never are - tolerance-level deviation
  must not poison the byte-identity store.  Every answer is memoized
  in process.

Deadlines are enforced at every stage a request can wait: admission,
batch formation, and the moment the solver thread picks the batch up.
An expired query is answered with an explicit deadline outcome and is
**never solved**.  All store traffic goes through the
:class:`~repro.serve.breaker.CircuitBreaker`: when the store is
unreachable the service degrades to solve-without-cache instead of
failing requests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime import serde
from ..runtime.errors import StoreError, TransientTaskError
from ..runtime.executor import MIN_BATCH_GROUP
from ..runtime.spec import RunSpec
from ..runtime.store import ResultStore
from ..uarch.machine import Machine
from ..workloads.suites import get_workload
from .breaker import BreakerOpenError, CircuitBreaker
from .protocol import (DEFAULT_COALESCE_WINDOW_MS, DEFAULT_QUEUE_BOUND,
                       MAX_COALESCE_LANES, RunQuery)

#: How many times a batch solve is retried when the injected (or real)
#: fault is transient; matches the executor's attempt budget.
SOLVE_MAX_ATTEMPTS = 3

#: Answers memoized in process, whatever solved them: a repeat is
#: answered without the store, which may be unreachable, and without
#: the solver.
MAX_MEMO_ENTRIES = 4096


@dataclass
class Outcome:
    """How one admitted query terminated (the closed vocabulary)."""

    kind: str  # "ok"|"shed"|"deadline"|"draining"|"bad_request"|"error"
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Pending:
    """One admitted query waiting for its batch."""

    query: RunQuery
    spec: RunSpec
    key: str
    deadline_at: float
    enqueued_at: float
    future: "asyncio.Future[Outcome]"

    def expired(self, now: float) -> bool:
        return now >= self.deadline_at

    def waited_ms(self, now: float) -> float:
        return (now - self.enqueued_at) * 1000.0

    def deadline_ms(self) -> float:
        return (self.deadline_at - self.enqueued_at) * 1000.0


class QueryCoalescer:
    """Bounded-queue admission + batched solving for query requests.

    Parameters
    ----------
    machine:
        The simulated machine queries are solved on.
    store:
        Optional persistent result store; consulted and written only
        through the circuit breaker.
    solve_hook:
        Test/chaos seam: called as ``solve_hook(batch_index, attempt)``
        inside the solver thread before each solve attempt.  Raising
        :class:`~repro.runtime.errors.TransientTaskError` exercises the
        retry path; sleeping simulates a hung solver.
    """

    def __init__(self, machine: Machine,
                 store: Optional[ResultStore] = None, *,
                 queue_bound: int = DEFAULT_QUEUE_BOUND,
                 coalesce_window_ms: float = DEFAULT_COALESCE_WINDOW_MS,
                 max_lanes: int = MAX_COALESCE_LANES,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Callable[[], float] = time.monotonic,
                 solve_hook: Optional[Callable[[int, int], None]] = None):
        if queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.machine = machine
        self.store = store
        self.queue_bound = queue_bound
        self.coalesce_window_s = coalesce_window_ms / 1000.0
        self.max_lanes = max_lanes
        self.breaker = breaker or CircuitBreaker()
        self.clock = clock
        self.solve_hook = solve_hook
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._memo: Dict[str, Dict[str, Any]] = {}
        self._memo_lock = threading.Lock()
        self._draining = False
        self._task: Optional["asyncio.Task[None]"] = None
        self._batch_counter = 0
        # Counters are bumped from both the event loop (admission) and
        # the solver thread (batch processing); '+=' alone would lose
        # increments across the two.
        self._counters_lock = threading.Lock()
        #: Counters surfaced through /stats and the SLO report.
        self.counters: Dict[str, int] = {
            "admitted": 0, "shed": 0, "deadline_expired": 0,
            "lanes_solved": 0, "batches_solved": 0,
            "coalesced_twins": 0, "store_hits": 0, "memo_hits": 0,
            "store_errors": 0, "store_writes": 0, "solve_retries": 0,
            "errors": 0,
        }

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop admitting, flush queued work, stop the batch task.

        Every request admitted before the drain still gets its answer
        (or its explicit deadline outcome) - graceful shutdown never
        abandons an in-flight future.
        """
        self._draining = True
        await self._queue.join()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    @property
    def draining(self) -> bool:
        return self._draining

    def _count(self, name: str, delta: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] += delta

    def stats(self) -> Dict[str, Any]:
        with self._counters_lock:
            snapshot: Dict[str, Any] = dict(self.counters)
        snapshot["queued"] = self._queue.qsize()
        snapshot["queue_bound"] = self.queue_bound
        snapshot["breaker"] = self.breaker.snapshot()
        return snapshot

    # -- admission -----------------------------------------------------------
    def submit(self, query: RunQuery,
               deadline_ms: float) -> "asyncio.Future[Outcome]":
        """Admit one query; the returned future resolves to its outcome.

        The future always resolves - shed and draining resolve it
        immediately, everything else is owned by the coalescer task.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Outcome]" = loop.create_future()
        if self._draining:
            future.set_result(Outcome("draining"))
            return future
        queued = self._queue.qsize()
        if queued >= self.queue_bound:
            self._count("shed")
            future.set_result(Outcome(
                "shed", {"queued": queued, "bound": self.queue_bound}))
            return future
        try:
            spec, key = self._resolve_spec(query)
        except (KeyError, TypeError, ValueError) as exc:
            # Client input the parser could not reject (unknown
            # workload, bad placement shape): a 400, not an internal
            # fault - chaos asserts zero "error" outcomes.
            future.set_result(Outcome("bad_request",
                                      {"error": str(exc)}))
            return future
        now = self.clock()
        self._count("admitted")
        self._queue.put_nowait(_Pending(
            query=query, spec=spec, key=key,
            deadline_at=now + deadline_ms / 1000.0,
            enqueued_at=now, future=future))
        return future

    def _resolve_spec(self, query: RunQuery) -> Tuple[RunSpec, str]:
        workload = get_workload(query.workload)
        if query.threads is not None:
            workload = serde.workload_from_dict(
                dict(serde.workload_to_dict(workload),
                     threads=query.threads))
        placement = (serde.placement_from_dict(dict(query.placement))
                     if query.placement is not None else None)
        spec = RunSpec.from_machine(self.machine, workload, placement)
        return spec, spec.fingerprint()

    # -- batch formation -----------------------------------------------------
    async def _run(self) -> None:
        while True:
            batch = await self._collect_batch()
            if batch:
                await self._dispatch(batch)

    async def _collect_batch(self) -> List[_Pending]:
        first = await self._queue.get()
        batch = [first]
        window_closes = self.clock() + self.coalesce_window_s
        while len(batch) < self.max_lanes:
            remaining_s = window_closes - self.clock()
            if remaining_s <= 0:
                break
            try:
                batch.append(await asyncio.wait_for(
                    self._queue.get(), timeout=remaining_s))
            except asyncio.TimeoutError:
                break
        return batch

    async def _dispatch(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                None, self._process_batch, batch)
        except Exception as exc:  # the service must outlive any solve
            self._count("errors", len(batch))
            outcomes = [Outcome("error", {"error": str(exc)})] * len(batch)
        for pending, outcome in zip(batch, outcomes):
            if not pending.future.done():
                pending.future.set_result(outcome)
            self._queue.task_done()

    # -- solving (runs in a worker thread) -----------------------------------
    def _process_batch(self, batch: List[_Pending]) -> List[Outcome]:
        now = self.clock()
        outcomes: List[Optional[Outcome]] = [None] * len(batch)

        live: List[int] = []
        for index, pending in enumerate(batch):
            if pending.expired(now):
                self._count("deadline_expired")
                outcomes[index] = Outcome("deadline", {
                    "deadline_ms": pending.deadline_ms(),
                    "waited_ms": pending.waited_ms(now)})
            else:
                live.append(index)

        # Identical fingerprints share one lane; twins get copies.
        lanes: Dict[str, List[int]] = {}
        for index in live:
            lanes.setdefault(batch[index].key, []).append(index)
        self._count("coalesced_twins", len(live) - len(lanes))

        unsolved: List[str] = []
        answers: Dict[str, Dict[str, Any]] = {}
        for key, members in lanes.items():
            cached = self._lookup(key, batch[members[0]].spec)
            if cached is not None:
                answers[key] = cached
            else:
                unsolved.append(key)

        if unsolved:
            try:
                answers.update(self._solve_lanes(
                    [(key, batch[lanes[key][0]].spec) for key in unsolved]))
            except Exception as exc:
                self._count("errors", sum(
                    len(lanes[key]) for key in unsolved))
                for key in unsolved:
                    failure = Outcome("error", {"error": str(exc)})
                    for index in lanes[key]:
                        outcomes[index] = failure

        for key, members in lanes.items():
            if key not in answers:
                continue  # already marked as an error above
            for index in members:
                outcomes[index] = Outcome("ok", {
                    "fingerprint": key,
                    "result": answers[key],
                })
        return [outcome or Outcome("error", {"error": "unresolved lane"})
                for outcome in outcomes]

    def _lookup(self, key: str, spec: RunSpec
                ) -> Optional[Dict[str, Any]]:
        """The answer memoized or stored under ``key``, if any.

        The store holds only the solved fields; a hit is expanded into
        the full answer with the query's own spec.
        """
        with self._memo_lock:
            memo = self._memo.get(key)
        if memo is not None:
            self._count("memo_hits")
            return memo
        if self.store is None:
            return None
        # One breaker consultation per operation: call() runs its own
        # admission check, so a pre-check here would consume the
        # half-open probe slot and leave the breaker wedged open.
        try:
            payload = self.breaker.call(lambda: self.store.get(key))
        except BreakerOpenError:
            return None  # local rejection, not a store fault
        except StoreError:
            self._count("store_errors")
            return None
        if payload is None:
            return None
        self._count("store_hits")
        return serde.expand_payload(payload, spec)

    def _solve_lanes(self, lanes: List[Tuple[str, RunSpec]]
                     ) -> Dict[str, Dict[str, Any]]:
        self._batch_counter += 1
        batch_index = self._batch_counter
        replay = len(lanes) >= MIN_BATCH_GROUP
        # Lanes carry their own machine identity (platform, noise,
        # seed) through the spec, so one masked batch serves them all
        # even if future queries stop sharing the service machine.
        specs = [spec for _, spec in lanes]
        # Scalar and replay answers are bit-identical to Machine.run;
        # accelerated ones only agree within tolerance.
        exact = replay or len(specs) == 1

        last_error: Optional[BaseException] = None
        for attempt in range(SOLVE_MAX_ATTEMPTS):
            if self.solve_hook is not None:
                try:
                    self.solve_hook(batch_index, attempt)
                except TransientTaskError as exc:
                    self._count("solve_retries")
                    last_error = exc
                    continue
            if len(specs) == 1:
                results = [specs[0].execute()]
            else:
                results = Machine.run_batch_multi(
                    specs, accelerate=not replay)
            break
        else:
            raise TransientTaskError(
                f"batch {batch_index} failed all {SOLVE_MAX_ATTEMPTS} "
                f"attempts") from last_error

        self._count("batches_solved")
        self._count("lanes_solved", len(lanes))
        answers: Dict[str, Dict[str, Any]] = {}
        for (key, _spec), result in zip(lanes, results):
            payload = serde.run_result_to_payload(result)
            answer = serde.expand_payload(payload, result)
            answers[key] = answer
            if exact:
                self._persist(key, payload)
            with self._memo_lock:
                if len(self._memo) < MAX_MEMO_ENTRIES:
                    self._memo[key] = answer
        return answers

    def _persist(self, key: str, payload: Dict[str, Any]) -> None:
        if self.store is None:
            return
        try:
            self.breaker.call(lambda: self.store.put(key, payload))
            self._count("store_writes")
        except BreakerOpenError:
            pass  # local rejection, not a store fault
        except StoreError:
            self._count("store_errors")
