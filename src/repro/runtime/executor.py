"""Fan simulated runs out over processes, through the result cache.

:class:`Executor` is the one entry point every driver (CLI subcommands,
:class:`~repro.analysis.lab.Lab`, the calibration fitter, the fleet
planner) uses to execute :class:`~repro.runtime.spec.RunSpec` batches.
It layers three caches and one pool:

1. an in-process memo (fingerprint -> payload), so a driver that asks
   for the same run twice in one invocation pays nothing;
2. the persistent :class:`~repro.runtime.store.ResultStore`, shared
   across invocations and across ``-j`` settings — consulted with one
   batched ``get_many`` per batch and fed with chunked ``put_many``
   commits (:data:`COMMIT_CHUNK`), so a 1k-spec sweep pays two index
   passes, not 2k file round-trips (docs/STORE.md);
3. only the genuinely-missing specs are executed - in a
   ``ProcessPoolExecutor`` when ``jobs > 1`` and the batch is
   picklable, serially otherwise (``-j 1``, single-item batches, or
   any pool failure fall back transparently).

Results always return in input order, independent of completion order,
and every result - hit or miss, serial or parallel - takes the same
round trip through its stored payload (:mod:`repro.runtime.serde`): the
solved fields are encoded, then decoded onto the spec's own workload,
placement and platform objects.  That is what makes ``-j 1`` and
``-j 4`` outputs byte-identical, cold and warm.

Failure handling follows the taxonomy of :mod:`repro.runtime.errors`
(full story: ``docs/FAULTS.md``):

- a worker crash, a hung worker past ``task_timeout``, or a pool that
  cannot start degrades to serial execution of the tasks that have not
  completed yet (already-yielded results are never re-executed);
- a deterministic task exception (a bad spec) propagates immediately
  with its original traceback - it is never swallowed into a serial
  re-run, and never retried;
- :class:`~repro.runtime.errors.TransientTaskError` opts a task into
  bounded exponential-backoff retries (:class:`RetryPolicy`).

When a :class:`~repro.faults.plan.FaultPlan` is attached the executor
becomes a chaos harness: worker crash/hang faults are injected into the
pool, and the persistent store is bypassed entirely so fault-perturbed
results can never poison the cache.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple, TypeVar)

from ..core.counters import ProfiledRun
from ..uarch.machine import Machine, RunResult
from . import serde
from .errors import (RetryPolicy, TaskTimeoutError, TransientTaskError,
                     WorkerCrashError)
from .spec import RunSpec
from .store import ResultStore
from .telemetry import ProgressReporter, Telemetry

if TYPE_CHECKING:   # pragma: no cover - typing only, avoids a cycle
    from ..faults.plan import FaultPlan

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Smallest spec batch worth routing through the vectorized batch
#: solver.  Below this the replay-mode batch does not amortize its
#: per-iteration numpy overhead against N scalar solves
#: (docs/SOLVER.md "when to batch"); sweeps and suite runs are far
#: above it.  Lanes need not share a machine: the solver carries
#: per-lane (platform, noise, seed), so one threshold covers the whole
#: pending remainder.
MIN_BATCH_GROUP = 16

#: Freshly-executed payloads are persisted through
#: :meth:`ResultStore.put_many` in chunks of this many entries: one
#: lock acquisition and one segment flush per chunk instead of one per
#: result, while a crash mid-batch still loses at most a chunk of
#: re-executable work.
COMMIT_CHUNK = 64


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` if set, else the CPU count.

    ``REPRO_JOBS=auto`` (or ``0``) also means "all cores"; malformed
    values fall through to the CPU count rather than erroring.
    """
    value = os.environ.get(JOBS_ENV)
    if value and value.strip().lower() != "auto":
        try:
            parsed = int(value)
            if parsed >= 1:
                return parsed
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def execute_run_spec(spec: RunSpec) -> Dict[str, Any]:
    """Execute one spec and return its stored payload.

    Module-level so process-pool workers can import it by reference;
    returning the stored form keeps a single decode path for cached
    and fresh results.
    """
    return serde.run_result_to_payload(spec.execute())


def _indexed_execute(item: Tuple[int, RunSpec]) -> Tuple[int, Dict[str, Any]]:
    index, spec = item
    return index, execute_run_spec(spec)


def _batch_execute(chunk: List[Tuple[int, RunSpec]]
                   ) -> List[Tuple[int, Dict[str, Any]]]:
    """Pool worker entry point solving one shard of specs as a batch.

    Replay-mode :meth:`Machine.run_batch_multi` is bit-identical to
    looped ``Machine.run``, so routing pool shards through it preserves
    the ``-j 1`` == ``-j N`` byte-identity guarantee; a shard below
    :data:`MIN_BATCH_GROUP` (a short tail) loops per spec instead,
    producing the same bytes.
    """
    if len(chunk) >= MIN_BATCH_GROUP:
        results = Machine.run_batch_multi([spec for _, spec in chunk])
        return [(index, serde.run_result_to_payload(result))
                for (index, _), result in zip(chunk, results)]
    return [(index, execute_run_spec(spec)) for index, spec in chunk]


def _indexed_execute_faulted(item: Tuple[int, RunSpec, "FaultPlan"]
                             ) -> Tuple[int, Dict[str, Any]]:
    """Pool worker entry point with fault injection applied.

    The plan's draw is deterministic, so the parent can pre-compute
    which tasks will fault (for telemetry) without any channel back
    from a worker that is about to die.
    """
    index, spec, plan = item
    action = plan.worker_action(index, attempt=0)
    if action is not None:
        if action.mode == "hang":
            time.sleep(action.hang_s)
        elif action.mode == "crash":
            os._exit(3)
    return index, execute_run_spec(spec)


def _call(item: Tuple[Callable[[T], R], T]) -> R:
    fn, arg = item
    return fn(arg)


#: Extra seconds granted before the pool's first completion: a cold
#: ``ProcessPoolExecutor`` pays process spawn plus import cost before
#: any task truly starts running, and that startup must not count
#: against the first window's per-task budgets (a small
#: ``task_timeout`` would otherwise declare a merely-cold pool hung).
POOL_WARMUP_GRACE_S = 10.0


class _TaskDeadlines:
    """Per-task execution deadlines for the pool watchdog.

    ``wait(..., timeout=task_timeout)`` alone cannot catch a hung
    worker on a busy pool: the timer restarts whenever *any* future
    completes, so as long as siblings keep finishing, one hung task
    evades its timeout forever.  This ladder instead assigns each task
    its own deadline, started when the task plausibly begins running -
    i.e. when it enters the ``workers``-wide running window in
    submission order (``ProcessPoolExecutor`` dispatches work items
    FIFO), not when it was merely queued.  A completion elsewhere
    promotes the next queued task into the window; it never extends a
    running task's deadline.

    The pool is only *plausibly* running anything once it has
    completed something: until the first completion the workers may
    still be forking and importing, so first-window tasks share one
    warm-up backstop deadline (``timeout_s + warmup_grace_s``, which
    still catches a pool that never produces a result) and their
    individual clocks start at the first completion.
    """

    def __init__(self, timeout_s: Optional[float], workers: int,
                 clock: Callable[[], float] = time.monotonic,
                 warmup_grace_s: float = POOL_WARMUP_GRACE_S):
        self._timeout_s = timeout_s
        self._workers = workers
        self._clock = clock
        self._warmup_grace_s = warmup_grace_s
        self._queued: List[Any] = []
        #: deadline per running task; ``None`` = armed at first
        #: completion (covered by the warm-up backstop until then).
        self._running: Dict[Any, Optional[float]] = {}
        self._warm = False
        self._warmup_deadline: Optional[float] = None

    def submit(self, future: Any) -> None:
        self._queued.append(future)
        self._fill()

    def _fill(self) -> None:
        while self._queued and len(self._running) < self._workers:
            future = self._queued.pop(0)
            if self._timeout_s is None:
                continue
            if self._warm:
                self._running[future] = self._clock() + self._timeout_s
            else:
                self._running[future] = None
                if self._warmup_deadline is None:
                    self._warmup_deadline = (
                        self._clock() + self._timeout_s
                        + self._warmup_grace_s)

    def complete(self, future: Any) -> None:
        self._running.pop(future, None)
        if future in self._queued:
            self._queued.remove(future)
        if not self._warm:
            # First completion: the pool is demonstrably warm; the
            # still-running first-window tasks' own clocks start now.
            self._warm = True
            if self._timeout_s is not None:
                deadline = self._clock() + self._timeout_s
                for pending, armed in self._running.items():
                    if armed is None:
                        self._running[pending] = deadline
        self._fill()

    def next_timeout_s(self) -> Optional[float]:
        """Seconds until the earliest running-task deadline (>= 0)."""
        if self._timeout_s is None or not self._running:
            return None
        if not self._warm:
            return max(0.0, self._warmup_deadline - self._clock())
        return max(0.0, min(self._running.values()) - self._clock())

    def expired(self) -> List[Any]:
        """Running tasks whose own deadline has passed."""
        if self._timeout_s is None or not self._running:
            return []
        now = self._clock()
        if not self._warm:
            if self._warmup_deadline <= now:
                return list(self._running)
            return []
        return [future for future, deadline in self._running.items()
                if deadline <= now]


class Executor:
    """Cached, optionally-parallel runner for simulated executions.

    Parameters
    ----------
    jobs:
        Maximum worker processes; ``1`` (the default) never forks.
    store:
        Persistent result cache, or ``None`` to keep results only in
        the in-process memo.
    telemetry:
        Shared :class:`Telemetry`; a fresh one is created if omitted.
    progress:
        When true, batch entry points draw a live progress line on
        stderr.
    task_timeout:
        Per-task execution budget in seconds, measured from the moment
        the task enters the pool's running window (not from batch
        start, and not reset by sibling completions - see
        :class:`_TaskDeadlines`).  Until the pool's first completion
        the budget is widened by ``pool_warmup_grace_s`` so cold
        process spawn/import cost is not mistaken for a hang.  A task
        exceeding it declares the pool hung and the batch remainder
        re-runs serially.  ``None`` (the default) waits forever.  When
        a large batch is sharded into chunked worker tasks, one "task"
        is a whole chunk - budget accordingly.
    pool_warmup_grace_s:
        Extra seconds added to first-window budgets before the pool's
        first completion (default :data:`POOL_WARMUP_GRACE_S`); ``0``
        restores strict submission-time deadlines.
    retry:
        Backoff policy for :class:`TransientTaskError` failures in the
        serial path.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` to inject worker
        crash/hang faults from.  Attaching a plan also disconnects the
        persistent store (reads and writes) so a faulted run can never
        poison the cache; skipped writes count as ``tainted_skips``.
    """

    def __init__(self, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 telemetry: Optional[Telemetry] = None,
                 progress: bool = False,
                 task_timeout: Optional[float] = None,
                 pool_warmup_grace_s: float = POOL_WARMUP_GRACE_S,
                 retry: Optional[RetryPolicy] = None,
                 fault_plan: Optional["FaultPlan"] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if pool_warmup_grace_s < 0:
            raise ValueError("pool_warmup_grace_s must be >= 0")
        self.jobs = jobs
        self.store = store
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.progress = progress
        self.task_timeout = task_timeout
        self.pool_warmup_grace_s = pool_warmup_grace_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self._memo: Dict[str, Dict[str, Any]] = {}
        if self.store is not None:
            # Store get/put spans land in this executor's trace (an
            # active trace session overrides this inside the store).
            self.store.tracer = self.telemetry.tracer

    # -- cache layers --------------------------------------------------------
    def _fetch_store(self, keys: Sequence[str]
                     ) -> Dict[str, Dict[str, Any]]:
        """Batched store lookup for the keys the memo cannot serve.

        One :meth:`ResultStore.get_many` call: a single index refresh
        shared across the whole batch, instead of one ``get`` (and one
        potential directory rescan) per spec.
        """
        if self.store is None or self.fault_plan is not None:
            return {}
        wanted = [key for key in dict.fromkeys(keys)
                  if key not in self._memo]
        if not wanted:
            return {}
        return self.store.get_many(wanted)

    def _commit_many(self, items: List[Tuple[str, Dict[str, Any]]]
                     ) -> None:
        """Persist one chunk of freshly-executed payloads.

        The memo is already updated by the caller; this is only the
        store side, batched through :meth:`ResultStore.put_many` (a
        single-item chunk keeps the plain ``put`` path so store
        subclasses that intercept it — tests, chaos — see it).
        """
        if not items or self.store is None:
            return
        if self.fault_plan is not None:
            # Results produced under fault injection are suspect by
            # definition; refusing to persist them is what keeps the
            # shared cache unpoisoned (docs/FAULTS.md invariant 2).
            self.telemetry.count("tainted_skips", len(items))
            return
        with self.telemetry.stage("persist", entries=len(items)):
            try:
                if len(items) == 1:
                    self.store.put(items[0][0], items[0][1])
                else:
                    self.store.put_many(items)
            except OSError:
                # Unwritable cache (read-only dir, disk full):
                # results are correct without it, so degrade to
                # memo-only rather than failing the run.
                self.telemetry.count("store_errors")

    @property
    def hit_count(self) -> int:
        return (self.telemetry.counters.get("memo_hits", 0) +
                self.telemetry.counters.get("store_hits", 0))

    @property
    def alias_count(self) -> int:
        """In-batch duplicate specs served from their twin's execution.

        Not cache hits: the batch simply asked the same question twice,
        so they are counted apart (``alias_hits``) from ``memo_hits``/
        ``store_hits``.
        """
        return self.telemetry.counters.get("alias_hits", 0)

    @property
    def miss_count(self) -> int:
        return self.telemetry.counters.get("misses", 0)

    # -- batch execution -----------------------------------------------------
    def run(self, specs: Sequence[RunSpec],
            label: str = "run") -> List[RunResult]:
        """Execute a batch; results come back in input order."""
        specs = list(specs)
        with self.telemetry.stage("executor.run", label=label,
                                  batch=len(specs)):
            return self._run_batch(specs, label)

    def _run_batch(self, specs: List[RunSpec],
                   label: str) -> List[RunResult]:
        reporter = ProgressReporter(len(specs), label=label,
                                    enabled=self.progress)
        with self.telemetry.stage("hash"):
            # One fragment memo per batch: each workload, platform,
            # device and placement object is serialized once; ``specs``
            # keeps them alive while the memo is keyed by their ids.
            fragments: Dict[int, str] = {}
            keys = [spec.fingerprint(fragments) for spec in specs]

        payloads: List[Optional[Dict[str, Any]]] = []
        pending: List[Tuple[int, RunSpec]] = []
        # Duplicate specs inside one batch execute once; the extra
        # indices are aliases filled in at commit time.
        aliases: Dict[str, List[int]] = {}
        with self.telemetry.stage("lookup") as lookup_span:
            fetched = self._fetch_store(keys)
            for index, (spec, key) in enumerate(zip(specs, keys)):
                payload = self._memo.get(key)
                if payload is not None:
                    self.telemetry.count("memo_hits")
                else:
                    payload = fetched.get(key)
                    if payload is not None:
                        self.telemetry.count("store_hits")
                        self._memo[key] = payload
                payloads.append(payload)
                if payload is not None:
                    reporter.update(hits=self.hit_count,
                                    misses=self.miss_count)
                elif key in aliases:
                    # An in-batch duplicate, not a cache hit: the twin
                    # that is about to execute will fill it in.
                    self.telemetry.count("alias_hits")
                    aliases[key].append(index)
                    reporter.update(hits=self.hit_count,
                                    misses=self.miss_count)
                else:
                    self.telemetry.count("misses")
                    aliases[key] = []
                    pending.append((index, spec))
            lookup_span.annotate(hits=self.hit_count,
                                 aliases=self.alias_count,
                                 misses=len(pending))

        if pending:
            with self.telemetry.stage("simulate", pending=len(pending)):
                fresh: List[Tuple[str, Dict[str, Any]]] = []
                for index, payload in self._execute_pending(pending, keys,
                                                            reporter):
                    payloads[index] = payload
                    for duplicate in aliases[keys[index]]:
                        payloads[duplicate] = payload
                    self._memo[keys[index]] = payload
                    fresh.append((keys[index], payload))
                    if len(fresh) >= COMMIT_CHUNK:
                        self._commit_many(fresh)
                        fresh = []
                self._commit_many(fresh)
        reporter.finish()

        with self.telemetry.stage("decode"):
            results = [serde.run_result_from_dict(payload, spec)
                       for payload, spec in zip(payloads, specs)]
            # Surface solver-cap exhaustion (docs/SOLVER.md): a result
            # whose fixed point hit the iteration cap is still returned,
            # but never silently.
            for result in results:
                if not result.converged:
                    self.telemetry.count("nonconverged_results")
        return results

    def _execute_pending(self, pending: List[Tuple[int, RunSpec]],
                         keys: Sequence[str], reporter: ProgressReporter):
        """Yield ``(index, payload)`` as work completes.

        ``keys[index]`` is the fingerprint of the spec at ``index``,
        hashed once by the caller.

        The pool path may die mid-stream (worker crash, hang past
        ``task_timeout``); completed indices are tracked so the serial
        fallback executes only the remainder - never a task that
        already yielded its payload.
        """
        workers = min(self.jobs, len(pending))
        completed: Set[int] = set()
        fell_back = False
        if workers > 1 and self._picklable(pending):
            try:
                for index, payload in self._execute_pool(pending, workers,
                                                         reporter):
                    completed.add(index)
                    yield index, payload
                return
            except WorkerCrashError:
                # Infrastructure failure only (dead worker, hung pool,
                # fork limits): the work itself is presumed fine, so
                # run what's left serially.  Deterministic task errors
                # are NOT caught here - they propagate with the
                # original traceback.
                self.telemetry.count("pool_fallbacks")
                fell_back = True
        if (not fell_back and self.fault_plan is None and
                len(pending) >= MIN_BATCH_GROUP):
            # Primary serial path only: the post-crash fallback and
            # fault-injected runs keep the one-spec-at-a-time loop so
            # retry/injection semantics stay per-task.
            yield from self._execute_serial_batch(pending, reporter)
            return
        for index, spec in pending:
            if index in completed:
                continue
            with self.telemetry.stage(
                    "task", index=index, worker="serial",
                    fingerprint=keys[index][:12], fallback=fell_back):
                payload = self._execute_serial_task(
                    spec, index, keys[index], attempt=1 if fell_back else 0)
            reporter.update(hits=self.hit_count,
                            misses=self.miss_count)
            yield index, payload

    def _execute_serial_batch(self, pending: List[Tuple[int, RunSpec]],
                              reporter: ProgressReporter):
        """Serial execution through the vectorized batch solver.

        The whole pending remainder solves as **one** masked
        cross-machine batch via :meth:`Machine.run_batch_multi`: every
        lane carries its own (platform, noise, seed), so a suite
        population spanning SKX/SPR/EMR at several noise/seed
        identities no longer splits into per-machine groups.  Replay
        mode is bit-identical to looped :meth:`Machine.run`, so the
        executor's byte-identity guarantee (``-j 1`` == ``-j N``, cold
        == warm) is preserved while the population pays one masked
        fixed point instead of one per machine identity.

        The spec's captured ``slow_device`` does not join the lane
        identity because placements resolve their slow tier through
        the global device registry (:meth:`Placement.slow_device`),
        identically under either machine instance.
        """
        specs = [spec for _, spec in pending]
        with self.telemetry.stage("batch_solve", size=len(pending),
                                  worker="serial"):
            results = Machine.run_batch_multi(specs)
        self.telemetry.count("batched_solves")
        for (index, _), result in zip(pending, results):
            payload = serde.run_result_to_payload(result)
            reporter.update(hits=self.hit_count,
                            misses=self.miss_count)
            yield index, payload

    def _execute_serial_task(self, spec: RunSpec, index: int, key: str,
                             attempt: int = 0) -> Dict[str, Any]:
        """Execute one spec in-process, retrying transient failures.

        ``attempt`` starts at 1 when the task already failed once in
        the pool, so injected first-attempt faults are not re-drawn.

        Retry sleeps draw full jitter keyed by the spec fingerprint
        ``key`` (:meth:`RetryPolicy.delays`), so coalesced twins of one
        failing task do not storm back in lockstep; the total time
        slept is surfaced as ``retry_delay_ms`` telemetry.
        """
        plan = self.fault_plan
        delays = self.retry.delays(key=key)
        while True:
            try:
                if plan is not None:
                    action = plan.worker_action(index, attempt)
                    if action is not None:
                        self.telemetry.count(f"injected_{action.mode}")
                        raise TransientTaskError(
                            f"injected worker {action.mode} "
                            f"(task {index}, attempt {attempt})")
                return execute_run_spec(spec)
            except TransientTaskError:
                delay = next(delays, None)
                if delay is None:
                    raise
                self.telemetry.count("retries")
                if delay > 0:
                    self.telemetry.count("retry_delay_ms",
                                         int(delay * 1000.0))
                    time.sleep(delay)
                attempt += 1

    def _execute_pool(self, pending: List[Tuple[int, RunSpec]],
                      workers: int, reporter: ProgressReporter):
        with self.telemetry.stage("pool", workers=workers,
                                  pending=len(pending)):
            yield from self._pool_results(pending, workers, reporter)

    def _pool_results(self, pending: List[Tuple[int, RunSpec]],
                      workers: int, reporter: ProgressReporter):
        self.telemetry.count("pool_workers", workers)
        plan = self.fault_plan
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError as exc:
            # Sandboxed /dev/shm, fork limits: the pool never existed.
            raise WorkerCrashError(
                f"could not start worker pool: {exc}") from exc
        completed = False
        deadlines = _TaskDeadlines(self.task_timeout, workers,
                                   warmup_grace_s=self.pool_warmup_grace_s)
        try:
            try:
                futures = set()
                if plan is None:
                    # Shard the batch so each worker task solves a
                    # whole chunk through the batch solver instead of
                    # one spec: -j N then benefits from run_batch the
                    # same way -j 1 does.  When the per-worker share
                    # falls below MIN_BATCH_GROUP, per-spec tasks keep
                    # every worker busy instead of starving the pool
                    # with one undersized chunk.
                    share = -(-len(pending) // workers)
                    if share >= MIN_BATCH_GROUP:
                        for start in range(0, len(pending), share):
                            chunk = pending[start:start + share]
                            self.telemetry.count("pool_chunks")
                            future = pool.submit(_batch_execute, chunk)
                            futures.add(future)
                            deadlines.submit(future)
                    else:
                        for item in pending:
                            future = pool.submit(_indexed_execute, item)
                            futures.add(future)
                            deadlines.submit(future)
                else:
                    for index, spec in pending:
                        action = plan.worker_action(index, attempt=0)
                        if action is not None:
                            self.telemetry.count(
                                f"injected_{action.mode}")
                        future = pool.submit(
                            _indexed_execute_faulted, (index, spec, plan))
                        futures.add(future)
                        deadlines.submit(future)
            except BrokenExecutor as exc:
                raise WorkerCrashError(str(exc) or
                                       "worker pool broke") from exc
            while futures:
                done, futures = wait(
                    futures, timeout=deadlines.next_timeout_s(),
                    return_when=FIRST_COMPLETED)
                if not done and deadlines.expired():
                    # Per-task deadline, not since-last-completion: a
                    # hung task on a busy pool cannot ride its
                    # siblings' completions past its own timeout.
                    raise TaskTimeoutError(
                        f"task exceeded its {self.task_timeout:g}s "
                        f"deadline; assuming hung worker")
                for future in done:
                    deadlines.complete(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor as exc:
                        raise WorkerCrashError(
                            str(exc) or "worker process died") from exc
                    # Chunked tasks return a list of (index, payload);
                    # per-spec tasks return a single pair.
                    items = (outcome if isinstance(outcome, list)
                             else [outcome])
                    for index, payload in items:
                        reporter.update(hits=self.hit_count,
                                        misses=self.miss_count)
                        yield index, payload
            completed = True
        finally:
            # Error paths (including a hung worker) must not block on
            # pool teardown; a clean finish waits for orderly exit.
            pool.shutdown(wait=completed, cancel_futures=not completed)

    @staticmethod
    def _picklable(payload: Any) -> bool:
        try:
            pickle.dumps(payload)
            return True
        except Exception:   # camp-lint: disable=ERR01 -- pickling probe: pickle raises arbitrary user exception types
            return False

    # -- conveniences --------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def profile(self, specs: Sequence[RunSpec],
                label: str = "profile") -> List[ProfiledRun]:
        return [result.profiled() for result in self.run(specs, label)]

    def profiler(self, machine: Machine
                 ) -> Callable[..., ProfiledRun]:
        """A drop-in replacement for ``machine.profile`` that routes
        single profiling calls through the cache layers."""
        def profile(workload, placement=None) -> ProfiledRun:
            spec = RunSpec.from_machine(machine, workload, placement)
            return self.run_one(spec).profiled()
        return profile

    def calibration(self, machine: Machine, device: str,
                    benchmarks: Optional[Sequence] = None):
        """Store-backed CAMP calibration (see
        :func:`repro.core.calibration.calibrate`)."""
        from ..core.calibration import calibrate
        return calibrate(machine, device, benchmarks,
                         store=self.store, executor=self)

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            label: str = "task") -> List[R]:
        """Order-preserving parallel map with serial fallback.

        For work that is not content-addressable (e.g. epoch-coupled
        tiering simulations): no caching, just fan-out.  Falls back to
        a plain loop when ``jobs == 1``, the batch is trivial, or
        ``fn``/items cannot be pickled.  A broken pool also degrades to
        serial; an exception raised by ``fn`` itself is deterministic
        and propagates.
        """
        items = list(items)
        with self.telemetry.stage("executor.map", label=label,
                                  batch=len(items)):
            return self._map_batch(fn, items, label)

    def _map_batch(self, fn: Callable[[T], R], items: List[T],
                   label: str) -> List[R]:
        reporter = ProgressReporter(len(items), label=label,
                                    enabled=self.progress)
        workers = min(self.jobs, len(items))
        results: Optional[List[R]] = None
        if workers > 1:
            if self._picklable((fn, items)):
                try:
                    with self.telemetry.stage("simulate"):
                        with ProcessPoolExecutor(
                                max_workers=workers) as pool:
                            results = []
                            for result in pool.map(
                                    _call,
                                    [(fn, item) for item in items]):
                                results.append(result)
                                reporter.update()
                except (BrokenExecutor, OSError):
                    self.telemetry.count("pool_fallbacks")
                    results = None
            else:
                self.telemetry.count("pool_fallbacks")
        if results is None:
            with self.telemetry.stage("simulate"):
                results = []
                for item in items:
                    results.append(fn(item))
                    reporter.update()
        reporter.finish()
        return results
