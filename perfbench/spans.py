"""Benchmark-owned span recorder for the traced run.

The recorder wraps public entry points of the program from outside:
each wrapped call becomes one span ``(id, parent, thread, key, start,
end, attrs)`` kept in memory and written out once, when the run ends.
It does not use the program's own tracer, so a change to that tracer
cannot move the benchmark's numbers.

A span's ``key`` names the per-layer metric its self time feeds (for
example ``runtime.fingerprint_s``).  :func:`partition` turns the spans
of one process into a partition of its wall time: every instant goes
to the innermost open span of each thread, an instant where several
threads have work open is split evenly between them, and an instant no
span covers goes to ``other.self_s``.  Within one thread this is
exactly "duration minus children".
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, int, str, float, float, Optional[Dict[str, Any]]]

#: The keys of the wall-time partition, in report order.
SELF_TIME_KEYS = (
    "repro.import_s", "workloads.generate_s", "core.calibrate_s",
    "core.predict_s", "policies.self_s", "analysis.summary_s",
    "runtime.executor_s", "runtime.fingerprint_s", "runtime.store_get_s",
    "runtime.store_put_s", "runtime.serde_s", "uarch.busy_s",
    "serve.self_s", "serve.idle_s", "bench.self_s", "other.self_s",
)

#: Keys whose spans mean "this thread is waiting": they take an instant
#: only when no other thread has work open at that instant.
PASSIVE_KEYS = ("serve.idle_s",)


class Recorder:
    """Collects spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: While true, wrapped calls run without recording a span.
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, start: float, end: float) -> None:
        """Record an already-measured span of the calling thread."""
        stack = self._stack()
        self.spans.append((next(self._ids), stack[-1] if stack else 0,
                           threading.get_ident(), key, start, end, None))

    def wrap(self, fn: Callable, key: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.

        ``before(args, kwargs)`` runs ahead of the call and may add
        keyword arguments; ``after(args, kwargs, result, token)``
        returns the span's attrs, ``token`` being what ``before``
        returned.
        """
        recorder = self
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if recorder.paused:
                return fn(*args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            token = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = (after(args, kwargs, result, token)
                     if after is not None else None)
            spans.append((span_id, parent, threading.get_ident(), key,
                           start, end, attrs))
            return result

        return traced

    def dump(self, path: str, start: float, end: float) -> None:
        """Write every span plus the traced window ``[start, end]``."""
        with open(path, "w") as handle:
            json.dump({"start": start, "end": end, "spans": self.spans},
                      handle)


def load(path: str) -> Tuple[List[Span], float, float]:
    with open(path) as handle:
        data = json.load(handle)
    return ([tuple(span) for span in data["spans"]],
            data["start"], data["end"])


# -- wrappers over the program's public calls -------------------------------

def _patch_method(owner: type, name: str, recorder: Recorder, key: str,
                  before: Optional[Callable] = None,
                  after: Optional[Callable] = None) -> None:
    raw = next(klass.__dict__[name] for klass in owner.__mro__
               if name in klass.__dict__)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(
            recorder.wrap(raw.__func__, key, before, after)))
    else:
        setattr(owner, name, recorder.wrap(raw, key, before, after))


def _patch_function(modules: Iterable[Any], name: str, recorder: Recorder,
                    key: str, after: Optional[Callable] = None) -> None:
    """Wrap a module-level function in every module that binds it."""
    modules = list(modules)
    traced = recorder.wrap(getattr(modules[0], name), key, after=after)
    for module in modules:
        setattr(module, name, traced)


_STAT_FIELDS = ("outer_iterations", "joint_iterations", "nonconverged",
                "replay_resolves", "warm_seeded")


def _inject_stats(args: tuple, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Ask the solver for its public ``stats=`` telemetry."""
    if kwargs.get("stats") is None:
        kwargs["stats"] = {}
    return kwargs["stats"]


def _solver_attrs(args, kwargs, result, stats) -> Dict[str, Any]:
    attrs = {name: int(stats[name]) for name in _STAT_FIELDS
             if name in stats}
    attrs["lanes"] = len(result)
    attrs["accelerated"] = bool(kwargs.get("accelerate"))
    return attrs


def _one_lane(args, kwargs, result, token) -> Dict[str, Any]:
    return {"lanes": 1, "nonconverged": int(not result.converged)}


def _store_get(args, kwargs, result, token) -> Dict[str, Any]:
    return {"reads": 1, "hits": int(result is not None)}


def _store_get_many(args, kwargs, result, token) -> Dict[str, Any]:
    return {"reads": len(args[1]), "hits": len(result)}


def _store_put(args, kwargs, result, token) -> Dict[str, Any]:
    return {"writes": 1}


def _store_put_many(args, kwargs, result, token) -> Dict[str, Any]:
    return {"writes": len(args[1])}


def _one_call(args, kwargs, result, token) -> Dict[str, Any]:
    return {"calls": 1}


def _loop_callback(args, kwargs, result, token) -> Dict[str, Any]:
    return {"loop": 1}


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap the program's public layer boundaries with ``recorder``.

    With ``serve`` the HTTP-side calls are wrapped too, together with
    the event loop's callbacks and selector waits and the thread-pool
    work items the server's solver runs in.
    """
    from repro.analysis import stats as stats_mod
    from repro.core.slowdown import SlowdownPredictor
    from repro.policies import colocation
    from repro.runtime import serde
    from repro.runtime.executor import Executor
    from repro.runtime.spec import RunSpec
    from repro.runtime.store import ResultStore
    from repro.uarch.machine import Machine
    from repro.workloads import suites

    _patch_method(Machine, "run", recorder, "uarch.busy_s", after=_one_lane)
    for name in ("run_batch", "run_batch_multi", "run_colocated",
                 "run_colocated_groups"):
        _patch_method(Machine, name, recorder, "uarch.busy_s",
                      before=_inject_stats, after=_solver_attrs)
    _patch_method(Executor, "run", recorder, "runtime.executor_s")
    _patch_method(Executor, "calibration", recorder, "core.calibrate_s")
    _patch_method(RunSpec, "fingerprint", recorder, "runtime.fingerprint_s")
    _patch_method(ResultStore, "get", recorder, "runtime.store_get_s",
                  after=_store_get)
    _patch_method(ResultStore, "get_many", recorder, "runtime.store_get_s",
                  after=_store_get_many)
    _patch_method(ResultStore, "put", recorder, "runtime.store_put_s",
                  after=_store_put)
    _patch_method(ResultStore, "put_many", recorder, "runtime.store_put_s",
                  after=_store_put_many)
    for name in ("run_result_to_dict", "run_result_from_dict"):
        _patch_function([serde], name, recorder, "runtime.serde_s")
    _patch_method(SlowdownPredictor, "predict", recorder, "core.predict_s",
                  after=_one_call)
    _patch_function([colocation], "schedule_by_camp", recorder,
                    "policies.self_s", after=_one_call)
    _patch_function([stats_mod], "accuracy_summary", recorder,
                    "analysis.summary_s")
    _patch_function([suites], "evaluation_suite", recorder,
                    "workloads.generate_s")
    if serve:
        _install_serve(recorder)


def _install_serve(recorder: Recorder) -> None:
    import asyncio.events
    import concurrent.futures.thread
    import selectors

    from repro.serve import protocol, server

    for name in ("parse_predict_request", "encode_http_response"):
        _patch_function([protocol, server], name, recorder, "serve.self_s")
    _patch_method(asyncio.events.Handle, "_run", recorder, "serve.self_s",
                  after=_loop_callback)
    _patch_method(concurrent.futures.thread._WorkItem, "run", recorder,
                  "serve.self_s")
    _patch_method(selectors.DefaultSelector, "select", recorder,
                  "serve.idle_s")


# -- turning spans into per-layer metrics -----------------------------------

def _self_segments(spans: List[Span]
                   ) -> Dict[int, List[Tuple[float, float, str]]]:
    """Per thread, the disjoint ``(start, end, key)`` pieces of self time."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    segments: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    for span in spans:
        cursor = span[4]
        for kid in sorted(children.get(span[0], ()), key=lambda s: s[4]):
            if kid[4] > cursor:
                segments[span[2]].append((cursor, kid[4], span[3]))
            cursor = max(cursor, kid[5])
        if span[5] > cursor:
            segments[span[2]].append((cursor, span[5], span[3]))
    for pieces in segments.values():
        pieces.sort()
    return segments


def partition(spans: List[Span], start: float, end: float
              ) -> Dict[str, float]:
    """Split the window ``[start, end]`` over the spans' keys.

    The values sum to ``end - start``; time no span covers is
    ``other.self_s``.
    """
    segments = _self_segments(spans)
    cuts = {start, end}
    for pieces in segments.values():
        for lo, hi, _ in pieces:
            cuts.add(min(max(lo, start), end))
            cuts.add(min(max(hi, start), end))
    points = sorted(cuts)
    totals: Dict[str, float] = defaultdict(float)
    cursors = {thread: 0 for thread in segments}
    for lo, hi in zip(points, points[1:]):
        active: List[str] = []
        for thread, pieces in segments.items():
            index = cursors[thread]
            while index < len(pieces) and pieces[index][1] <= lo:
                index += 1
            cursors[thread] = index
            if index < len(pieces) and pieces[index][0] <= lo:
                active.append(pieces[index][2])
        busy = [key for key in active if key not in PASSIVE_KEYS]
        if busy:
            for key in busy:
                totals[key] += (hi - lo) / len(busy)
        elif active:
            totals[active[0]] += hi - lo
        else:
            totals["other.self_s"] += hi - lo
    return dict(totals)


def _outermost(spans: List[Span], prefix: str) -> List[Span]:
    """Spans whose key starts with ``prefix`` and no ancestor's does."""
    by_id = {span[0]: span for span in spans}
    chosen = []
    for span in spans:
        if not span[3].startswith(prefix):
            continue
        parent = by_id.get(span[1])
        while parent is not None and not parent[3].startswith(prefix):
            parent = by_id.get(parent[1])
        if parent is None:
            chosen.append(span)
    return chosen


def layer_metrics(spans: List[Span], start: float, end: float
                  ) -> Dict[str, float]:
    """Every per-layer metric the spans of one process give."""
    shares = partition(spans, start, end)
    metrics = {key: shares.get(key, 0.0) for key in SELF_TIME_KEYS}
    metrics["trace.wall_s"] = end - start

    solves = _outermost(spans, "uarch.")
    batches = [span for span in solves if "outer_iterations" in span[6]]
    lanes = sum(span[6]["lanes"] for span in solves)
    outer = sum(span[6]["outer_iterations"] for span in batches)
    resolves = sum(span[6].get("replay_resolves", 0) for span in batches)
    accelerated = sum(span[6]["lanes"] for span in batches
                      if span[6]["accelerated"])
    batch_s = sum(span[5] - span[4] for span in batches)

    def total(key: str, field: str) -> float:
        return float(sum(span[6][field] for span in spans
                         if span[3] == key and span[6]))

    reads = total("runtime.store_get_s", "reads")
    metrics.update({
        "uarch.calls": float(len(solves)),
        "uarch.lanes": float(lanes),
        "uarch.lanes_per_call": lanes / len(solves) if solves else 0.0,
        "uarch.outer_iterations": float(outer),
        "uarch.joint_iterations": float(sum(
            span[6].get("joint_iterations", 0) for span in batches)),
        "uarch.us_per_lane_iteration": batch_s * 1e6 / outer if outer
        else 0.0,
        "uarch.nonconverged": float(sum(
            span[6].get("nonconverged", 0) for span in solves)),
        "uarch.replay_resolves": float(resolves),
        "uarch.useful_ratio": 1.0 - resolves / lanes if lanes else 0.0,
        "uarch.warm_seed_ratio": (sum(span[6].get("warm_seeded", 0)
                                      for span in batches) / accelerated
                                  if accelerated else 0.0),
        "runtime.fingerprints": float(sum(
            1 for span in spans if span[3] == "runtime.fingerprint_s")),
        "runtime.store_reads": reads,
        "runtime.store_writes": total("runtime.store_put_s", "writes"),
        "runtime.store_hit_ratio": (total("runtime.store_get_s", "hits") /
                                    reads if reads else 0.0),
        "core.predictions": total("core.predict_s", "calls"),
        "policies.decisions": total("policies.self_s", "calls"),
        "serve.loop_busy_s": sum(span[5] - span[4] for span in spans
                                 if span[6] and "loop" in span[6]),
    })
    return metrics
