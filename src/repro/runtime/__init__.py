"""Parallel evaluation runtime: executor, result cache, telemetry.

Every simulated execution in this repository is a pure function of its
full specification - the workload, the platform, the slow device, the
placement, and the machine's noise/seed configuration.  This package
exploits that purity twice:

- :class:`~repro.runtime.executor.Executor` fans independent runs out
  over a :class:`concurrent.futures.ProcessPoolExecutor` (with a
  graceful serial fallback), returning results in deterministic input
  order regardless of completion order;
- :class:`~repro.runtime.store.ResultStore` persists every result on
  disk, content-addressed by a stable hash of the run specification
  (:mod:`repro.runtime.spec`), so re-running a suite, sweep, or fleet
  plan is a cache lookup instead of a simulation.

:mod:`repro.runtime.telemetry` is the runtime's face of the
observability layer (:mod:`repro.obs`): hierarchical span timings with
honest self-time accounting, cache hit/miss counters, and the
``--progress`` reporting the CLI surfaces (``docs/OBSERVABILITY.md``).
:mod:`repro.runtime.errors` defines the failure taxonomy the
executor's fault tolerance is built on (``docs/FAULTS.md``).

See ``docs/RUNTIME.md`` for the architecture, the cache-key recipe, and
the invalidation rules.
"""

from .errors import (RetryPolicy, StoreError, TaskTimeoutError,
                     TransientTaskError, WorkerCrashError)
from .executor import Executor, default_jobs, execute_run_spec
from .spec import (CACHE_SCHEMA_VERSION, CalibrationSpec, RunSpec,
                   canonical_json, code_version, fingerprint)
from .store import ResultStore, StoreStats, default_cache_dir
from .telemetry import ProgressReporter, Telemetry

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CalibrationSpec",
    "Executor",
    "ProgressReporter",
    "ResultStore",
    "RetryPolicy",
    "RunSpec",
    "StoreError",
    "StoreStats",
    "TaskTimeoutError",
    "Telemetry",
    "TransientTaskError",
    "WorkerCrashError",
    "canonical_json",
    "code_version",
    "default_cache_dir",
    "default_jobs",
    "execute_run_spec",
    "fingerprint",
]
