"""The camp-lint rule catalogue (``docs/LINT.md``).

Per-file rules (each reads one file's AST or lines):

========  ==========================================================
DET01     no unseeded RNG / wall-clock reads in sim paths
CACHE01   spec dataclasses frozen + every field in the cache key
PMU01     every ``P<n>`` counter reference exists in the registry
ERR01     runtime/faults error handling uses the errors.py taxonomy
PURE01    pool workers don't close over / mutate module state
UNITS01   latency/bandwidth identifiers carry unit suffixes
DTYPE01   no float32 array creation
========  ==========================================================

Whole-program rules (flow-aware, over the shared
:class:`~repro.lint.graph.ProgramGraph`):

========  ==========================================================
RACE01    shared state crossing execution contexts without a lock
ASYNC01   blocking calls reachable from the event loop
LOCK01    bare acquire / lock-order inversion / breaker
          double-consultation
SCHEMA01  key_material drift without a CACHE_SCHEMA_VERSION bump
========  ==========================================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..engine import Rule
from .blocking import BlockingInAsyncRule
from .cache_key import CacheKeyRule
from .determinism import DeterminismRule
from .dtype import DtypeDisciplineRule
from .errors import ErrorTaxonomyRule
from .locks import LockDisciplineRule
from .pmu import PmuRegistryRule
from .purity import WorkerPurityRule
from .race import RaceRule
from .schema import SchemaPinRule
from .units import UnitSuffixRule

#: Every rule, in catalogue order.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    CacheKeyRule(),
    PmuRegistryRule(),
    ErrorTaxonomyRule(),
    WorkerPurityRule(),
    UnitSuffixRule(),
    DtypeDisciplineRule(),
    RaceRule(),
    BlockingInAsyncRule(),
    LockDisciplineRule(),
    SchemaPinRule(),
)

#: id -> rule instance.
RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "BlockingInAsyncRule",
           "CacheKeyRule", "DeterminismRule", "DtypeDisciplineRule",
           "ErrorTaxonomyRule", "LockDisciplineRule", "PmuRegistryRule",
           "RaceRule", "SchemaPinRule", "UnitSuffixRule",
           "WorkerPurityRule"]
