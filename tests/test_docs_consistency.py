"""Documentation-vs-code consistency checks.

Docs drift silently; argparse does not.  These tests treat the parser
as the source of truth and require every subcommand to be documented in
the ``repro.cli`` module docstring and in ``docs/API.md``, and the
documentation files this PR promises to exist and be cross-linked.
"""

import argparse
import pathlib
import re

import pytest

import repro.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNTIME_FLAGS = ("--jobs", "--cache-dir", "--no-cache", "--progress")
#: Subcommands that never simulate (or, for ``trace``/``bench``, pin
#: their own runtime configuration), so carry no runtime flags.
#: ``serve`` takes the cache flags but runs its own single-threaded
#: solver loop; ``loadgen`` only talks HTTP.
NON_SIMULATING = ("workloads", "lint", "trace", "bench", "cache",
                  "serve", "loadgen")


def subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


def read(relative):
    path = ROOT / relative
    assert path.is_file(), f"missing documentation file: {relative}"
    return path.read_text()


class TestCliDocstring:
    def test_every_subcommand_in_docstring_table(self):
        doc = cli.__doc__
        for command in subcommands():
            assert f"``{command}``" in doc, (
                f"subcommand {command!r} missing from the repro.cli "
                f"module docstring table")

    def test_docstring_names_no_phantom_commands(self):
        # Everything the docstring table lists must actually parse.
        documented = re.findall(r"^``(\w+)``", cli.__doc__, re.M)
        assert documented, "docstring command table not found"
        assert set(documented) == set(subcommands())

    def test_runtime_flags_really_exist(self):
        parser = cli.build_parser()
        for command in subcommands():
            if command in NON_SIMULATING:
                continue
            args = parser.parse_args([command, "x"]
                                     if command in ("sweep", "dynamics",
                                                    "predict", "classify",
                                                    "fleet")
                                     else [command])
            for flag in ("jobs", "cache_dir", "no_cache", "progress"):
                assert hasattr(args, flag), (command, flag)


class TestApiDoc:
    def test_every_subcommand_in_api_doc(self):
        api = read("docs/API.md")
        for command in subcommands():
            assert f"`{command}`" in api, (
                f"subcommand {command!r} missing from docs/API.md")

    def test_runtime_flags_documented(self):
        api = read("docs/API.md")
        for flag in RUNTIME_FLAGS:
            assert flag in api, f"{flag} missing from docs/API.md"

    def test_documents_the_public_exports(self):
        import repro
        api = read("docs/API.md")
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert re.search(rf"\b{re.escape(name)}\b", api), (
                f"public export {name!r} missing from docs/API.md")


class TestRuntimeDoc:
    def test_exists_and_covers_the_contract(self):
        runtime = read("docs/RUNTIME.md")
        for term in ("cache key", "sha256(canonical_json",
                     "Atomic writes", "Invalidation rules",
                     "REPRO_CACHE_DIR", ".repro-cache",
                     "CACHE_SCHEMA_VERSION"):
            assert term in runtime, f"{term!r} missing from RUNTIME.md"

    def test_runtime_flags_documented(self):
        runtime = read("docs/RUNTIME.md")
        for flag in RUNTIME_FLAGS:
            assert flag in runtime, f"{flag} missing from RUNTIME.md"


class TestSolverDoc:
    def test_exists_and_covers_the_contract(self):
        solver = read("docs/SOLVER.md")
        for term in ("run_batch",
                     "ACCELERATED_RELATIVE_TOLERANCE", "bit-identical",
                     "Anderson", "MIN_BATCH_GROUP", "replay_resolves",
                     "nonconverged_results", "run_colocated",
                     "run_colocated_groups", "pack-once",
                     "CACHE_SCHEMA_VERSION"):
            assert term in solver, f"{term!r} missing from SOLVER.md"

    def test_warm_start_cache_is_named_nowhere(self):
        # The cache made an accelerated answer depend on what was
        # solved before it; no doc or module may describe it as live.
        paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 *sorted((ROOT / "src").rglob("*.py"))]
        for path in paths:
            text = path.read_text()
            for term in ("WarmStartCache", "warm_cache", "warmstore",
                         "warm-info", "warm-clear"):
                assert term not in text, (
                    f"{path.relative_to(ROOT)} names {term!r}")

    def test_documents_the_real_tolerance(self):
        from repro.uarch.machine import ACCELERATED_RELATIVE_TOLERANCE
        assert ACCELERATED_RELATIVE_TOLERANCE == 1e-7
        assert "1e-7" in read("docs/SOLVER.md")

    def test_documents_the_real_batch_gate(self):
        from repro.runtime.executor import MIN_BATCH_GROUP
        solver = read("docs/SOLVER.md")
        assert f"({MIN_BATCH_GROUP})" in solver


class TestFaultsDoc:
    def test_exists_and_covers_the_contract(self):
        faults = read("docs/FAULTS.md")
        for term in ("FaultPlan", "CounterInjector", "LatencyInjector",
                     "ChaosStore", "WorkerCrashError", "TaskTimeoutError",
                     "TransientTaskError", "RetryPolicy", "task_timeout",
                     "python -m repro chaos", "DEGRADED_MAPE_BOUND"):
            assert term in faults, f"{term!r} missing from FAULTS.md"

    def test_every_schedule_documented(self):
        from repro.faults import SCHEDULES
        faults = read("docs/FAULTS.md")
        for name in SCHEDULES:
            assert f"`{name}`" in faults, (
                f"fault schedule {name!r} missing from FAULTS.md")

    def test_every_chaos_invariant_documented(self):
        faults = read("docs/FAULTS.md")
        for invariant in ("clean_predictions_not_degraded",
                          "degraded_flagging_consistent",
                          "degraded_mape_bounded",
                          "no_cache_poisoning",
                          "prediction_for_every_window",
                          "store_corruption_is_miss",
                          "store_entries_rewritten",
                          "store_recovers_clean_results",
                          "tier_faulted_runs_complete",
                          "worker_faults_recover_exact_results"):
            assert f"`{invariant}`" in faults, (
                f"chaos invariant {invariant!r} missing from FAULTS.md")


class TestStoreDoc:
    """docs/STORE.md is a byte-level format spec; hold it to the code."""

    def test_exists_and_covers_the_contract(self):
        store = read("docs/STORE.md")
        for term in ("CAMPSEG1", "CREC", "RECORD_HEADER", "CRC",
                     "tombstone", "compact", "torn",
                     "CACHE_SCHEMA_VERSION", "marshal",
                     "get_many", "put_many"):
            assert term in store, f"{term!r} missing from STORE.md"

    def test_documents_the_real_magics(self):
        from repro.runtime.store import RECORD_MAGIC, SEGMENT_MAGIC
        assert SEGMENT_MAGIC == b"CAMPSEG1"
        assert RECORD_MAGIC == b"CREC"

    def test_documents_the_real_header_layout(self):
        from repro.runtime.store import RECORD_HEADER
        store = read("docs/STORE.md")
        assert RECORD_HEADER.size == 19
        assert "19-byte" in store
        assert "<4sIBIHI>" in store

    def test_documents_the_real_schema_version(self):
        from repro.runtime.spec import CACHE_SCHEMA_VERSION
        store = read("docs/STORE.md")
        assert f"currently {CACHE_SCHEMA_VERSION}" in store

    def test_documents_the_real_tuning_defaults(self):
        from repro.runtime import store as mod
        store = read("docs/STORE.md")
        assert mod.DEFAULT_SEGMENT_MAX_BYTES == 8 * 1024 * 1024
        assert "8 MiB" in store
        for constant in ("DEFAULT_CACHE_CAPACITY", "DEFAULT_READER_HANDLES",
                         "BULK_READ_DENSITY_BYTES"):
            assert constant in store, f"{constant!r} missing from STORE.md"
            assert str(getattr(mod, constant)) in store
        from repro.runtime.serde import PAYLOAD_MARSHAL_VERSION
        assert PAYLOAD_MARSHAL_VERSION == 4

    def test_documented_header_fields_match_struct(self):
        # The field table documents 4+4+1+4+2+4 = the struct's size.
        import struct
        from repro.runtime.store import RECORD_HEADER
        assert RECORD_HEADER.size == struct.calcsize("<4sIBIHI")


class TestServeDoc:
    """docs/SERVE.md pins the service's operational defaults to code."""

    def test_exists_and_covers_the_contract(self):
        serve = read("docs/SERVE.md")
        for term in ("POST /v1/predict", "GET /healthz", "GET /stats",
                     "coalesce factor", "QueryCoalescer",
                     "CircuitBreaker", "MIN_BATCH_GROUP",
                     "run_batch", "repro-slo/1", "open-loop",
                     "coordinated omission",
                     "repro chaos --target serve"):
            assert term in serve, f"{term!r} missing from SERVE.md"

    def test_documents_the_real_defaults(self):
        from repro.serve.breaker import (BREAKER_COOLDOWN_S,
                                         BREAKER_FAILURE_THRESHOLD)
        from repro.serve.protocol import (DEFAULT_COALESCE_WINDOW_MS,
                                          DEFAULT_DEADLINE_MS,
                                          DEFAULT_QUEUE_BOUND,
                                          MAX_COALESCE_LANES,
                                          MAX_HEADER_LINES)
        serve = read("docs/SERVE.md")
        assert DEFAULT_QUEUE_BOUND == 128
        assert DEFAULT_DEADLINE_MS == 2000.0
        assert DEFAULT_COALESCE_WINDOW_MS == 20.0
        assert MAX_COALESCE_LANES == 64
        assert MAX_HEADER_LINES == 64
        assert BREAKER_FAILURE_THRESHOLD == 3
        assert BREAKER_COOLDOWN_S == 5.0
        for snippet in ("(128)", "(2000 ms)", "(20 ms", "(64)",
                        "`MAX_HEADER_LINES` (64)", "(3)", "(5.0 s"):
            assert snippet in serve, f"{snippet!r} missing from SERVE.md"

    def test_documents_every_outcome_status(self):
        serve = read("docs/SERVE.md")
        from repro.serve.slo import OUTCOMES
        for outcome in OUTCOMES:
            assert f"`{outcome}`" in serve, (
                f"outcome {outcome!r} missing from SERVE.md")

    def test_documents_every_serve_chaos_invariant(self):
        serve = read("docs/SERVE.md")
        for invariant in ("every_request_answered", "no_internal_errors",
                          "deadlines_explicit",
                          "coalesce_factor_above_one", "clean_drain",
                          "breaker_opened_on_disconnects",
                          "solver_crashes_retried"):
            assert f"`{invariant}`" in serve, (
                f"serve invariant {invariant!r} missing from SERVE.md")

    def test_documents_the_real_slo_schema(self):
        from repro.serve.slo import SLO_SCHEMA
        assert f'"{SLO_SCHEMA}"' in read("docs/SERVE.md")


class TestFleetDoc:
    """docs/FLEET.md pins the tournament's knobs and metrics to code."""

    def test_exists_and_covers_the_contract(self):
        fleet = read("docs/FLEET.md")
        for term in ("draw_fleet", "run_colocated_groups",
                     "repro-fleet/1", "FleetPlanner", "FleetReport",
                     "FLEET_tournament.json", "--nodes", "p99",
                     "migration", "stranded", "weighted speedup",
                     "reservoir", "fleet-smoke"):
            assert term in fleet, f"{term!r} missing from FLEET.md"

    def test_documents_the_real_defaults(self):
        from repro.fleet import (DEFAULT_FAST_SHARES,
                                 DEFAULT_GROUP_SIZE,
                                 DEFAULT_SHARD_NODES,
                                 SHARD_JOINT_TOLERANCE)
        fleet = read("docs/FLEET.md")
        assert DEFAULT_SHARD_NODES == 250
        assert SHARD_JOINT_TOLERANCE == 1e-4
        assert DEFAULT_GROUP_SIZE == 2
        assert DEFAULT_FAST_SHARES == (0.35, 0.5, 0.65)
        for snippet in ("default 250", "1e-4", "default 2",
                        "0.35 / 0.5 / 0.65"):
            assert snippet in fleet, f"{snippet!r} missing from FLEET.md"

    def test_every_schedule_documented(self):
        from repro.fleet import ARRIVAL_SCHEDULES
        fleet = read("docs/FLEET.md")
        for name in ARRIVAL_SCHEDULES:
            assert f"`{name}`" in fleet, (
                f"arrival schedule {name!r} missing from FLEET.md")

    def test_every_tournament_policy_documented(self):
        from repro.fleet import TOURNAMENT_POLICIES
        fleet = read("docs/FLEET.md")
        for policy in TOURNAMENT_POLICIES:
            assert policy in fleet, (
                f"policy {policy!r} missing from FLEET.md")

    def test_documents_the_real_churn_constants(self):
        from repro.fleet.tournament import (
            COLLOID_REACTIVATION_FRACTION, COLLOID_SAMPLING_FRACTION,
            FIRST_TOUCH_FILL_FRACTION, NBT_REACTIVATION_FRACTION,
            NBT_SAMPLING_FRACTION)
        fleet = read("docs/FLEET.md")
        assert FIRST_TOUCH_FILL_FRACTION == 1.0
        assert (NBT_REACTIVATION_FRACTION,
                NBT_SAMPLING_FRACTION) == (1.0, 0.10)
        assert (COLLOID_REACTIVATION_FRACTION,
                COLLOID_SAMPLING_FRACTION) == (0.6, 0.04)
        for snippet in ("FIRST_TOUCH_FILL_FRACTION = 1.0",
                        "reactivation 1.0, sampling 0.10",
                        "0.6 and 0.04"):
            assert snippet in fleet, f"{snippet!r} missing from FLEET.md"

    def test_documents_the_real_schema(self):
        from repro.fleet import FLEET_SCHEMA
        assert f'"{FLEET_SCHEMA}"' in read("docs/FLEET.md")


class TestPmuCounterReferences:
    """Docs can never mention a counter the simulator doesn't emit.

    Runs camp-lint's PMU01 rule (backed by the ``uarch.pmu`` registry)
    over every documentation file, so a phantom ``P<n>`` reference -
    a counter beyond Table 5, or one retired from the registry - fails
    the suite with the exact file:line.
    """

    DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/API.md", "docs/FAULTS.md", "docs/FLEET.md",
                 "docs/LINT.md", "docs/MODEL.md",
                 "docs/OBSERVABILITY.md", "docs/RUNTIME.md",
                 "docs/SERVE.md", "docs/SOLVER.md", "docs/STORE.md",
                 "docs/SUBSTRATE.md", "docs/WORKLOADS.md")

    def test_registry_matches_counter_enum(self):
        from repro.core.counters import Counter
        from repro.uarch.pmu import KNOWN_COUNTER_IDS, known_counter_ids
        assert known_counter_ids() == KNOWN_COUNTER_IDS
        assert KNOWN_COUNTER_IDS == {c.value for c in Counter}
        assert {f"P{n}" for n in range(1, 18)} <= KNOWN_COUNTER_IDS

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_docs_reference_only_registered_counters(self, doc):
        from repro.lint import lint_source
        from repro.lint.rules import PmuRegistryRule
        findings = lint_source(read(doc), doc, [PmuRegistryRule()])
        assert not findings, "\n".join(f.render() for f in findings)

    def test_phantom_counter_would_be_caught(self):
        from repro.lint import lint_source
        from repro.lint.rules import PmuRegistryRule
        findings = lint_source("the P19 counter\n", "docs/FAKE.md",
                               [PmuRegistryRule()])
        assert [f.rule for f in findings] == ["PMU01"]


class TestCrossLinks:
    @pytest.mark.parametrize("doc", ["docs/RUNTIME.md", "docs/API.md",
                                     "docs/FAULTS.md",
                                     "docs/OBSERVABILITY.md",
                                     "docs/SERVE.md", "docs/FLEET.md",
                                     "docs/SOLVER.md", "docs/STORE.md"])
    def test_readme_links_docs(self, doc):
        assert doc in read("README.md")

    def test_fleet_doc_is_cross_linked(self):
        assert "FLEET.md" in read("docs/API.md")
        assert "FLEET.md" in read("docs/SOLVER.md")
        assert "FLEET.md" in read("EXPERIMENTS.md")
        for doc in ("SOLVER.md", "MODEL.md", "LINT.md",
                    "OBSERVABILITY.md"):
            assert doc in read("docs/FLEET.md")

    def test_serve_doc_is_cross_linked(self):
        assert "SERVE.md" in read("docs/RUNTIME.md")
        assert "SERVE.md" in read("docs/API.md")
        assert "SERVE.md" in read("docs/FAULTS.md")
        for doc in ("SOLVER.md", "STORE.md", "FAULTS.md",
                    "OBSERVABILITY.md"):
            assert doc in read("docs/SERVE.md")

    def test_runtime_and_api_docs_link_store_doc(self):
        assert "STORE.md" in read("docs/RUNTIME.md")
        assert "STORE.md" in read("docs/API.md")
        assert "STORE.md" in read("docs/FAULTS.md")
        assert "docs/STORE.md" in cli.__doc__

    def test_runtime_and_api_docs_link_solver_doc(self):
        assert "SOLVER.md" in read("docs/RUNTIME.md")
        assert "SOLVER.md" in read("docs/API.md")
        assert "SOLVER.md" in read("docs/OBSERVABILITY.md")

    def test_design_links_runtime_doc(self):
        assert "docs/RUNTIME.md" in read("DESIGN.md")

    def test_cli_docstring_points_at_runtime_doc(self):
        assert "docs/RUNTIME.md" in cli.__doc__

    def test_cli_docstring_points_at_faults_doc(self):
        assert "docs/FAULTS.md" in cli.__doc__

    def test_runtime_and_api_docs_link_faults_doc(self):
        assert "FAULTS.md" in read("docs/RUNTIME.md")
        assert "FAULTS.md" in read("docs/API.md")

    def test_runtime_and_api_docs_link_observability_doc(self):
        assert "OBSERVABILITY.md" in read("docs/RUNTIME.md")
        assert "OBSERVABILITY.md" in read("docs/API.md")

    def test_gitignore_excludes_cache_dir(self):
        assert ".repro-cache/" in read(".gitignore")
