"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestArgumentValidation:
    """Bad runtime flags die at parse time (usage error, exit 2)."""

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "junk"])
    def test_rejects_bad_job_counts(self, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["suite", "-j", value])
        assert exc.value.code == 2

    def test_jobs_auto_resolves_to_a_positive_count(self):
        args = build_parser().parse_args(["suite", "-j", "auto"])
        assert args.jobs >= 1

    def test_rejects_cache_dir_with_missing_parent(self, tmp_path):
        missing = tmp_path / "no" / "such" / "cache"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["suite", "--cache-dir", str(missing)])
        assert exc.value.code == 2

    def test_accepts_cache_dir_with_existing_parent(self, tmp_path):
        target = tmp_path / "cache"
        args = build_parser().parse_args(
            ["suite", "--cache-dir", str(target)])
        assert args.cache_dir == target

    @pytest.mark.parametrize("value", ["0", "-3", "300", "junk"])
    def test_rejects_out_of_range_workload_counts(self, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["suite", "--workloads", value])
        assert exc.value.code == 2


class TestChaosParser:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.schedule == "default"
        assert args.seed == 0

    def test_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--schedule", "bogus"])
        assert exc.value.code == 2


class TestWorkloadsCommand:
    def test_lists_named_workloads(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "603.bwaves" in out
        assert "gpt-2" in out


class TestCalibrateCommand:
    def test_writes_json(self, capsys, tmp_path):
        out_file = tmp_path / "cal.json"
        code, _ = run_cli(capsys, "calibrate", "--device", "numa",
                          "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["device"] == "numa"
        assert data["constants"]["q"] > 0

    def test_prints_json_without_out(self, capsys):
        code, out = run_cli(capsys, "calibrate", "--device", "numa")
        assert code == 0
        assert json.loads(out)["platform_family"] == "skx"


@pytest.fixture(scope="module")
def calibration_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "cxl-a.json"
    main(["calibrate", "--device", "cxl-a", "--out", str(path)])
    return str(path)


class TestPredictCommand:
    def test_predict_table(self, capsys, calibration_file):
        code, out = run_cli(capsys, "predict", "--calibration",
                            calibration_file, "605.mcf", "557.xz")
        assert code == 0
        assert "605.mcf" in out and "S_DRd" in out

    def test_predict_verify(self, capsys, calibration_file):
        code, out = run_cli(capsys, "predict", "--calibration",
                            calibration_file, "557.xz", "--verify")
        assert code == 0
        assert "error" in out

    def test_contention_aware_flag(self, capsys, calibration_file):
        code, out = run_cli(capsys, "predict", "--calibration",
                            calibration_file, "603.bwaves",
                            "--threads", "10", "--contention-aware")
        assert code == 0


class TestClassifyCommand:
    def test_classify(self, capsys, calibration_file):
        code, out = run_cli(capsys, "classify", "--calibration",
                            calibration_file, "603.bwaves", "605.mcf",
                            "--threads", "10")
        assert code == 0
        assert "bandwidth-bound" in out


class TestSweepCommand:
    def test_sweep_prediction_only(self, capsys, calibration_file):
        code, out = run_cli(capsys, "sweep", "--calibration",
                            calibration_file, "603.bwaves",
                            "--threads", "10", "--points", "5")
        assert code == 0
        assert "Best-shot ratio" in out

    def test_sweep_with_measurement(self, capsys, calibration_file):
        code, out = run_cli(capsys, "sweep", "--calibration",
                            calibration_file, "557.xz", "--points", "3",
                            "--measure")
        assert code == 0
        assert "actual S" in out


class TestSuiteCommand:
    def test_suite_subset(self, capsys, calibration_file):
        code, out = run_cli(capsys, "suite", "--calibration",
                            calibration_file, "--limit", "10")
        assert code == 0
        assert "pearson" in out


class TestFleetCommand:
    def test_fleet_plan(self, capsys, calibration_file):
        code, out = run_cli(capsys, "fleet", "--calibration",
                            calibration_file, "605.mcf", "557.xz",
                            "gpt-2", "--share", "0.5")
        assert code == 0
        assert "DRAM used" in out and "pred S" in out

    def test_fleet_absolute_capacity(self, capsys, calibration_file):
        code, out = run_cli(capsys, "fleet", "--calibration",
                            calibration_file, "557.xz",
                            "--capacity-gib", "4.0")
        assert code == 0


class TestDynamicsCommand:
    def test_dynamics_table(self, capsys, calibration_file):
        code, out = run_cli(capsys, "dynamics", "--calibration",
                            calibration_file, "603.bwaves",
                            "--threads", "10", "--epochs", "8")
        assert code == 0
        assert "best-shot" in out and "colloid" in out
        assert "converged@" in out


class TestCacheCommand:
    """Every ``repro cache`` action against a store the executor
    filled (docs/STORE.md)."""

    @staticmethod
    def fields(out):
        return {name.strip(): value.strip() for name, value in
                (line.split(":", 1) for line in out.splitlines())}

    def test_every_action(self, capsys, tmp_path):
        from repro.runtime.executor import Executor
        from repro.runtime.spec import RunSpec
        from repro.runtime.store import ResultStore
        from repro.uarch import SKX2S, Machine, Placement
        from repro.workloads import get_workload

        root = tmp_path / "cache"
        machine = Machine(SKX2S)
        specs = [RunSpec.from_machine(machine, get_workload(name), placement)
                 for name in ("605.mcf", "557.xz")
                 for placement in (Placement.dram_only(),
                                   Placement.slow_only("cxl-a"))]
        with ResultStore(root) as store:
            Executor(store=store).run(specs)
        cache_dir = ("--cache-dir", str(root))

        code, out = run_cli(capsys, "cache", "info", *cache_dir)
        info = self.fields(out)
        assert code == 0
        assert int(info["entries"]) == len(specs)
        assert int(info["corrupt"]) == 0
        assert not any("warm" in name for name in info)
        assert "legacy" not in out

        code, out = run_cli(capsys, "cache", "compact", *cache_dir)
        assert code == 0
        assert f"{len(specs)} entries live" in out

        code, out = run_cli(capsys, "cache", "clear", *cache_dir)
        assert code == 0
        assert out.startswith(f"cleared {len(specs)} entries")
        code, out = run_cli(capsys, "cache", "info", *cache_dir)
        assert int(self.fields(out)["entries"]) == 0

    def test_a_legacy_warm_start_record_is_an_entry_until_clear(
            self, capsys, tmp_path):
        # Stores written while the solver kept a warm-start cache may
        # hold its last snapshot; nothing reads it, and it counts as
        # one plain live entry until `cache clear` (docs/STORE.md).
        from repro.runtime.spec import code_version, fingerprint
        from repro.runtime.store import ResultStore

        root = tmp_path / "cache"
        with ResultStore(root) as store:
            store.put(fingerprint({"kind": "warm-start",
                                   "version": code_version()}),
                      {"kind": "warm-start", "version": code_version(),
                       "points": []})
        cache_dir = ("--cache-dir", str(root))

        code, out = run_cli(capsys, "cache", "info", *cache_dir)
        info = self.fields(out)
        assert code == 0
        assert int(info["entries"]) == 1
        assert int(info["corrupt"]) == 0
        assert not any("warm" in name for name in info)

        code, out = run_cli(capsys, "cache", "clear", *cache_dir)
        assert code == 0
        assert out.startswith("cleared 1 entry")
        code, out = run_cli(capsys, "cache", "info", *cache_dir)
        assert int(self.fields(out)["entries"]) == 0

    @pytest.mark.parametrize("action",
                             ["migrate", "warm-info", "warm-clear"])
    def test_migrate_action_is_gone(self, action):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", action])
