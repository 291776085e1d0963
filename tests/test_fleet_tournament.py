"""Tests for the fleet-scale colocation tournament (docs/FLEET.md)."""

import json

import pytest

from repro.fleet import (ARRIVAL_SCHEDULES, FLEET_SCHEMA, FleetPhase,
                         FleetReport, NodeConfig, PolicyStanding,
                         TOURNAMENT_POLICIES, TournamentConfig,
                         draw_fleet, load_report, node_active,
                         run_tournament, schedule_weights)
from repro.fleet.tournament import _churn_gib, _node_fractions
from repro.runtime.executor import Executor
from repro.workloads import get_workload
from repro.workloads.suites import evaluation_suite


@pytest.fixture(scope="module")
def population():
    return list(evaluation_suite(seed=2026))


class TestPopulation:
    def test_draw_fleet_deterministic(self, population):
        first = draw_fleet(population, 50, seed=7)
        second = draw_fleet(population, 50, seed=7)
        assert first == second
        assert first != draw_fleet(population, 50, seed=8)

    def test_group_members_distinct(self, population):
        for node in draw_fleet(population, 100, seed=3, group_size=3):
            assert len(set(node.workloads)) == 3

    def test_capacity_is_share_of_group_footprint(self, population):
        by_name = {spec.name: spec for spec in population}
        for node in draw_fleet(population, 40, seed=1):
            total = sum(by_name[name].footprint_gib
                        for name in node.workloads)
            assert node.fast_capacity_gib == pytest.approx(
                node.fast_share * total)

    def test_draw_fleet_validation(self, population):
        with pytest.raises(ValueError):
            draw_fleet(population, 0, seed=1)
        with pytest.raises(ValueError):
            draw_fleet(population[:1], 5, seed=1, group_size=2)
        with pytest.raises(ValueError):
            draw_fleet(population, 5, seed=1, fast_shares=())

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            FleetPhase("bad", intensity=1.5, weight=1.0)
        with pytest.raises(ValueError):
            FleetPhase("bad", intensity=0.5, weight=0.0)

    def test_node_config_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(0, (), 0.5, 1.0)
        with pytest.raises(ValueError):
            NodeConfig(0, ("xsbench",), 0.5, 0.0)

    def test_schedule_weights_normalized(self):
        for phases in ARRIVAL_SCHEDULES.values():
            assert sum(schedule_weights(phases)) == pytest.approx(1.0)

    def test_node_active_matches_intensity(self):
        nodes = 4000
        active = sum(node_active(11, node_id, 0, 0.6)
                     for node_id in range(nodes))
        assert 0.55 < active / nodes < 0.65
        assert not any(node_active(11, node_id, 1, 0.0)
                       for node_id in range(100))
        assert all(node_active(11, node_id, 2, 1.0)
                   for node_id in range(100))

    def test_node_active_deterministic(self):
        first = [node_active(5, n, 2, 0.5) for n in range(200)]
        second = [node_active(5, n, 2, 0.5) for n in range(200)]
        assert first == second


class TestTournamentConfig:
    def test_defaults_valid(self):
        config = TournamentConfig()
        assert config.policies == TOURNAMENT_POLICIES

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TournamentConfig(nodes=0)
        with pytest.raises(ValueError):
            TournamentConfig(schedule="weekly")
        with pytest.raises(ValueError):
            TournamentConfig(shard_nodes=0)
        with pytest.raises(ValueError):
            TournamentConfig(policies=("best-shot",))
        with pytest.raises(ValueError):
            TournamentConfig(policies=("best-shot", "lru"))


class TestChurnModel:
    def test_planned_policies_never_migrate(self):
        activity = (True, False, True)
        for policy in ("best-shot", "static", "caption"):
            assert _churn_gib(policy, 8.0, activity) == 0.0

    def test_first_touch_fills_once_if_ever_active(self):
        assert _churn_gib("first-touch", 8.0, (False, True, True)) == \
            pytest.approx(8.0)
        assert _churn_gib("first-touch", 8.0, (False, False)) == 0.0

    def test_reactive_policies_pay_per_transition(self):
        single = _churn_gib("nbt", 10.0, (True,))
        double = _churn_gib("nbt", 10.0, (True, False, True))
        assert double == pytest.approx(2 * single)
        # NBT's scanning churns harder than Colloid's gated promotion.
        assert _churn_gib("nbt", 10.0, (True, False, True)) > \
            _churn_gib("colloid", 10.0, (True, False, True))


class TestNodeFractions:
    def test_static_caps_at_half(self):
        specs = [get_workload("605.mcf"), get_workload("xsbench")]
        total = sum(spec.footprint_gib for spec in specs)
        generous = _node_fractions("static", specs, 2.0 * total, {},
                                   None)
        assert generous == [0.5, 0.5]
        tight = _node_fractions("static", specs, 0.4 * total, {}, None)
        assert tight == [pytest.approx(0.4)] * 2

    def test_first_touch_fills_in_order(self):
        specs = [get_workload("605.mcf"), get_workload("xsbench")]
        capacity = specs[0].footprint_gib + 0.5 * specs[1].footprint_gib
        fractions = _node_fractions("first-touch", specs, capacity, {},
                                    None)
        assert fractions[0] == pytest.approx(1.0)
        assert fractions[1] == pytest.approx(0.5)

    def test_proportional_reactive_share(self):
        specs = [get_workload("605.mcf"), get_workload("xsbench")]
        total = sum(spec.footprint_gib for spec in specs)
        for policy in ("nbt", "colloid"):
            assert _node_fractions(policy, specs, 0.3 * total, {},
                                   None) == [pytest.approx(0.3)] * 2


@pytest.fixture(scope="module")
def small_report(skx_machine, skx_cxla_calibration):
    executor = Executor(jobs=1)
    config = TournamentConfig(
        nodes=24, seed=11, schedule="flat", shard_nodes=10,
        policies=("best-shot", "static", "nbt"), population_limit=16)
    return run_tournament(skx_machine, skx_cxla_calibration, executor,
                          config)


class TestTournament:
    def test_report_shape(self, small_report):
        assert small_report.schema == FLEET_SCHEMA
        assert len(small_report.policies) == 3
        assert sorted(s.rank for s in small_report.policies) == \
            [1, 2, 3]
        assert set(small_report.ranking) == {"best-shot", "static",
                                             "nbt"}
        assert small_report.config["nodes"] == 24

    def test_metrics_populated(self, small_report):
        for standing in small_report.policies:
            assert standing.slowdown["samples"] > 0
            assert standing.weighted_speedup > 0.0
            assert standing.migration_gib_per_node >= 0.0
            assert standing.stranded_gib_per_node >= 0.0
            assert 0.0 <= standing.stranded_fraction <= 1.0
            # 24 nodes over 10-node shards = 3 shards.
            assert standing.solver["shards"] == 3
            assert standing.solver["joint_nonconverged_shards"] == 0
        # Only the reactive policy migrates.
        assert small_report.standing("nbt").migration_gib_per_node > 0
        assert small_report.standing(
            "static").migration_gib_per_node == 0.0

    def test_ranking_follows_p99_then_churn(self, small_report):
        ordered = sorted(small_report.policies, key=lambda s: s.rank)
        keys = [(s.slowdown["p99"], s.migration_gib_per_node, s.policy)
                for s in ordered]
        assert keys == sorted(keys)

    def test_deterministic_rerun(self, small_report, skx_machine,
                                 skx_cxla_calibration):
        executor = Executor(jobs=1)
        config = TournamentConfig(
            nodes=24, seed=11, schedule="flat", shard_nodes=10,
            policies=("best-shot", "static", "nbt"),
            population_limit=16)
        again = run_tournament(skx_machine, skx_cxla_calibration,
                               executor, config)
        assert again.to_dict() == small_report.to_dict()

    def test_shard_size_does_not_change_the_answer(
            self, small_report, skx_machine, skx_cxla_calibration):
        # Each node's group leaves its shard's batch on its own
        # convergence, so which nodes share a shard moves no metric;
        # only the solver telemetry counts shards differently.
        config = TournamentConfig(
            nodes=24, seed=11, schedule="flat", shard_nodes=7,
            policies=("best-shot", "static", "nbt"),
            population_limit=16)
        resharded = run_tournament(skx_machine, skx_cxla_calibration,
                                   Executor(jobs=1), config).to_dict()
        original = small_report.to_dict()
        assert resharded["config"].pop("shard_nodes") == 7
        assert original["config"].pop("shard_nodes") == 10
        for report in (resharded, original):
            for row in report["policies"]:
                del row["solver"]
        assert resharded == original

    def test_json_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "FLEET_tournament.json"
        path.write_text(small_report.to_json())
        loaded = load_report(path)
        assert loaded.ranking == small_report.ranking
        assert loaded.to_dict() == json.loads(small_report.to_json())

    def test_from_dict_rejects_unknown_schema(self, small_report):
        payload = small_report.to_dict()
        payload["schema"] = "repro-fleet/999"
        with pytest.raises(ValueError):
            FleetReport.from_dict(payload)

    def test_render_lists_every_policy(self, small_report):
        rendered = small_report.render()
        for standing in small_report.policies:
            assert standing.policy in rendered


class TestStandingRoundtrip:
    def test_policy_standing_roundtrip(self):
        standing = PolicyStanding(
            policy="best-shot", rank=1,
            slowdown={"p50": 0.1, "p99": 0.4, "p999": 0.5, "max": 0.6,
                      "samples": 128.0},
            dropped_samples=0, weighted_speedup=1.7,
            migration_gib_per_node=0.0, stranded_gib_per_node=2.5,
            stranded_fraction=0.2, solver={"shards": 4})
        assert PolicyStanding.from_dict(standing.to_dict()) == standing
