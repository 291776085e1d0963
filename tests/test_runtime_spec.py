"""Cache-key properties of :mod:`repro.runtime.spec`.

The contract docs/RUNTIME.md promises: equal specs produce equal keys
(across independently-built objects), and *any* field change produces a
different key — there is no input to a simulated run that the key
ignores.
"""

import dataclasses
import json
import math

import pytest

from repro.runtime import serde
from repro.runtime.spec import (CalibrationSpec, RunSpec, canonical_json,
                                code_version, fingerprint)
from repro.uarch import CXL_A, EMR2S, Machine, Placement, SKX2S, SPR2S
from repro.uarch.config import DEVICES
from repro.workloads import get_workload
from repro.workloads.suites import evaluation_suite


def spec_for(machine=None, name="605.mcf", placement=None) -> RunSpec:
    machine = machine or Machine(SKX2S)
    placement = placement or Placement.slow_only("cxl-a")
    return RunSpec.from_machine(machine, get_workload(name), placement)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1.5], "a": "x"}) == \
            '{"a":"x","b":[1.5]}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_fingerprint_is_sha256_hex(self):
        key = fingerprint({"x": 1})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestSameSpecSameKey:
    def test_independent_constructions_agree(self):
        # Two machines built from scratch, same parameters.
        assert spec_for(Machine(SKX2S)).fingerprint() == \
            spec_for(Machine(SKX2S)).fingerprint()

    def test_default_placement_is_dram_only(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        explicit = RunSpec.from_machine(machine, workload,
                                        Placement.dram_only())
        implicit = RunSpec.from_machine(machine, workload)
        assert explicit.fingerprint() == implicit.fingerprint()

    def test_calibration_spec_agrees(self):
        key_a = CalibrationSpec.from_machine(Machine(SKX2S),
                                             "cxl-a").fingerprint()
        key_b = CalibrationSpec.from_machine(Machine(SKX2S),
                                             "cxl-a").fingerprint()
        assert key_a == key_b


class TestAnyChangeChangesKey:
    def test_workload_name(self):
        assert spec_for(name="605.mcf").fingerprint() != \
            spec_for(name="557.xz").fingerprint()

    def test_workload_threads(self):
        machine = Machine(SKX2S)
        base = get_workload("603.bwaves")
        a = RunSpec.from_machine(machine, base)
        b = RunSpec.from_machine(machine, base.with_threads(10))
        assert a.fingerprint() != b.fingerprint()

    def test_every_workload_field_is_hashed(self):
        # Nudge each numeric field of the WorkloadSpec in turn; every
        # nudge must move the key.
        machine = Machine(SKX2S)
        base = get_workload("605.mcf")
        base_key = RunSpec.from_machine(machine, base).fingerprint()
        changed = 0
        for field in dataclasses.fields(base):
            value = getattr(base, field.name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            # Some fields are unit-bounded or integral; try candidate
            # nudges until one yields a valid, different spec.
            for candidate in (value + 1, value * 0.5,
                              value * 0.5 + 0.01, value + 0.001):
                if candidate == value:
                    continue
                try:
                    mutated = dataclasses.replace(
                        base, **{field.name: type(value)(candidate)})
                except (ValueError, TypeError):
                    continue
                if getattr(mutated, field.name) == value:
                    continue
                key = RunSpec.from_machine(machine,
                                           mutated).fingerprint()
                assert key != base_key, field.name
                changed += 1
                break
        assert changed > 10   # the characterization really is covered

    def test_placement(self):
        assert spec_for(placement=Placement.dram_only()).fingerprint() \
            != spec_for(placement=Placement.slow_only("cxl-a")
                        ).fingerprint()
        assert spec_for(
            placement=Placement.interleaved(0.5, "cxl-a")).fingerprint() \
            != spec_for(
                placement=Placement.interleaved(0.6, "cxl-a")
            ).fingerprint()

    def test_device(self):
        assert spec_for(placement=Placement.slow_only("cxl-a")
                        ).fingerprint() != \
            spec_for(placement=Placement.slow_only("cxl-b")).fingerprint()

    def test_platform(self):
        assert spec_for(Machine(SKX2S)).fingerprint() != \
            spec_for(Machine(SPR2S)).fingerprint()

    def test_noise_and_seed(self):
        base = spec_for(Machine(SKX2S)).fingerprint()
        assert spec_for(Machine(SKX2S, noise=0.0)).fingerprint() != base
        assert spec_for(Machine(SKX2S, seed=7)).fingerprint() != base

    def test_custom_device_registry_same_name(self):
        # Same device *name*, different underlying config: the key must
        # follow the config the machine would actually use.
        tweaked = dataclasses.replace(
            CXL_A, idle_latency_ns=CXL_A.idle_latency_ns + 25.0)
        stock = spec_for(Machine(SKX2S))
        custom = spec_for(Machine(SKX2S, devices={"cxl-a": tweaked}))
        assert stock.fingerprint() != custom.fingerprint()

    def test_code_version_is_hashed(self, monkeypatch):
        spec = spec_for()
        before = spec.fingerprint()
        monkeypatch.setattr("repro.runtime.spec.CACHE_SCHEMA_VERSION",
                            999)
        assert code_version().endswith("schema999")
        assert spec.fingerprint() != before

    def test_calibration_benchmarks_are_hashed(self):
        machine = Machine(SKX2S)
        full = CalibrationSpec.from_machine(machine, "cxl-a")
        trimmed = CalibrationSpec.from_machine(
            machine, "cxl-a", benchmarks=full.benchmarks[:-1])
        assert full.fingerprint() != trimmed.fingerprint()

    def test_run_and_calibration_kinds_never_collide(self):
        # Same machine/device material under the two kinds.
        run_keys = {spec_for().fingerprint()}
        cal_keys = {CalibrationSpec.from_machine(
            Machine(SKX2S), "cxl-a").fingerprint()}
        assert run_keys.isdisjoint(cal_keys)


def population_specs():
    """The suite population over every device, plus a second machine.

    ``evaluation_suite(2026)`` x {DRAM, slow-only and 50:50 on each
    device, one hotness-biased placement} x SKX/SPR/EMR, and SKX again
    with noise 0 and seed 3.
    """
    placements = [Placement.dram_only(),
                  Placement(dram_fraction=0.3, device="cxl-b",
                            hotness_bias=0.4)]
    for device in DEVICES:
        placements += [Placement.slow_only(device),
                       Placement.interleaved(0.5, device)]
    machines = [Machine(SKX2S), Machine(SPR2S), Machine(EMR2S),
                Machine(SKX2S, noise=0.0, seed=3)]
    return [RunSpec.from_machine(machine, workload, placement)
            for machine in machines
            for workload in evaluation_suite(2026)
            for placement in placements]


class TestFragmentKeys:
    """``RunSpec.fingerprint`` splices per-object fragments; it must
    still hash exactly ``canonical_json(key_material())``."""

    def test_one_memo_over_the_population_matches_the_recipe(self):
        specs = population_specs()
        assert len(specs) == 265 * 10 * 4
        fragments = {}
        for spec in specs:
            assert spec.fingerprint(fragments) == \
                fingerprint(spec.key_material())

    def test_equal_but_differently_serialized_objects_keep_their_keys(
            self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        as_int = dataclasses.replace(
            workload, instructions=int(workload.instructions))
        as_float = dataclasses.replace(
            workload, instructions=float(workload.instructions))
        positive = Placement(dram_fraction=0.0, device="cxl-a")
        negative = Placement(dram_fraction=-0.0, device="cxl-a")
        assert as_int == as_float and positive == negative
        pairs = [
            (RunSpec.from_machine(machine, as_int),
             RunSpec.from_machine(machine, as_float)),
            (RunSpec.from_machine(machine, workload, positive),
             RunSpec.from_machine(machine, workload, negative)),
        ]
        fragments = {}
        for first, second in pairs:
            keys = (first.fingerprint(fragments),
                    second.fingerprint(fragments))
            assert keys == (fingerprint(first.key_material()),
                            fingerprint(second.key_material()))
            assert keys == (first.fingerprint(), second.fingerprint())
            assert keys[0] != keys[1]


class TestSpecExecution:
    def test_rebuilt_machine_reproduces_run(self):
        machine = Machine(SKX2S)
        workload = get_workload("605.mcf")
        placement = Placement.slow_only("cxl-a")
        direct = machine.run(workload, placement)
        via_spec = RunSpec.from_machine(machine, workload,
                                        placement).execute()
        assert via_spec.cycles == direct.cycles
        assert via_spec.counters.as_dict() == direct.counters.as_dict()

    def test_serde_round_trip_is_bit_exact(self):
        spec = spec_for()
        result = spec.execute()
        payload = serde.run_result_to_payload(result)
        # Through a JSON text round trip: floats must survive decimal.
        decoded = serde.run_result_from_dict(
            json.loads(json.dumps(payload)), spec)
        assert decoded.workload is spec.workload
        assert decoded.cycles == result.cycles
        assert decoded.counters.as_dict() == result.counters.as_dict()
        assert decoded.profiled().sample.as_dict() == \
            result.profiled().sample.as_dict()

    def test_full_dict_matches_asdict_and_shares_no_dicts(self):
        # run_result_to_dict reads the config objects' fields directly;
        # its output must stay what dataclasses.asdict gave, key for
        # key and type for type, with fresh containers on every call.
        result = spec_for().execute()

        def reference(result):
            workload = dataclasses.asdict(result.workload)
            workload["tags"] = list(result.workload.tags)
            data = {"workload": workload,
                    "placement": dataclasses.asdict(result.placement),
                    "platform": dataclasses.asdict(result.platform)}
            data.update(serde.run_result_to_payload(result))
            return data

        def shape(value):
            if isinstance(value, dict):
                return [(key, shape(item)) for key, item in value.items()]
            if isinstance(value, list):
                return [shape(item) for item in value]
            return type(value), value

        first = serde.run_result_to_dict(result)
        assert shape(first) == shape(reference(result))
        second = serde.run_result_to_dict(result)
        for outer in ("workload", "placement", "platform"):
            assert first[outer] is not second[outer]
        assert first["platform"]["dram"] is not second["platform"]["dram"]
        assert first["workload"]["tags"] is not second["workload"]["tags"]
