"""The online prediction service: protocol, breaker, coalescer, server.

The degradation contract under test (docs/SERVE.md): every request
terminates in exactly one explicit outcome - solved, shed (429),
deadline-expired (504), draining (503), or bad-request (400) - and an
expired or shed query is never solved.  Store failures trip the
circuit breaker and degrade to solve-without-cache; accelerated
(2-15-lane) answers are never persisted to the byte-identity store,
while exact one-lane scalar and replay answers are.
"""

import asyncio
import json

import pytest

from repro.core.slowdown import SlowdownPredictor
from repro.runtime.errors import StoreError, TransientTaskError
from repro.runtime.executor import MIN_BATCH_GROUP
from repro.runtime.spec import RunSpec
from repro.runtime.store import ResultStore
from repro.serve import (CircuitBreaker, BreakerOpenError, SLOReport,
                         ServerThread)
from repro.serve.coalescer import QueryCoalescer
from repro.serve.loadgen import request_body, run_loadgen
from repro.serve.protocol import (DEFAULT_DEADLINE_MS, MAX_HEADER_LINES,
                                  ProtocolError, RunQuery,
                                  encode_http_request,
                                  parse_predict_request,
                                  read_http_request, read_http_response)
from repro.serve.slo import LatencyRecorder, percentile_ms
from repro.uarch import Placement
from repro.workloads import get_workload


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Protocol.
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_query_request(self):
        request = parse_predict_request({
            "kind": "query", "workload": "xsbench",
            "placement": {"dram_fraction": 0.5, "device": "cxl-a"},
            "deadline_ms": 500})
        assert request.kind == "query"
        assert request.deadline_ms == 500
        assert request.query.workload == "xsbench"
        assert request.query.placement["device"] == "cxl-a"

    def test_parse_signature_request(self):
        request = parse_predict_request({
            "kind": "signature",
            "counters": {"cycles": 1e9, "instructions": 8e8},
            "platform_family": "skx", "frequency_ghz": 2.1})
        assert request.kind == "signature"
        assert request.deadline_ms == DEFAULT_DEADLINE_MS
        assert request.signature.counters["cycles"] == 1e9

    @pytest.mark.parametrize("body", [
        [],
        {},
        {"kind": "nope"},
        {"kind": "query"},
        {"kind": "query", "workload": ""},
        {"kind": "query", "workload": "xsbench", "deadline_ms": -1},
        {"kind": "query", "workload": "xsbench", "placement": 7},
        {"kind": "query", "workload": "xsbench", "threads": 0},
        {"kind": "signature", "counters": {}},
        {"kind": "signature", "counters": {"cycles": 1},
         "platform_family": "skx", "frequency_ghz": 0},
    ])
    def test_malformed_bodies_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            parse_predict_request(body)

    def test_http_frame_roundtrip(self):
        async def roundtrip():
            frame = encode_http_request(
                "POST", "/v1/predict", {"kind": "query"})
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"HTTP/1.1 429 Too Many Requests\r\n"
                b"Content-Length: 17\r\n\r\n"
                b'{"status":"shed"}')
            reader.feed_eof()
            assert b"Content-Type: application/json" in frame
            return await read_http_response(reader)

        status, body = asyncio.run(roundtrip())
        assert status == 429
        assert body == {"status": "shed"}

    def test_header_flood_is_a_protocol_error(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"POST /v1/predict HTTP/1.1\r\n")
            for index in range(MAX_HEADER_LINES + 1):
                reader.feed_data(f"x-flood-{index}: v\r\n".encode())
            reader.feed_data(b"\r\n")
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_http_request(reader)

        asyncio.run(scenario())

    def test_overlong_header_line_is_a_protocol_error(self):
        # An over-limit readline raises ValueError inside asyncio;
        # the framing layer must convert it so the server answers 400
        # instead of dying with an unhandled connection-task error.
        async def scenario():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(b"POST /v1/predict HTTP/1.1\r\n")
            reader.feed_data(b"x-big: " + b"a" * 1024 + b"\r\n\r\n")
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await read_http_request(reader)

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Circuit breaker.
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.snapshot()["opens"] == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow()          # the probe
        assert not breaker.allow()      # everyone else waits
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.9)
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.state == "half-open"

    def test_call_converts_oserror_and_raises_when_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        with pytest.raises(StoreError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("io")))
        with pytest.raises(BreakerOpenError):
            breaker.call(lambda: "never reached")
        assert breaker.snapshot()["rejections"] == 1


# ---------------------------------------------------------------------------
# SLO accounting.
# ---------------------------------------------------------------------------

class TestSlo:
    def test_percentiles_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile_ms(samples, 0.50) in (50.0, 51.0)
        assert percentile_ms(samples, 0.99) == 99.0
        assert percentile_ms(samples, 1.0) == 100.0
        assert percentile_ms([], 0.99) == 0.0

    def test_recorder_only_ok_latencies_enter_percentiles(self):
        recorder = LatencyRecorder()
        recorder.record("ok", 10.0)
        recorder.record("shed", 99999.0)
        summary = recorder.latency_summary_ms()
        assert summary["max"] == 10.0
        assert recorder.counts() == {"ok": 1, "shed": 1}
        with pytest.raises(ValueError):
            recorder.record("mystery", 1.0)

    def test_reservoir_keeps_late_samples(self):
        # Regression: first-N truncation made a long run's p99 measure
        # the warm-up window only.  The seeded reservoir keeps a
        # uniform sample of the whole run.
        recorder = LatencyRecorder(max_samples=100, seed=7)
        for value in range(10_000):
            recorder.record("ok", float(value))
        assert recorder.dropped_samples == 9_900
        summary = recorder.latency_summary_ms()
        assert summary["samples"] == 100.0
        # Truncation would pin every percentile below 100.
        assert summary["p99"] > 5_000.0
        assert summary["max"] > 5_000.0

    def test_reservoir_unbiased_vs_truncation(self):
        # On a monotone ramp the retained median tracks the true
        # median; first-N truncation would sit at max_samples / 2.
        count = 20_000
        recorder = LatencyRecorder(max_samples=500, seed=1)
        for value in range(count):
            recorder.record("ok", float(value))
        median = recorder.latency_summary_ms()["p50"]
        assert abs(median - count / 2) < count * 0.15

    def test_reservoir_deterministic_under_seed(self):
        def fill(seed):
            recorder = LatencyRecorder(max_samples=50, seed=seed)
            for value in range(2_000):
                recorder.record("ok", float(value))
            return recorder.latency_summary_ms()

        assert fill(3) == fill(3)
        assert fill(3) != fill(4)

    def test_reservoir_below_capacity_keeps_everything(self):
        recorder = LatencyRecorder(max_samples=100, seed=0)
        for value in range(90):
            recorder.record("ok", float(value))
        assert recorder.dropped_samples == 0
        assert recorder.latency_summary_ms()["samples"] == 90.0

    def test_report_roundtrip_and_derived_rates(self):
        report = SLOReport(
            rate_rps=50.0, duration_s=2.0, sent=100,
            outcomes={"ok": 90, "shed": 8, "deadline": 2},
            latency_ms={"p50": 5.0, "p99": 20.0, "p999": 30.0,
                        "max": 31.0, "samples": 90.0},
            server={"lanes_solved": 30, "batches_solved": 10})
        assert report.shed_fraction == pytest.approx(0.08)
        assert report.coalesce_factor == pytest.approx(3.0)
        assert report.failure_count == 0
        clone = SLOReport.from_dict(json.loads(report.to_json()))
        assert clone.outcomes == report.outcomes
        assert "p99" in report.render()
        with pytest.raises(ValueError):
            SLOReport.from_dict({"schema": "elsewhere/9"})


# ---------------------------------------------------------------------------
# Coalescer.
# ---------------------------------------------------------------------------

def query(name="xsbench", placement=None):
    return RunQuery(workload=name, placement=placement)


class DeadStore:
    """A result store that is never reachable."""

    def get(self, key):
        raise StoreError("unreachable")

    def put(self, key, payload):
        raise StoreError("unreachable")


async def submit_and_wait(coalescer, queries, deadline_ms=5000.0):
    coalescer.start()
    futures = [coalescer.submit(q, deadline_ms) for q in queries]
    outcomes = await asyncio.gather(*futures)
    await coalescer.drain()
    return outcomes


#: Distinct workloads enough for one replay-mode (persisted) batch.
REPLAY_NAMES = ("xsbench", "gpt-2", "dlrm", "605.mcf", "557.xz",
                "619.lbm", "bc-kron", "pr-twitter", "redis-ycsb",
                "resnet50", "603.bwaves", "spark-terasort", "llama-7b",
                "wmt20", "integerSort", "suffixArray")


def one_window(machine, store, names=REPLAY_NAMES):
    """Queue ``names`` before the coalescer starts, so one coalescing
    window sees every lane; returns the coalescer and the outcomes."""
    async def scenario():
        coalescer = QueryCoalescer(machine, store, coalesce_window_ms=50.0)
        futures = [coalescer.submit(query(name), 30000.0)
                   for name in names]
        coalescer.start()
        outcomes = await asyncio.gather(*futures)
        await coalescer.drain()
        return coalescer, outcomes

    return asyncio.run(scenario())


class TestCoalescer:
    def test_full_queue_sheds_explicitly(self, skx_machine):
        async def scenario():
            # No batch task running: the queue can only fill.
            coalescer = QueryCoalescer(skx_machine, queue_bound=2,
                                       coalesce_window_ms=1.0)
            first = coalescer.submit(query(), 1000.0)
            second = coalescer.submit(query("gpt-2"), 1000.0)
            third = coalescer.submit(query("dlrm"), 1000.0)
            assert third.done()
            shed = third.result()
            assert shed.kind == "shed"
            assert shed.payload == {"queued": 2, "bound": 2}
            assert not first.done() and not second.done()
            coalescer.start()
            results = await asyncio.gather(first, second)
            await coalescer.drain()
            return results

        outcomes = asyncio.run(scenario())
        assert [outcome.kind for outcome in outcomes] == ["ok", "ok"]

    def test_identical_queries_share_one_lane(self, skx_machine):
        async def scenario():
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=50.0)
            outcomes = await submit_and_wait(
                coalescer, [query() for _ in range(5)])
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(scenario())
        assert all(outcome.kind == "ok" for outcome in outcomes)
        fingerprints = {outcome.payload["fingerprint"]
                        for outcome in outcomes}
        assert len(fingerprints) == 1
        assert coalescer.counters["coalesced_twins"] == 4
        assert coalescer.counters["lanes_solved"] == 1
        assert coalescer.counters["batches_solved"] == 1

    def test_expired_query_answered_never_solved(self, skx_machine):
        async def scenario():
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=1.0)
            # The deadline passes while the request sits queued
            # (the batch task is not running yet).
            future = coalescer.submit(query(), 0.001)
            await asyncio.sleep(0.01)
            coalescer.start()
            outcome = await future
            await coalescer.drain()
            return coalescer, outcome

        coalescer, outcome = asyncio.run(scenario())
        assert outcome.kind == "deadline"
        assert outcome.payload["waited_ms"] >= 0.001
        assert coalescer.counters["deadline_expired"] == 1
        assert coalescer.counters["batches_solved"] == 0

    def test_unknown_workload_is_a_bad_request_outcome(self,
                                                       skx_machine):
        # A client typo is a 400, not an internal fault: chaos and any
        # error==0 monitoring contract count only genuine bugs.
        async def scenario():
            coalescer = QueryCoalescer(skx_machine)
            return await coalescer.submit(query("no-such-load"), 1000.0)

        outcome = asyncio.run(scenario())
        assert outcome.kind == "bad_request"
        assert "no-such-load" in outcome.payload["error"]

    def test_small_batch_not_persisted_but_memoized(self, skx_machine,
                                                    tmp_path):
        store = ResultStore(tmp_path / "serve")
        pair = (query("xsbench"), query("gpt-2"))

        async def scenario():
            coalescer = QueryCoalescer(skx_machine, store,
                                       coalesce_window_ms=50.0)
            # Queued before the task starts: one two-lane window.
            first = [coalescer.submit(q, 5000.0) for q in pair]
            coalescer.start()
            outcomes = list(await asyncio.gather(*first))
            outcomes += await asyncio.gather(
                *[coalescer.submit(q, 5000.0) for q in pair])
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(scenario())
        assert [outcome.kind for outcome in outcomes] == ["ok"] * 4
        for outcome in outcomes:          # accelerated: memo only
            assert outcome.payload["fingerprint"] not in store
        assert coalescer.counters["batches_solved"] == 1
        assert coalescer.counters["lanes_solved"] == 2
        assert coalescer.counters["memo_hits"] == 2
        assert coalescer.counters["store_writes"] == 0

    def test_accelerated_answer_does_not_depend_on_earlier_batches(
            self, skx_machine):
        from repro.runtime import serde

        def mcf(fraction):
            return RunQuery(workload="605.mcf",
                            placement=serde.placement_to_dict(
                                Placement.interleaved(fraction, "cxl-a")))

        async def scenario(batches):
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=50.0)
            coalescer.start()
            answers = []
            for batch in batches:
                outcomes = await asyncio.gather(
                    *[coalescer.submit(q, 5000.0) for q in batch])
                answers.append([outcome.payload for outcome in outcomes])
            await coalescer.drain()
            return coalescer, answers

        later = (mcf(0.5), query("gpt-2"))
        seasoned, (_, answer) = asyncio.run(
            scenario([(mcf(0.3), query("xsbench")), later]))
        fresh, (fresh_answer,) = asyncio.run(scenario([later]))
        # Two two-lane (accelerated) batches, then one on a new service.
        assert seasoned.counters["batches_solved"] == 2
        assert seasoned.counters["lanes_solved"] == 4
        assert fresh.counters["lanes_solved"] == 2
        assert answer == fresh_answer

    def test_accelerated_answer_does_not_depend_on_its_batch_partner(
            self, skx_machine):
        from repro.runtime import serde

        mcf = RunQuery(workload="605.mcf",
                       placement=serde.placement_to_dict(
                           Placement.interleaved(0.5, "cxl-a")))

        async def scenario(partner):
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=50.0)
            coalescer.start()
            outcomes = await asyncio.gather(
                *[coalescer.submit(q, 5000.0) for q in (mcf, partner)])
            await coalescer.drain()
            return coalescer, outcomes[0].payload

        answers = []
        for partner in ("gpt-2", "xsbench", "619.lbm"):
            coalescer, answer = asyncio.run(scenario(query(partner)))
            # One two-lane (accelerated) batch per service.
            assert coalescer.counters["batches_solved"] == 1
            assert coalescer.counters["lanes_solved"] == 2
            answers.append(answer)
        assert answers[1] == answers[0]
        assert answers[2] == answers[0]

    def test_one_lane_answer_is_the_scalar_solve_and_persisted(
            self, skx_machine, tmp_path):
        from repro.runtime import serde
        placement = Placement.interleaved(0.5, "cxl-a")
        lone = RunQuery(workload="605.mcf",
                        placement=serde.placement_to_dict(placement))
        spec = RunSpec.from_machine(skx_machine, get_workload("605.mcf"),
                                    placement)
        direct = spec.execute()

        async def ask(store, times):
            coalescer = QueryCoalescer(skx_machine, store,
                                       coalesce_window_ms=1.0)
            coalescer.start()
            outcomes = [await coalescer.submit(lone, 5000.0)
                        for _ in range(times)]
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, (first, repeat) = asyncio.run(
            ask(ResultStore(tmp_path / "s"), 2))
        assert first.payload["result"] == serde.run_result_to_dict(direct)
        assert ResultStore(tmp_path / "s").get(spec.fingerprint()) == \
            serde.run_result_to_payload(direct)
        assert coalescer.counters["store_writes"] == 1
        # The repeat never reaches the store or the solver.
        assert repeat.payload == first.payload
        assert coalescer.counters["memo_hits"] == 1
        assert coalescer.counters["lanes_solved"] == 1

        # A fresh service on the same store answers from the store.
        fresh, (stored,) = asyncio.run(ask(ResultStore(tmp_path / "s"), 1))
        assert stored.payload == first.payload
        assert fresh.counters["store_hits"] == 1
        assert fresh.counters["lanes_solved"] == 0

    def test_one_lane_answers_are_memoized_while_the_store_is_down(
            self, skx_machine):
        async def scenario():
            coalescer = QueryCoalescer(skx_machine, DeadStore(),
                                       coalesce_window_ms=1.0)
            coalescer.start()
            outcomes = [await coalescer.submit(query(), 5000.0)
                        for _ in range(2)]
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(scenario())
        assert [outcome.kind for outcome in outcomes] == ["ok", "ok"]
        assert coalescer.counters["lanes_solved"] == 1
        assert coalescer.counters["memo_hits"] == 1

    def test_one_lane_answer_under_latency_faults_is_the_hooked_scalar(
            self, skx_machine):
        from repro.faults import FaultPlan, LatencyInjector, TierFault
        from repro.runtime import serde
        plan = FaultPlan(tier_faults=(TierFault("*", "spike", 1.0),))
        workload = get_workload("605.mcf")
        placement = Placement.slow_only("cxl-a")
        with LatencyInjector(plan) as injector:
            hooked = skx_machine.run(workload, placement)
        assert injector.injected == {"tier_spike": 1}

        async def scenario():
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=1.0)
            return await submit_and_wait(coalescer, [RunQuery(
                workload="605.mcf",
                placement=serde.placement_to_dict(placement))])

        with LatencyInjector(plan):
            (outcome,) = asyncio.run(scenario())
        assert outcome.payload["result"] == serde.run_result_to_dict(hooked)
        assert hooked.cycles != skx_machine.run(workload, placement).cycles

    def test_replay_batch_persists_machine_identical_results(
            self, skx_machine, tmp_path):
        store = ResultStore(tmp_path / "serve")
        names = REPLAY_NAMES
        assert len(names) >= MIN_BATCH_GROUP

        coalescer, outcomes = one_window(skx_machine, store)
        assert all(outcome.kind == "ok" for outcome in outcomes)
        assert coalescer.counters["batches_solved"] == 1
        assert coalescer.counters["store_writes"] == len(names)
        # Replay-mode lanes are bit-identical to scalar Machine.run:
        # what the store now holds must equal a direct execution's
        # stored payload.
        from repro.runtime import serde
        spec = RunSpec.from_machine(skx_machine, get_workload(names[0]),
                                    Placement.dram_only())
        direct = skx_machine.run(spec.workload, spec.placement)
        assert store.get(spec.fingerprint()) == \
            serde.run_result_to_payload(direct)

    def test_store_hits_answer_with_the_full_result(self, skx_machine,
                                                    tmp_path):
        from repro.runtime import serde
        first, _ = one_window(skx_machine, ResultStore(tmp_path / "s"))
        assert first.counters["store_writes"] == len(REPLAY_NAMES)
        # A fresh service on the same directory answers from the store
        # alone, with the same full answer a direct run serializes to.
        second, outcomes = one_window(skx_machine,
                                      ResultStore(tmp_path / "s"))
        assert second.counters["store_hits"] == len(REPLAY_NAMES)
        assert second.counters["batches_solved"] == 0
        for name, outcome in zip(REPLAY_NAMES, outcomes):
            assert outcome.kind == "ok"
            direct = skx_machine.run(get_workload(name),
                                     Placement.dram_only())
            assert outcome.payload["result"] == \
                serde.run_result_to_dict(direct)

    def test_store_failures_trip_breaker_and_degrade(self, skx_machine):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)

        async def scenario():
            coalescer = QueryCoalescer(
                skx_machine, DeadStore(), breaker=breaker,
                coalesce_window_ms=1.0)
            coalescer.start()
            outcomes = []
            for name in ("xsbench", "gpt-2", "dlrm"):
                outcomes.append(await coalescer.submit(query(name),
                                                       5000.0))
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(scenario())
        # Service degraded to solve-without-cache: all answered.
        assert [outcome.kind for outcome in outcomes] == ["ok"] * 3
        assert breaker.state == "open"
        assert coalescer.counters["store_errors"] >= 2

    def test_breaker_recovers_through_the_coalescer(self, skx_machine):
        # Regression: a pre-check allow() before breaker.call()
        # consumed the half-open probe slot, call()'s own check then
        # rejected, and _probe_inflight never reset - the breaker
        # stayed wedged and the store was never consulted again.  The
        # lookup path must complete the open -> half-open -> closed
        # cycle once the store recovers.
        class FlakyStore:
            def __init__(self):
                self.dead = True
                self.gets = 0

            def get(self, key):
                self.gets += 1
                if self.dead:
                    raise StoreError("unreachable")
                return None

            def put(self, key, payload):
                if self.dead:
                    raise StoreError("unreachable")

        clock = FakeClock()
        store = FlakyStore()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)

        async def scenario():
            coalescer = QueryCoalescer(
                skx_machine, store, breaker=breaker,
                coalesce_window_ms=1.0)
            coalescer.start()
            tripped = await coalescer.submit(query("xsbench"), 5000.0)
            assert breaker.state == "open"
            gets_while_open = store.gets
            rejected = await coalescer.submit(query("gpt-2"), 5000.0)
            assert store.gets == gets_while_open  # open: no traffic
            store.dead = False
            clock.advance(5.0)  # cooldown elapses -> half-open probe
            probed = await coalescer.submit(query("dlrm"), 5000.0)
            recovered = await coalescer.submit(query("557.xz"), 5000.0)
            await coalescer.drain()
            return tripped, rejected, probed, recovered

        outcomes = asyncio.run(scenario())
        assert [outcome.kind for outcome in outcomes] == ["ok"] * 4
        # The probe went through and closed the breaker for good.
        assert breaker.state == "closed"
        assert store.gets >= 3

    def test_transient_solve_fault_retried_attempt0_only(self,
                                                         skx_machine):
        attempts = []

        def hook(batch_index, attempt):
            attempts.append((batch_index, attempt))
            if attempt == 0:
                raise TransientTaskError("injected")

        async def scenario():
            coalescer = QueryCoalescer(skx_machine, solve_hook=hook,
                                       coalesce_window_ms=1.0)
            return coalescer, await submit_and_wait(coalescer, [query()])

        coalescer, outcomes = asyncio.run(scenario())
        assert outcomes[0].kind == "ok"
        assert attempts == [(1, 0), (1, 1)]
        assert coalescer.counters["solve_retries"] == 1

    def test_draining_refuses_new_work(self, skx_machine):
        async def scenario():
            coalescer = QueryCoalescer(skx_machine,
                                       coalesce_window_ms=1.0)
            coalescer.start()
            await coalescer.drain()
            return await coalescer.submit(query(), 1000.0)

        outcome = asyncio.run(scenario())
        assert outcome.kind == "draining"


# ---------------------------------------------------------------------------
# The live server.
# ---------------------------------------------------------------------------

async def _post(host, port, body, path="/v1/predict", method="POST"):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_http_request(method, path, body,
                                     keep_alive=False))
    await writer.drain()
    status, payload = await read_http_response(reader)
    writer.close()
    return status, payload


class TestPredictionServer:
    def test_query_shed_deadline_and_stats_roundtrip(self, skx_machine,
                                                     tmp_path):
        store = ResultStore(tmp_path / "serve")
        with ServerThread(skx_machine, store=store) as (host, port):
            async def scenario():
                ok = await _post(host, port, {
                    "kind": "query", "workload": "xsbench",
                    "placement": {"dram_fraction": 0.5,
                                  "device": "cxl-a"}})
                bad = await _post(host, port, {"kind": "query"})
                unknown = await _post(host, port, {
                    "kind": "query", "workload": "no-such-load"})
                expired = await _post(host, port, {
                    "kind": "query", "workload": "gpt-2",
                    "deadline_ms": 0.001})
                missing = await _post(host, port, {}, path="/nowhere",
                                      method="GET")
                health = await _post(host, port, None, path="/healthz",
                                     method="GET")
                stats = await _post(host, port, None, path="/stats",
                                    method="GET")
                return ok, bad, unknown, expired, missing, health, stats

            (ok, bad, unknown, expired, missing, health,
             stats) = asyncio.run(scenario())
        assert ok == (200, ok[1])
        assert ok[1]["status"] == "ok"
        assert ok[1]["result"]["converged"] is True
        assert bad[0] == 400 and bad[1]["status"] == "bad_request"
        assert unknown[0] == 400
        assert unknown[1]["status"] == "bad_request"
        assert expired[0] == 504 and expired[1]["status"] == "deadline"
        assert missing[0] == 404
        assert health == (200, {"status": "ok"})
        assert stats[0] == 200
        assert stats[1]["stats"]["admitted"] >= 2

    def test_signature_request_answered_inline(self, skx_machine,
                                               skx_cxla_calibration):
        predictor = SlowdownPredictor(skx_cxla_calibration)
        profile = skx_machine.profile(get_workload("xsbench"))
        counters = {counter.value: value
                    for counter, value in profile.sample.items()}
        with ServerThread(skx_machine,
                          predictor=predictor) as (host, port):
            status, payload = asyncio.run(_post(host, port, {
                "kind": "signature", "counters": counters,
                "platform_family": profile.platform_family,
                "frequency_ghz": profile.frequency_ghz}))
        assert status == 200
        assert payload["status"] == "ok"
        expected = predictor.predict(profile)
        assert payload["prediction"]["total"] == pytest.approx(
            expected.total)
        assert payload["degraded"] is False

    def test_signature_without_calibration_is_bad_request(
            self, skx_machine):
        with ServerThread(skx_machine) as (host, port):
            status, payload = asyncio.run(_post(host, port, {
                "kind": "signature", "counters": {"cycles": 1e9},
                "platform_family": "skx", "frequency_ghz": 2.1}))
        assert status == 400
        assert "calibration" in payload["error"]

    def test_malformed_http_framing_gets_400_not_a_hang(
            self, skx_machine):
        with ServerThread(skx_machine) as (host, port):
            async def scenario():
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"NOT-EVEN-HTTP\r\n\r\n")
                await writer.drain()
                status, payload = await read_http_response(reader)
                writer.close()
                return status, payload

            status, payload = asyncio.run(scenario())
        assert status == 400
        assert payload["status"] == "bad_request"

    def test_loadgen_reports_all_requests_and_coalescing(
            self, skx_machine):
        with ServerThread(skx_machine) as (host, port):
            report = asyncio.run(run_loadgen(
                host, port, rate_rps=40.0, duration_s=1.5,
                deadline_ms=30000.0, seed=7))
        assert report.sent == 60
        assert sum(report.outcomes.values()) == report.sent
        assert report.failure_count == 0
        assert report.outcomes.get("transport_error", 0) == 0
        assert report.latency_ms["samples"] == report.ok
        # Server-side counters made it into the report.
        assert report.server["batches_solved"] >= 1

    def test_drain_leaves_nothing_queued(self, skx_machine):
        thread = ServerThread(skx_machine)
        host, port = thread.start()
        asyncio.run(_post(host, port, {"kind": "query",
                                       "workload": "xsbench"}))
        thread.stop()
        stats = thread.stats()
        assert stats["draining"] is True
        assert stats["queued"] == 0

    def test_deterministic_request_mix(self):
        first = [request_body(i, seed=3) for i in range(20)]
        second = [request_body(i, seed=3) for i in range(20)]
        assert first == second
        assert any(body != first[0] for body in first)


class TestLoadgenRobustness:
    def test_unexpected_fire_exception_survives(self, monkeypatch):
        # Regression: the final gather ran without return_exceptions,
        # so one exception outside fire()'s caught set destroyed the
        # whole report after the full run duration.  Every request must
        # still be accounted for, as transport_error.
        async def boom(self, body):
            raise RuntimeError("injected fault outside the caught set")

        monkeypatch.setattr("repro.serve.loadgen._Connection.request",
                            boom)
        report = asyncio.run(run_loadgen(
            "127.0.0.1", 1, rate_rps=200.0, duration_s=0.05,
            stats_probe=False))
        assert report.sent == 10
        assert report.outcomes.get("transport_error", 0) == report.sent
        assert sum(report.outcomes.values()) == report.sent
        assert report.failure_count == report.sent

    def test_cancellation_still_propagates(self, monkeypatch):
        # BaseExceptions that are not Exceptions (CancelledError) must
        # not be swallowed into the report.
        async def cancelled(self, body):
            raise asyncio.CancelledError()

        monkeypatch.setattr("repro.serve.loadgen._Connection.request",
                            cancelled)
        with pytest.raises(asyncio.CancelledError):
            asyncio.run(run_loadgen(
                "127.0.0.1", 1, rate_rps=200.0, duration_s=0.02,
                stats_probe=False))
