"""The executor: fan-out, retries, timeouts, breakers, partial results."""

import dataclasses
import gc
import threading
import time

import pytest

from repro.errors import BackendError, FederationError
from repro.federation import FederationEngine
from repro.federation.executor import ExecutionPolicy, FederationExecutor
from repro.federation.health import BreakerState, CircuitBreaker
from repro.federation.planner import QueryPlanner
from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_request


class StubBackend:
    """A scriptable backend: optional sleep, optional leading failures."""

    def __init__(self, name, rows=((1,),), fail=0, sleep=0.0):
        self.name = name
        self.rows = [tuple(row) for row in rows]
        self.fail = fail
        self.sleep = sleep
        self.calls = 0

    def execute(self, request):
        self.calls += 1
        if self.sleep:
            time.sleep(self.sleep)
        if self.calls <= self.fail:
            raise BackendError(f"scripted fault on {self.name}")
        return list(self.rows)


class BarrierBackend:
    """Answers only once every leg sharing ``barrier`` waits at it, so a
    leg queued behind another breaks the barrier and fails."""

    def __init__(self, name, barrier):
        self.name = name
        self.barrier = barrier

    def execute(self, request):
        self.barrier.wait()
        return [(1,)]


@pytest.fixture
def plan(mappings, paper_result, object_network):
    planner = QueryPlanner(
        mappings, paper_result.schema, object_network=object_network
    )
    return planner.plan(parse_request("select D_Name from Student"))


def quick_policy(**overrides):
    options = dict(retries=2, backoff=0.001, backoff_multiplier=1.0)
    options.update(overrides)
    return ExecutionPolicy(**options)


class TestFanOut:
    def test_rows_align_with_plan_legs(self, plan):
        executor = FederationExecutor(
            {
                "sc1": StubBackend("sc1", rows=[("a",)]),
                "sc2": StubBackend("sc2", rows=[("b",)]),
            },
            quick_policy(),
        )
        result = executor.execute(plan)
        assert result.leg_rows == [[("a",)], [("b",)]]
        assert result.health.ok
        assert all(s.attempts == 1 for s in result.health.statuses)

    def test_sequential_mode_matches_concurrent(self, plan):
        backends = {
            "sc1": StubBackend("sc1", rows=[("a",)]),
            "sc2": StubBackend("sc2", rows=[("b",)]),
        }
        concurrent = FederationExecutor(backends, quick_policy()).execute(plan)
        sequential = FederationExecutor(
            backends, quick_policy(sequential=True)
        ).execute(plan)
        assert sequential.leg_rows == concurrent.leg_rows
        assert sequential.health.ok

    def test_missing_backend_is_skipped_not_fatal(self, plan):
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1")}, quick_policy()
        )
        result = executor.execute(plan)
        status = result.health.for_component("sc2")
        assert status.skipped and not status.ok
        assert "no backend registered" in status.error
        assert result.health.degraded


class TestRetries:
    def test_transient_fault_absorbed(self, plan):
        metrics = MetricsRegistry()
        flaky = StubBackend("sc2", fail=1)
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": flaky},
            quick_policy(),
            metrics=metrics,
        )
        result = executor.execute(plan)
        assert result.health.ok
        assert result.health.for_component("sc2").attempts == 2
        assert metrics.counter("federation.retries").value == 1

    def test_exhausted_retries_degrade(self, plan):
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": StubBackend("sc2", fail=99)},
            quick_policy(retries=1),
        )
        result = executor.execute(plan)
        assert result.health.degraded
        status = result.health.for_component("sc2")
        assert not status.ok and status.attempts == 2
        assert "BackendError" in status.error
        assert result.leg_rows[1] is None

    def test_strict_mode_raises_with_health(self, plan):
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": StubBackend("sc2", fail=99)},
            quick_policy(retries=0, partial_results=False),
        )
        with pytest.raises(FederationError) as err:
            executor.execute(plan)
        assert err.value.health is not None
        assert not err.value.health.for_component("sc2").ok


class TestTimeouts:
    def test_slow_leg_times_out(self, plan):
        executor = FederationExecutor(
            {
                "sc1": StubBackend("sc1"),
                "sc2": StubBackend("sc2", sleep=0.5),
            },
            quick_policy(retries=0, timeout=0.05),
        )
        result = executor.execute(plan)
        status = result.health.for_component("sc2")
        assert status.timed_out and not status.ok
        assert result.health.for_component("sc1").ok
        assert result.leg_rows[1] is None

    def test_timeout_bounds_the_query(self, plan):
        executor = FederationExecutor(
            {
                "sc1": StubBackend("sc1"),
                "sc2": StubBackend("sc2", sleep=0.5),
            },
            quick_policy(retries=0, timeout=0.05),
        )
        start = time.perf_counter()
        executor.execute(plan)
        assert time.perf_counter() - start < 0.25

    def test_hung_worker_does_not_starve_the_next_query(self, plan):
        hung_once = StubBackend("sc2", sleep=0.5)
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": hung_once},
            quick_policy(retries=0, timeout=0.05, max_workers=1),
        )
        executor.execute(plan)
        hung_once.sleep = 0.0
        start = time.perf_counter()
        result = executor.execute(plan)
        assert time.perf_counter() - start < 0.25
        assert result.health.ok


class TestLegThreads:
    """Every leg in flight gets a thread, as with a pool per query."""

    def test_more_legs_than_backends_run_together(self, plan):
        # one leg per target x local object: a component can get two legs
        doubled = dataclasses.replace(plan, legs=plan.legs * 2)
        barrier = threading.Barrier(len(doubled.legs), timeout=2.0)
        executor = FederationExecutor(
            {name: BarrierBackend(name, barrier) for name in ("sc1", "sc2")},
            quick_policy(retries=0),
        )
        for _ in range(3):  # the grown pool keeps serving
            barrier.reset()
            assert executor.execute(doubled).health.ok

    def test_concurrent_callers_do_not_queue_behind_each_other(self, plan):
        callers = 2
        barrier = threading.Barrier(callers * len(plan.legs), timeout=2.0)
        executor = FederationExecutor(
            {name: BarrierBackend(name, barrier) for name in ("sc1", "sc2")},
            quick_policy(retries=0),
        )
        results = []

        def query():
            results.append(executor.execute(plan))

        threads = [threading.Thread(target=query) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == callers
        assert all(result.health.ok for result in results)


class TestPoolLifecycle:
    def test_one_pool_serves_every_query(self, engine):
        start = threading.active_count()
        ceiling = start + len(engine.executor.backends)
        peak = start
        for _ in range(200):
            assert engine.query("select D_Name from Student").ok
            peak = max(peak, threading.active_count())
        assert peak <= ceiling

    def test_dropped_engine_releases_its_threads(
        self, mappings, stores, paper_result, object_network
    ):
        before = set(threading.enumerate())
        engine = FederationEngine.for_stores(
            mappings,
            stores,
            paper_result.schema,
            object_network=object_network,
        )
        engine.query("select D_Name from Student")
        workers = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("federation")
        ]
        assert workers
        del engine
        gc.collect()
        for thread in workers:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in workers)


class TestBreakers:
    def test_opens_after_threshold_and_skips(self, plan):
        dead = StubBackend("sc2", fail=10 ** 6)
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": dead},
            quick_policy(retries=0, failure_threshold=1),
        )
        executor.execute(plan)
        assert executor.breaker_for("sc2").state is BreakerState.OPEN
        calls_before = dead.calls
        result = executor.execute(plan)
        assert dead.calls == calls_before  # breaker short-circuited the call
        status = result.health.for_component("sc2")
        assert status.skipped and "circuit breaker open" in status.error

    def test_success_resets_consecutive_failures(self, plan):
        recovering = StubBackend("sc2", fail=1)
        executor = FederationExecutor(
            {"sc1": StubBackend("sc1"), "sc2": recovering},
            quick_policy(retries=2, failure_threshold=2),
        )
        executor.execute(plan)
        breaker = executor.breaker_for("sc2")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0


class TestCircuitBreakerUnit:
    def test_cooldown_half_open_probe_cycle(self):
        now = [0.0]
        breaker = CircuitBreaker(2, 10.0, clock=lambda: now[0])
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.allows()  # one failure is below the threshold
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN and not breaker.allows()
        now[0] = 10.0
        assert breaker.state is BreakerState.HALF_OPEN and breaker.allows()
        breaker.record_failure()  # the probe fails: re-open
        assert breaker.state is BreakerState.OPEN
        now[0] = 25.0
        assert breaker.allows()
        breaker.record_success()  # the probe succeeds: close
        assert breaker.state is BreakerState.CLOSED

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)
