"""Concurrent fan-out of a federated plan over the component backends.

The executor sends every plan leg to its component backend **in
parallel** (a ``ThreadPoolExecutor``; remote components spend their time
in I/O waits, which Python threads overlap).  One pool serves the
executor for its lifetime: it is created on the first concurrent query
and its threads exit once the executor is garbage-collected.  Unless
``policy.max_workers`` caps it, every leg in flight gets a thread of its
own: the pool holds at least one thread per backend and is replaced by a
larger one when a query (or queries running side by side) would have
more legs in flight than that.  Threads start on demand and idle ones
are reused, so a steady stream of queries keeps the same threads.
Around each leg:

* a **retry loop** with bounded exponential backoff absorbs transient
  faults (``policy.retries`` retries, delay starting at
  ``policy.backoff`` and multiplying by ``policy.backoff_multiplier``);
* a **per-component timeout** (``policy.timeout``, measured from the
  start of the fan-out) abandons legs that will not answer in time.  The
  query returns at the deadline; the pool holding the abandoned worker
  is retired (``shutdown(wait=False)``, queued legs of concurrent
  queries still run) and the next query gets a fresh pool, so a hung
  component cannot starve later queries of threads; and
* a per-backend **circuit breaker** skips components that have failed
  ``policy.failure_threshold`` consecutive queries until
  ``policy.breaker_reset`` seconds pass (see
  :mod:`repro.federation.health`).

In **partial-result mode** (the default) a failed, skipped or timed-out
leg does not fail the query: the executor returns whatever the live
components answered, together with a :class:`FederationHealth` report
saying exactly what happened per component.  With
``policy.partial_results=False`` any failed leg raises
:class:`~repro.errors.FederationError` carrying the same report.

Threading discipline: worker threads only call ``backend.execute`` and
sleep between retries, capturing ``perf_counter`` timestamps; all
breaker updates, metrics and span recording happen on the calling
thread after collection (the tracer is single-threaded by design — the
workers' timings become ``federation.component`` spans via
:meth:`repro.obs.trace.Tracer.record_span`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import FederationError
from repro.federation.backends import ComponentBackend
from repro.federation.health import (
    CircuitBreaker,
    ComponentStatus,
    FederationHealth,
)
from repro.federation.plan import FederatedPlan
from repro.obs.trace import record_span, span

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry
    from repro.query.rewrite import ComponentRequest


@dataclass
class ExecutionPolicy:
    """Knobs for fault tolerance and concurrency."""

    #: per-component wall-clock budget, measured from fan-out start
    timeout: float = 5.0
    #: retries after the first attempt (0 = fail fast)
    retries: int = 2
    #: initial backoff delay between attempts, in seconds
    backoff: float = 0.05
    #: backoff growth factor per retry
    backoff_multiplier: float = 2.0
    #: consecutive failures that open a component's breaker
    failure_threshold: int = 3
    #: seconds an open breaker waits before admitting a probe
    breaker_reset: float = 30.0
    #: return live components' answers instead of raising on failure
    partial_results: bool = True
    #: cap on the executor's thread pool, shared by every query it runs
    #: (``None``: no cap, one thread for every leg in flight)
    max_workers: int | None = None
    #: run legs one after another on the calling thread (the baseline
    #: the benchmark compares the fan-out against)
    sequential: bool = False


@dataclass
class _LegRun:
    """What one worker observed executing one leg."""

    rows: list[tuple] | None = None
    attempts: int = 0
    error: str = ""
    start: float = 0.0
    end: float = 0.0
    #: OS thread id of the worker that ran the leg (Chrome-trace ``tid``)
    thread_id: int | None = None


@dataclass
class ExecutionResult:
    """Per-leg rows (aligned with the plan's legs) plus the health report."""

    leg_rows: list[list[tuple] | None]
    health: FederationHealth = field(default_factory=FederationHealth)


class FederationExecutor:
    """Executes federated plans against named component backends."""

    def __init__(
        self,
        backends: dict[str, ComponentBackend],
        policy: ExecutionPolicy | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.backends = dict(backends)
        self.policy = policy or ExecutionPolicy()
        self.metrics = metrics
        self._breakers: dict[str, CircuitBreaker] = {}
        #: the lazily created leg pool and its size; these and
        #: ``_in_flight`` change only under the lock
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        #: legs submitted by queries that have not collected them yet
        self._in_flight = 0
        self._pool_lock = threading.Lock()

    def breaker_for(self, component: str) -> CircuitBreaker:
        breaker = self._breakers.get(component)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.failure_threshold, self.policy.breaker_reset
            )
            self._breakers[component] = breaker
        return breaker

    # -- execution ---------------------------------------------------------------

    def execute(self, plan: FederatedPlan) -> ExecutionResult:
        """Run every leg; never raises in partial-result mode."""
        with span(
            "federation.fanout",
            legs=len(plan.legs),
            mode="sequential" if self.policy.sequential else "concurrent",
        ):
            result = self._execute_legs(plan)
        if not self.policy.partial_results and not result.health.ok:
            raise FederationError(
                f"federated query failed: {result.health.summary()}",
                health=result.health,
            )
        return result

    def _execute_legs(self, plan: FederatedPlan) -> ExecutionResult:
        policy = self.policy
        admitted: list[tuple[int, "ComponentRequest", ComponentBackend]] = []
        statuses: list[ComponentStatus | None] = [None] * len(plan.legs)
        for index, leg in enumerate(plan.legs):
            backend = self.backends.get(leg.schema)
            if backend is None:
                statuses[index] = ComponentStatus(
                    component=leg.schema,
                    backend="",
                    ok=False,
                    skipped=True,
                    error=f"no backend registered for {leg.schema!r}",
                )
                self._count("federation.skipped")
                continue
            breaker = self.breaker_for(leg.schema)
            if not breaker.allows():
                statuses[index] = ComponentStatus(
                    component=leg.schema,
                    backend=backend.name,
                    ok=False,
                    skipped=True,
                    breaker=str(breaker.state),
                    error="circuit breaker open",
                )
                self._count("federation.breaker.skipped")
                continue
            admitted.append((index, leg, backend))

        fanout_start = time.perf_counter()
        runs: dict[int, _LegRun] = {}
        timed_out: set[int] = set()
        if policy.sequential:
            for index, leg, backend in admitted:
                runs[index] = self._run_leg(backend, leg, policy)
        elif admitted:
            with self._pool_lock:
                self._in_flight += len(admitted)
                pool = self._leg_pool()
                futures: dict[int, Future] = {
                    index: pool.submit(self._run_leg, backend, leg, policy)
                    for index, leg, backend in admitted
                }
            deadline = fanout_start + policy.timeout
            try:
                for index, future in futures.items():
                    remaining = deadline - time.perf_counter()
                    try:
                        runs[index] = future.result(max(0.0, remaining))
                    except TimeoutError:
                        timed_out.add(index)
                        future.cancel()  # abandon; the worker may linger
            finally:
                with self._pool_lock:
                    self._in_flight -= len(admitted)
                    if timed_out:
                        self._retire_pool(pool)

        leg_rows: list[list[tuple] | None] = [None] * len(plan.legs)
        for index, leg, backend in admitted:
            breaker = self.breaker_for(leg.schema)
            if index in timed_out:
                breaker.record_failure()
                statuses[index] = ComponentStatus(
                    component=leg.schema,
                    backend=backend.name,
                    ok=False,
                    timed_out=True,
                    latency_s=policy.timeout,
                    breaker=str(breaker.state),
                    error=f"timed out after {policy.timeout:.1f}s",
                )
                self._count("federation.timeout")
                continue
            run = runs[index]
            ok = run.rows is not None
            if ok:
                breaker.record_success()
                self._count("federation.leg.ok")
            else:
                breaker.record_failure()
                self._count("federation.leg.failed")
            if run.attempts > 1:
                self._count("federation.retries", run.attempts - 1)
            latency = run.end - run.start
            self._observe_latency(leg.schema, latency)
            record_span(
                "federation.component",
                run.start,
                run.end,
                thread_id=run.thread_id,
                component=leg.schema,
                backend=backend.name,
                attempts=run.attempts,
                ok=ok,
                rows=len(run.rows) if ok else 0,
            )
            leg_rows[index] = run.rows
            statuses[index] = ComponentStatus(
                component=leg.schema,
                backend=backend.name,
                ok=ok,
                rows=len(run.rows) if ok else 0,
                attempts=run.attempts,
                latency_s=latency,
                error=run.error,
                breaker=str(breaker.state),
            )
        health = FederationHealth(
            [status for status in statuses if status is not None]
        )
        return ExecutionResult(leg_rows=leg_rows, health=health)

    def _leg_pool(self) -> ThreadPoolExecutor:
        """A pool with a thread for every leg in flight; call under the lock.

        The live pool is replaced by a larger one when ``_in_flight``
        outgrows it (unless ``policy.max_workers`` caps the size).
        """
        size = self.policy.max_workers or max(
            self._in_flight, len(self.backends)
        )
        if self._pool is None or self._pool_size < size:
            if self._pool is not None:
                self._retire_pool(self._pool)
            self._pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="federation-leg"
            )
            self._pool_size = size
        return self._pool

    def _retire_pool(self, pool: ThreadPoolExecutor) -> None:
        """Stop handing ``pool`` out; its running legs finish, then its
        threads exit.  Call under the lock.

        ``cancel_futures`` is never passed: concurrent queries on the same
        executor may still have legs queued in this pool.
        """
        if self._pool is pool:
            self._pool = None
        pool.shutdown(wait=False)

    @staticmethod
    def _run_leg(
        backend: ComponentBackend,
        leg: "ComponentRequest",
        policy: ExecutionPolicy,
    ) -> _LegRun:
        """Worker body: attempt + retries. No shared state is touched."""
        run = _LegRun(
            start=time.perf_counter(), thread_id=threading.get_ident()
        )
        delay = policy.backoff
        for attempt in range(policy.retries + 1):
            run.attempts = attempt + 1
            try:
                run.rows = backend.execute(leg.request)
                run.error = ""
                break
            except Exception as exc:  # noqa: BLE001 - faults become status
                run.rows = None
                run.error = f"{type(exc).__name__}: {exc}"
                if attempt < policy.retries:
                    time.sleep(delay)
                    delay *= policy.backoff_multiplier
        run.end = time.perf_counter()
        return run

    # -- metrics -----------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe_latency(self, component: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                f"federation.latency.{component}"
            ).observe(seconds)
