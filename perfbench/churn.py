"""service-churn: a real service process under two keep-alive callers.

``python -m repro.service`` runs as its own process with 12 tenants and
``--max-resident 4``.  Two client connections, one thread each, run a
closed loop; each owns 6 tenants and sends 75% of its requests to one hot
tenant.  Each tenant's calls come from its own seeded
``repro.workloads.service_traffic`` stream: 80% reads, 20% writes
(declare an equivalence / undo it).  Hot sessions stay resident and set
the median; the cold ones are evicted and rehydrated, which sets the
tail.  An operation is one HTTP request.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator
from urllib.parse import urlencode

from repro.ecr.ddl import to_ddl
from repro.workloads import (
    ServiceCall,
    TrafficConfig,
    build_sc1,
    build_sc2,
    service_traffic,
)

from perfbench.checks import check_churn
from perfbench.host import HostWindow, IdleSpinners, peak_rss_mb
from perfbench.layers import covered_seconds, layer_times, load_spans, totals
from perfbench.report import Interval, Outcome
from perfbench.speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
#: run-time files (service root, spans, server log); removed at shutdown
WORK = ROOT / ".perfbench"

TENANTS = 12
MAX_RESIDENT = 4
CONNECTIONS = 2
HOT_SHARE = 0.75
READ_FRACTION = 0.8
#: the run is cut into segments, each after one set-up round (seeding a
#: session for every tenant); ``setup_s`` is the median of the rounds
SEGMENTS = 12
LIVE = "live"
#: calls generated per tenant stream, far more than a run can send
STREAM_LENGTH = 50_000
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30


class Server:
    """The service as a child process on a free loopback port."""

    def __init__(self, tokens: dict[str, str], trace: bool) -> None:
        self.tokens = tokens
        self.trace = trace
        self.spans_path = WORK / "spans.json"
        self.log_path = WORK / "server.log"
        #: the traced server's spans, read once it has shut down
        self.spans: list = []
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]

    def __enter__(self) -> "Server":
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        service_args = [
            "--root", str(WORK / "service"),
            "--host", "127.0.0.1",
            "--port", str(self.port),
            "--max-resident", str(MAX_RESIDENT),
            "--log-level", "warning",
        ]
        for token, tenant in self.tokens.items():
            service_args += ["--token", f"{tenant}:{token}"]
        if self.trace:
            command = [
                sys.executable, "-m", "perfbench.traced_server",
                "--spans", str(self.spans_path), "--", *service_args,
            ]
        else:
            command = [sys.executable, "-m", "repro.service", *service_args]
        # the service hashes like the load generator (PYTHONHASHSEED is
        # inherited) and imports this checkout's program
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        )
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("service exited during start-up")
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=5
                )
                connection.request("GET", "/v1/healthz")
                if connection.getresponse().status == 200:
                    connection.close()
                    return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("service did not start")

    def log_tail(self) -> str:
        return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    def stop(self) -> int:
        """SIGINT (the service closes cleanly), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode

    def __exit__(self, *exc) -> None:
        if self.stop() != 0:
            print(f"service exit {self.process.returncode}:", file=sys.stderr)
            print(self.log_tail(), file=sys.stderr)
        self._log.close()
        if self.trace and self.spans_path.exists():
            self.spans = load_spans(self.spans_path)
        shutil.rmtree(WORK, ignore_errors=True)


class Client:
    """One keep-alive connection; one request at a time."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )

    def call(
        self, token: str, method: str, path: str, body: dict | None = None,
        query: dict | None = None,
    ) -> tuple[int, bytes]:
        if query:
            path = f"{path}?{urlencode(query)}"
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Authorization": f"Bearer {token}"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        self.connection.request(method, path, payload, headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def ok(self, token: str, method: str, path: str, **kwargs) -> dict:
        status, data = self.call(token, method, path, **kwargs)
        if status >= 400:
            raise RuntimeError(f"{method} {path} -> {status} {data[:300]!r}")
        return json.loads(data) if data else {}

    def close(self) -> None:
        self.connection.close()


def seed_sessions(client: Client, tokens: list[str], sid: str) -> None:
    """The standard seeded session: both paper schemas adopted."""
    ddls = [to_ddl(build_sc1()), to_ddl(build_sc2())]
    for token in tokens:
        client.ok(token, "POST", "/v1/sessions", body={"session_id": sid})
        for ddl in ddls:
            client.ok(
                token, "POST", f"/v1/sessions/{sid}/schemas", body={"ddl": ddl}
            )


class Caller:
    """One connection's closed loop over the tenants it owns."""

    def __init__(
        self, port: int, owned: list[str],
        streams: dict[str, Iterator[ServiceCall]], seed: int,
    ) -> None:
        self.client = Client(port)
        self.hot, self.cold = owned[0], owned[1:]
        self.streams = streams
        self.rng = random.Random(seed)
        self.requests: list[Interval] = []
        self.failures: list[str] = []
        self.error: Exception | None = None

    def segment(self, until: float) -> None:
        """Send requests back to back until ``until`` (perf_counter)."""
        clock = time.perf_counter
        try:
            while clock() < until:
                token = (
                    self.hot if self.rng.random() < HOT_SHARE
                    else self.rng.choice(self.cold)
                )
                call = next(self.streams[token])
                began = clock()
                status, data = self.client.call(
                    token, call.method, call.path, call.body, call.query
                )
                self.requests.append((began, clock()))
                if status >= 400:
                    self.failures.append(
                        f"{call.method} {call.path} -> {status} {data[:200]!r}"
                    )
        except Exception as exc:  # re-raised by the run, not lost
            self.error = exc


def _manager_stats(client: Client, token: str) -> dict:
    return client.ok(token, "GET", "/v1/stats")["manager"]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = random.Random(seed)
    tokens = {
        f"token-{rng.randrange(2**63):x}": f"tenant{index:02d}"
        for index in range(TENANTS)
    }
    token_list = list(tokens)
    streams = {
        token: service_traffic(
            TrafficConfig(
                seed=rng.randrange(2**31),
                operations=STREAM_LENGTH,
                read_fraction=READ_FRACTION,
                session_id=LIVE,
            )
        )
        for token in token_list
    }
    share = TENANTS // CONNECTIONS
    clock = time.perf_counter
    probe = SpeedProbe()
    setup: list[Interval] = []
    windows: list[Interval] = []
    evictions = rehydrations = 0
    with IdleSpinners(), Server(tokens, trace) as server:
        admin = Client(server.port)
        callers = [
            Caller(
                server.port, token_list[i * share:(i + 1) * share],
                streams, rng.randrange(2**31),
            )
            for i in range(CONNECTIONS)
        ]
        with HostWindow(server.process.pid) as host, probe:
            for segment in range(SEGMENTS):
                # the first round seeds the live sessions; later rounds
                # repeat the same work on throwaway sessions
                sid = LIVE if segment == 0 else f"setup{segment}"
                start = clock()
                seed_sessions(admin, token_list, sid)
                setup.append((start, clock()))
                if sid != LIVE:
                    for token in token_list:
                        admin.ok(
                            token, "DELETE", f"/v1/sessions/{sid}",
                            query={"purge": "1"},
                        )
                before = _manager_stats(admin, token_list[0])
                start = clock()
                threads = [
                    threading.Thread(
                        target=caller.segment,
                        args=(start + seconds / SEGMENTS,),
                    )
                    for caller in callers
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                windows.append((start, clock()))
                after = _manager_stats(admin, token_list[0])
                evictions += after["evictions"] - before["evictions"]
                rehydrations += after["rehydrations"] - before["rehydrations"]
                if any(caller.error for caller in callers):
                    break
        rss = peak_rss_mb(server.process.pid)
        for client in [admin] + [caller.client for caller in callers]:
            client.close()
    for caller in callers:
        if caller.error is not None:
            raise RuntimeError("load generator failed") from caller.error

    requests = [x for caller in callers for x in caller.requests]
    failures = [f for caller in callers for f in caller.failures]
    outcome = Outcome(
        operations=requests,
        failed=len(failures),
        windows=windows,
        setup=setup,
        peak_rss_mb=rss,
        host=host,
        probe=probe,
        failures=check_churn(len(failures), evictions, rehydrations)
        + failures[:10],
        details={
            "tenants": TENANTS,
            "evictions": evictions,
            "rehydrations": rehydrations,
            "server_exit": server.process.returncode,
        },
    )
    if trace:
        table = totals(server.spans, windows)
        dispatch = table["service.dispatch"].seconds
        commits = table.get("kernel.wal.commit")
        waited = sum(end - start for start, end in requests)
        count = len(requests)
        outcome.layers = {
            **layer_times(table),
            "service.outside_dispatch_ms": (waited - dispatch) * 1e3,
            "trace.coverage": (
                covered_seconds(table) + waited - dispatch
            ) / waited,
            "service.evictions_per_request": evictions / count,
            "service.rehydrations_per_request": rehydrations / count,
            "kernel.wal.commits": (commits.calls if commits else 0) / count,
            "kernel.events": (commits.units if commits else 0) / count,
        }
    return outcome
