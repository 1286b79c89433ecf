"""federated-query: one caller repeats a global request over 8 components.

An in-process closed loop with one caller.  Eight sc1-shaped component
stores (25 entities per class, seeded from the workload seed) are mapped
onto the Figure 5 integrated schema, pairwise asserted equal, and queried
with ``select D_Name, D_GPA from Student`` (200 merged rows).  No latency
is modelled: the run measures the federation's own planner, executor and
merge.  An operation is one ``FederationEngine.query``; every answer is
compared with the sequential oracle ``federated_answer``, computed once,
untimed, at the first set-up.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.data.migrate import federated_answer
from repro.data.populate import populate_store
from repro.ecr.builder import SchemaBuilder
from repro.ecr.schema import ObjectRef
from repro.federation import FederationEngine
from repro.integration.mappings import SchemaMapping
from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_request
from repro.workloads.university import build_expected_figure5

from perfbench.checks import check_federated
from perfbench.host import HostWindow, peak_rss_mb
from perfbench.layers import LayerTracer, covered_seconds, layer_times, totals
from perfbench.report import Interval, Outcome
from perfbench.speed import SpeedProbe

COMPONENTS = 8
ENTITIES_PER_CLASS = 25
REQUEST = "select D_Name, D_GPA from Student"
#: the run is cut into segments, each queried through a freshly set-up
#: engine; ``setup_s`` is the median of the segments' set-ups
SEGMENTS = 8


def component_schema(name: str):
    return (
        SchemaBuilder(name, "federated component")
        .entity("Student", attrs=[("Name", "char", True), ("GPA", "real")])
        .entity("Department", attrs=[("Name", "char", True)])
        .relationship(
            "Majors",
            connects=[("Student", "(1,1)"), ("Department", "(0,n)")],
            attrs=[("Since", "date")],
        )
        .build()
    )


def component_mapping(name: str, integrated: str) -> SchemaMapping:
    return SchemaMapping(
        component_schema=name,
        integrated_schema=integrated,
        objects={
            "Student": "Student",
            "Department": "E_Department",
            "Majors": "E_Stud_Majo",
        },
        attributes={
            ("Student", "Name"): ("Student", "D_Name"),
            ("Student", "GPA"): ("Student", "D_GPA"),
            ("Department", "Name"): ("E_Department", "D_Name"),
            ("Majors", "Since"): ("E_Stud_Majo", "D_Since"),
        },
    )


def build_federation(store_seeds: list[int]):
    """The integrated schema, mappings, stores and equals-network."""
    integrated = build_expected_figure5()
    names = [f"comp{index}" for index in range(len(store_seeds))]
    mappings = {name: component_mapping(name, integrated.name) for name in names}
    stores = {
        name: populate_store(
            component_schema(name),
            seed=store_seed,
            entities_per_class=ENTITIES_PER_CLASS,
            links_per_relationship=ENTITIES_PER_CLASS,
        )
        for name, store_seed in zip(names, store_seeds)
    }
    network = AssertionNetwork()
    for name in names:
        network.add_object(ObjectRef(name, "Student"))
        network.add_object(ObjectRef(name, "Department"))
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            for cls in ("Student", "Department"):
                network.specify(
                    ObjectRef(first, cls),
                    ObjectRef(second, cls),
                    AssertionKind.EQUALS,
                )
    return integrated, mappings, stores, network


def ready_engine(store_seeds: list[int]):
    """Set-up: the federation, its engine, and the request's cached plan."""
    integrated, mappings, stores, network = build_federation(store_seeds)
    metrics = MetricsRegistry()
    engine = FederationEngine.for_stores(
        mappings, stores, integrated, object_network=network, metrics=metrics
    )
    engine.plan(REQUEST)
    return engine, metrics, (mappings, stores, integrated)


COUNTERS = ("federation.plan.hit", "federation.plan.miss", "federation.rows")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = random.Random(seed)
    store_seeds = [rng.randrange(2**31) for _ in range(COMPONENTS)]
    tracer = LayerTracer() if trace else None
    probe = SpeedProbe()
    clock = time.perf_counter
    setup: list[Interval] = []
    queries: list[Interval] = []
    windows: list[Interval] = []
    failures: list[str] = []
    failed = 0
    counted = dict.fromkeys(COUNTERS, 0)
    oracle = None
    with HostWindow() as host:
        for segment in range(SEGMENTS):
            probe.sample()
            start = clock()
            engine, metrics, federation = ready_engine(store_seeds)
            setup.append((start, clock()))
            probe.sample()
            if oracle is None:
                oracle = federated_answer(parse_request(REQUEST), *federation)
            before = {name: metrics.counter(name).value for name in COUNTERS}
            with tracer or nullcontext():
                start = clock()
                until = start + seconds / SEGMENTS
                while True:
                    began = clock()
                    result = engine.query(REQUEST)
                    queries.append((began, clock()))
                    problems = check_federated(result.rows, oracle, result.ok)
                    if problems:
                        failed += 1
                        failures += problems
                    probe.tick()
                    if clock() >= until:
                        break
                windows.append((start, clock()))
            for name in COUNTERS:
                counted[name] += metrics.counter(name).value - before[name]

    outcome = Outcome(
        operations=queries,
        failed=failed,
        windows=windows,
        setup=setup,
        peak_rss_mb=peak_rss_mb(),
        host=host,
        probe=probe,
        failures=failures,
        details={"components": COMPONENTS, "rows": len(oracle)},
    )
    if tracer is not None:
        table = totals(tracer.spans)
        hits = counted["federation.plan.hit"]
        outcome.layers = {
            **layer_times(table),
            "trace.coverage": covered_seconds(table)
            / sum(end - start for start, end in queries),
            "federation.plan_hit_ratio": hits
            / (hits + counted["federation.plan.miss"]),
            "federation.leg_rows": table["federation.legs"].units / len(queries),
            "federation.rows_out": counted["federation.rows"] / len(queries),
        }
    return outcome
