"""Record federated-engine performance to BENCH_federation.json.

Models a federation of N sc1-shaped component databases (each behind a
simulated network latency) all mapped onto the Figure 5 integrated
schema, and measures:

* **scaling** — wall time of one global request answered sequentially
  (the oracle's execution order) vs concurrently, at 1/2/4/8 components;
* **plan cache** — hit ratio over repeated requests;
* **partial results** — latency and health of a query with one component
  down, verifying fault injection never leaks an exception;
* **rows tiers** — legs vs merge time of one query over 8 components
  (no latency model) at 200, 2k and 20k answer rows
  (``entities_per_class`` 25, 250 and 2500).

The script *gates*: it exits non-zero if the concurrent fan-out is not
at least 2x faster than the sequential baseline on 8 components, if
the fault-injection run raises, or if the merge grows more than five
times as fast as the rows it merges (20k rows may cost at most 500x the
merge of 200 rows).  The slack covers the sort's log factor, cache
effects and one noisy reading of a ~1.5-ms merge; a quadratic merge
reads about 10^4x.  ``make fed-smoke`` runs it in CI.

Run:  PYTHONPATH=src python benchmarks/record_federation.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.assertions.kinds import AssertionKind  # noqa: E402
from repro.assertions.network import AssertionNetwork  # noqa: E402
from repro.data.populate import populate_store  # noqa: E402
from repro.ecr.builder import SchemaBuilder  # noqa: E402
from repro.ecr.schema import ObjectRef  # noqa: E402
from repro.federation import (  # noqa: E402
    ExecutionPolicy,
    FederationEngine,
    FlakyBackend,
    InstanceBackend,
)
from repro.federation.merge import merge_legs  # noqa: E402
from repro.integration.mappings import SchemaMapping  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.workloads.university import build_expected_figure5  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_federation.json"

COMPONENT_COUNTS = [1, 2, 4, 8]
#: simulated per-call network/processing latency of a remote component
LATENCY_S = 0.02
REQUEST = "select D_Name, D_GPA from Student"
REPEATS = 5
#: answer sizes of the rows tiers (8 components x entities per class)
ROW_TIERS = [200, 2_000, 20_000]
TIER_COMPONENTS = 8
#: merge time may grow at most this many times faster than the rows
MERGE_GROWTH_SLACK = 5.0
#: interleaved rounds over the tiers; a shared host's speed can drift
#: within seconds, so every round times each tier back to back
TIER_ROUNDS = 7


def repo_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_component_schema(name: str):
    """An sc1-shaped component schema under the given name."""
    return (
        SchemaBuilder(name, "benchmark component")
        .entity("Student", attrs=[("Name", "char", True), ("GPA", "real")])
        .entity("Department", attrs=[("Name", "char", True)])
        .relationship(
            "Majors",
            connects=[("Student", "(1,1)"), ("Department", "(0,n)")],
            attrs=[("Since", "date")],
        )
        .build()
    )


def build_mapping(name: str, integrated_name: str) -> SchemaMapping:
    """The Figure 5 mapping for one sc1-shaped component."""
    return SchemaMapping(
        component_schema=name,
        integrated_schema=integrated_name,
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


def build_federation(count: int, entities_per_class: int = 25):
    """mappings, stores, and a pairwise-equals network for N components."""
    integrated = build_expected_figure5()
    names = [f"comp{index}" for index in range(count)]
    mappings = {name: build_mapping(name, integrated.name) for name in names}
    stores = {
        name: populate_store(
            build_component_schema(name),
            seed=index + 1,
            entities_per_class=entities_per_class,
            links_per_relationship=entities_per_class,
        )
        for index, name in enumerate(names)
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
                    AssertionKind.EQUALS.code,
                )
    return integrated, mappings, stores, network


def flaky_backends(stores, latency: float = LATENCY_S):
    return {
        name: FlakyBackend(InstanceBackend(store), latency=latency, seed=index)
        for index, (name, store) in enumerate(sorted(stores.items()))
    }


def timed(engine: FederationEngine, repeats: int = REPEATS) -> float:
    """Median wall time of one query (plan pre-warmed)."""
    engine.query(REQUEST)  # warm the plan cache and the thread pool path
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        engine.query(REQUEST)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_scaling() -> list[dict]:
    rows = []
    for count in COMPONENT_COUNTS:
        integrated, mappings, stores, network = build_federation(count)
        sequential = FederationEngine.for_backends(
            mappings,
            flaky_backends(stores),
            integrated,
            object_network=network,
            policy=ExecutionPolicy(sequential=True),
        )
        concurrent = FederationEngine.for_backends(
            mappings,
            flaky_backends(stores),
            integrated,
            object_network=network,
        )
        seq_s = timed(sequential)
        conc_s = timed(concurrent)
        result = concurrent.query(REQUEST)
        rows.append(
            {
                "components": count,
                "sequential_s": round(seq_s, 6),
                "concurrent_s": round(conc_s, 6),
                "speedup": round(seq_s / conc_s, 3),
                "strategy": str(result.plan.strategy),
                "rows": len(result.rows),
                "healthy": result.ok,
            }
        )
        print(
            f"  {count} component(s): sequential {seq_s * 1e3:.1f} ms, "
            f"concurrent {conc_s * 1e3:.1f} ms "
            f"({rows[-1]['speedup']:.2f}x)"
        )
    return rows


def measure_plan_cache(queries: int = 20) -> dict:
    integrated, mappings, stores, network = build_federation(4)
    metrics = MetricsRegistry()
    engine = FederationEngine.for_stores(
        mappings, stores, integrated, object_network=network, metrics=metrics
    )
    for _ in range(queries):
        engine.query(REQUEST)
    hits = metrics.counter("federation.plan.hit").value
    misses = metrics.counter("federation.plan.miss").value
    return {
        "queries": queries,
        "hits": hits,
        "misses": misses,
        "hit_ratio": round(hits / (hits + misses), 4),
    }


def measure_partial_results() -> dict:
    """One dead component out of 8: answers still arrive, nothing leaks."""
    integrated, mappings, stores, network = build_federation(8)
    backends = flaky_backends(stores)
    backends["comp7"] = FlakyBackend(
        InstanceBackend(stores["comp7"]),
        latency=LATENCY_S,
        down=True,
    )
    engine = FederationEngine.for_backends(
        mappings,
        backends,
        integrated,
        object_network=network,
        policy=ExecutionPolicy(retries=1, backoff=0.005),
    )
    start = time.perf_counter()
    result = engine.query(REQUEST)
    elapsed = time.perf_counter() - start
    return {
        "components": 8,
        "down": 1,
        "latency_s": round(elapsed, 6),
        "degraded": result.degraded,
        "rows": len(result.rows),
        "health": result.health.summary(),
    }


def measure_rows_tiers(
    tiers: list[int] = ROW_TIERS, rounds: int = TIER_ROUNDS
) -> list[dict]:
    """Legs vs merge wall time of one query per answer size.

    In every round each tier runs its legs and merges ``largest / rows``
    times (so every tier spends about the same time), and its per-query
    means are recorded.  A tier reports the medians over rounds, and
    ``merge_growth`` is the median over rounds of its merge time divided
    by the first tier's in the same round.
    """
    engines = []
    for rows in tiers:
        integrated, mappings, stores, network = build_federation(
            TIER_COMPONENTS, entities_per_class=rows // TIER_COMPONENTS
        )
        engine = FederationEngine.for_stores(
            mappings, stores, integrated, object_network=network
        )
        engines.append((engine, engine.plan(REQUEST)))
    samples: list[list[tuple[float, float]]] = [[] for _ in tiers]
    rows_out = [0] * len(tiers)
    for _ in range(rounds):
        for index, (rows, (engine, plan)) in enumerate(zip(tiers, engines)):
            repeats = max(1, max(tiers) // rows)
            legs_s = merge_s = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                execution = engine.executor.execute(plan)
                middle = time.perf_counter()
                outcome = merge_legs(plan, execution.leg_rows)
                legs_s += middle - start
                merge_s += time.perf_counter() - middle
            samples[index].append((legs_s / repeats, merge_s / repeats))
            rows_out[index] = len(outcome.rows)
    results = []
    for rows, tier, out in zip(tiers, samples, rows_out):
        growth = [
            merge / base for (_, merge), (_, base) in zip(tier, samples[0])
        ]
        results.append(
            {
                "rows": rows,
                "entities_per_class": rows // TIER_COMPONENTS,
                "rows_out": out,
                "legs_s": round(statistics.median(leg for leg, _ in tier), 6),
                "merge_s": round(statistics.median(m for _, m in tier), 6),
                "merge_growth": round(statistics.median(growth), 2),
            }
        )
    return results


def merge_near_linear(base: dict, tier: dict) -> bool:
    """Whether ``tier``'s merge grew at most ``MERGE_GROWTH_SLACK`` times
    faster than its rows, relative to ``base`` (the first tier)."""
    bound = MERGE_GROWTH_SLACK * tier["rows"] / base["rows"]
    return tier["merge_growth"] <= bound


def main() -> int:
    print("scaling (sequential vs concurrent fan-out):")
    scaling = measure_scaling()
    print("plan cache:")
    plan_cache = measure_plan_cache()
    print(f"  hit ratio {plan_cache['hit_ratio']:.2%}")
    print("partial results under faults:")
    try:
        partial = measure_partial_results()
        fault_clean = True
        print(f"  {partial['health']} in {partial['latency_s'] * 1e3:.1f} ms")
    except Exception as exc:  # noqa: BLE001 - the gate reports, then fails
        partial = {"error": f"{type(exc).__name__}: {exc}"}
        fault_clean = False
        print(f"  LEAKED: {partial['error']}")
    print("rows tiers (legs vs merge, 8 components, no latency):")
    tiers = measure_rows_tiers()
    for tier in tiers:
        print(
            f"  {tier['rows']} rows: legs {tier['legs_s'] * 1e3:.2f} ms, "
            f"merge {tier['merge_s'] * 1e3:.2f} ms "
            f"({tier['merge_growth']:.1f}x the {tiers[0]['rows']}-row merge)"
        )

    eight = next(row for row in scaling if row["components"] == 8)
    checks = {
        "speedup_8_components_ge_2": eight["speedup"] >= 2.0,
        "fault_injection_clean": fault_clean
        and partial.get("degraded") is True
        and partial.get("rows", 0) > 0,
        "merge_20k_le_500x_merge_200": merge_near_linear(tiers[0], tiers[-1]),
    }
    payload = {
        "sha": repo_sha(),
        "request": REQUEST,
        "latency_model_s": LATENCY_S,
        "repeats": REPEATS,
        "scaling": scaling,
        "plan_cache": plan_cache,
        "partial_results": partial,
        "rows_tiers": tiers,
        "merge_growth_slack": MERGE_GROWTH_SLACK,
        "checks": checks,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    if not all(checks.values()):
        failed = [name for name, passed in checks.items() if not passed]
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
