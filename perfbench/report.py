"""What a workload hands back, and the metrics the command prints."""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field

from perfbench.host import HostWindow
from perfbench.speed import SpeedProbe, pieces

#: the tail percentile: p95 leaves >= 10 samples beyond it from 200 on
TAIL = 0.95

#: every per-layer metric a traced run prints, with its unit; a layer a
#: workload bypasses reads 0 there (the prediction for it is "no change")
PER_LAYER_UNITS = {
    "equivalence.declare_ms": "ms",
    "equivalence.rank_ms": "ms",
    "equivalence.ocs_cells_recomputed": "count",
    "assertions.specify_ms": "ms",
    "assertions.propagation_steps": "count",
    "assertions.derived_free_ratio": "fraction",
    "solver.suggest_ms": "ms",
    "integration.integrate_ms": "ms",
    "federation.plan_ms": "ms",
    "federation.plan_hit_ratio": "fraction",
    "federation.legs_ms": "ms",
    "federation.merge_ms": "ms",
    "federation.leg_rows": "rows/query",
    "federation.rows_out": "rows/query",
    "service.dispatch_ms": "ms",
    "service.outside_dispatch_ms": "ms",
    "service.evictions_per_request": "1/request",
    "service.rehydrations_per_request": "1/request",
    "tool.save_ms": "ms",
    "tool.open_ms": "ms",
    "kernel.wal.commit_ms": "ms",
    "kernel.wal.commits": "1/op",
    "kernel.events": "1/op",
    "host.steal_frac": "fraction",
    "host.cpu_per_wall": "fraction",
    "host.speed": "ref_s/s",
    "host.stolen_share": "fraction",
    "trace.coverage": "fraction",
    "trace.throughput_per_s": "1/s",
}


Interval = tuple[float, float]  # (start, end) on time.perf_counter


@dataclass
class Outcome:
    """One workload run, before it is turned into metrics."""

    #: wall interval of every attempted operation (answer, query, request)
    operations: list[Interval]
    failed: int
    #: the measured stretches of back-to-back operations (sittings, or
    #: segments between set-up rounds): throughput is counted over these
    windows: list[Interval]
    #: wall interval of every set-up round; ``setup_s`` is their median
    setup: list[Interval]
    peak_rss_mb: float
    host: HostWindow
    probe: SpeedProbe
    #: correctness failures; any entry makes the run incorrect
    failures: list[str]
    #: per-layer metrics of a traced run, named as in PER_LAYER_UNITS
    layers: dict[str, float] = field(default_factory=dict)
    #: extra facts for the report line (sample counts, sizes)
    details: dict[str, object] = field(default_factory=dict)


def nearest_rank(ordered: list[float], fraction: float) -> tuple[float, int]:
    """The nearest-rank percentile of sorted values, and how many lie beyond."""
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _kept(intervals: list[Interval], keep) -> list[Interval]:
    """The intervals ``keep`` accepts, or all of them if it accepts none."""
    return [i for i in intervals if keep(*i)] or intervals


def timings(outcome: Outcome, seconds, keep) -> dict[str, float]:
    """The timed end-to-end figures over the operations, set-up rounds and
    window pieces ``keep(start, end)`` accepts, with ``seconds(start,
    end)`` as the clock."""
    probe = outcome.probe
    ordered = sorted(
        seconds(*interval) for interval in _kept(outcome.operations, keep)
    )
    tail, beyond = nearest_rank(ordered, TAIL)
    ends = sorted(end for _, end in outcome.operations)
    done = busy = 0.0
    for start, end in _kept(
        [piece for window in outcome.windows for piece in pieces(*window)],
        keep,
    ):
        done += bisect.bisect_right(ends, end) - bisect.bisect_right(ends, start)
        working = 1 - probe.paused(start, end) / (end - start)
        busy += seconds(start, end) * working
    return {
        "setup_s": statistics.median(
            seconds(*interval) for interval in _kept(outcome.setup, keep)
        ),
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": tail * 1e3,
        "throughput_per_s": done / busy,
        "samples": len(ordered),
        "beyond_tail": beyond,
    }


def wall_seconds(start: float, end: float) -> float:
    return end - start


def reference(outcome: Outcome) -> dict[str, float]:
    """The figures in reference seconds, outside steal episodes."""
    probe = outcome.probe
    return timings(
        outcome,
        probe.reference_seconds,
        lambda start, end: not probe.stolen(start, end),
    )


def wall(outcome: Outcome) -> dict[str, float]:
    """The same figures in wall seconds over everything, for the report."""
    return timings(outcome, wall_seconds, lambda start, end: True)


def end_to_end(
    outcome: Outcome, figures: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from the run's ``reference`` figures."""
    return {
        "setup_s": (figures["setup_s"], "s"),
        "p50_ms": (figures["p50_ms"], "ms"),
        "tail_ms": (figures["tail_ms"], "ms"),
        "throughput_per_s": (figures["throughput_per_s"], "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
    }


def per_layer(
    outcome: Outcome, figures: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, every one of them listed."""
    values = {
        **outcome.layers,
        **host_diagnostics(outcome),
        "trace.throughput_per_s": figures["throughput_per_s"],
    }
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def host_diagnostics(outcome: Outcome) -> dict[str, float]:
    """What the host did to the run: steal share of all CPU time, the
    program's CPU ÷ wall, the median reference seconds per wall second,
    and the share of operations left out as fallen in a steal episode."""
    probe = outcome.probe
    return {
        "host.steal_frac": outcome.host.steal_frac,
        "host.cpu_per_wall": outcome.host.cpu_per_wall,
        "host.speed": statistics.median(probe.factors),
        "host.stolen_share": sum(
            probe.stolen(*interval) for interval in outcome.operations
        ) / len(outcome.operations),
    }


def sample_counts(
    outcome: Outcome, figures: dict[str, float]
) -> dict[str, object]:
    return {
        "attempted": len(outcome.operations),
        "samples": figures["samples"],
        "beyond_tail": figures["beyond_tail"],
        "setup_rounds": len(outcome.setup),
        "speed_samples": len(outcome.probe.factors),
    }
