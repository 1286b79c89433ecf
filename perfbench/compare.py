"""Summarise benchmark runs, or compare two commits' runs of one workload.

Each input file holds result objects, one per line, as ``run.py`` prints
them last (collect them with ``| tail -n 1 >> FILE``).

    python3 perfbench/compare.py RUNS.jsonl
        medians, quartiles and spread (IQR / median) of every metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
        both sides, the change in median, and a verdict per end-to-end
        metric against its bound in BENCHMARK.json:
          ok          the change's median is no worse than the bound allows
          regressed   worse by more than the bound
          unresolved  worse by more than the bound, but the base's own
                      spread is wider than the bound
    python3 perfbench/compare.py UNTRACED.jsonl TRACED.jsonl
        additionally prints the tracing overhead: the traced runs'
        trace.throughput_per_s against the untraced throughput_per_s
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    """Metric name -> values, one per run; incorrect runs abort."""
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        if not result["correct"]:
            raise SystemExit(f"{path}: a run was not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def end_to_end_bounds() -> dict[str, dict]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def describe(values: dict[str, list[float]]) -> None:
    for name, series in values.items():
        median, q1, q3, spread = summary(series)
        print(
            f"{name:36s} n={len(series):2d} median {median:12.4f} "
            f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.1%}"
        )


def compare(base: dict[str, list[float]], change: dict[str, list[float]]) -> int:
    bounds = end_to_end_bounds()
    regressed = 0
    for name in sorted(base.keys() & change.keys()):
        base_median, _, _, base_spread = summary(base[name])
        change_median, _, _, _ = summary(change[name])
        delta = (change_median - base_median) / base_median
        line = (
            f"{name:36s} base {base_median:12.4f} change "
            f"{change_median:12.4f} ({delta:+.1%})"
        )
        spec = bounds.get(name)
        if spec is not None:
            worse = delta if spec["better"] == "lower" else -delta
            if worse <= spec["bound"]:
                verdict = "ok"
            elif base_spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "regressed"
                regressed += 1
            line += f"  bound {spec['bound']:.0%}: {verdict}"
        print(line)
    if "throughput_per_s" in base and "trace.throughput_per_s" in change:
        untraced = statistics.median(base["throughput_per_s"])
        traced = statistics.median(change["trace.throughput_per_s"])
        print(f"tracing overhead: {1 - traced / untraced:+.1%} of throughput")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        describe(load(argv[0]))
        return 0
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
