"""One benchmark run inside a fresh interpreter (started by ``run.py``).

Runs the workload, prints a report line with sample counts, host
diagnostics and the stamp, then the result object as the last line.
Exits 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from perfbench.host import stamp
from perfbench.report import (
    end_to_end,
    host_diagnostics,
    per_layer,
    reference,
    sample_counts,
    wall,
)

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    # imported on use: run.py parses arguments with this module before it
    # has checked that the checkout holds the program these modules import
    from perfbench import churn, dda, federated

    return {
        "dda-sitting": dda.run,
        "federated-query": federated.run,
        "service-churn": churn.run,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload",
        required=True,
        choices=("dda-sitting", "federated-query", "service-churn"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    outcome = _workloads()[args.workload](
        args.seed, args.seconds, bool(args.trace)
    )
    figures = reference(outcome)
    metrics = (per_layer if args.trace else end_to_end)(outcome, figures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "trace": args.trace,
        **sample_counts(outcome, figures),
        **outcome.details,
        **host_diagnostics(outcome),
        "wall": wall(outcome),
        "stamp": stamp(ROOT),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if len(outcome.failures) > 20:
        print(f"... {len(outcome.failures) - 20} more", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": len(outcome.operations),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
