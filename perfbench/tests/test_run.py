"""The command: refuses a checkout without the program; drives the service."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import churn

ROOT = Path(__file__).resolve().parents[2]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dda-sitting",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_service_run_splits_requests():
    outcome = churn.run(seed=2, seconds=2, trace=True)
    assert outcome.failures == []
    assert outcome.details["server_exit"] == 0
    assert outcome.layers["service.dispatch_ms"] > 0
    assert outcome.layers["service.outside_dispatch_ms"] > 0
    assert outcome.layers["kernel.wal.commits"] > 0
    assert not churn.WORK.exists()
