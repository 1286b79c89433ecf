"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dda-sitting --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The workload runs in a child interpreter
whose hash seed is pinned to a value derived from ``--seed``, so both
commits of a comparison hash alike; the child's last line of output is
the result object.  Exits 2 without a result when the checkout holds no
``src/repro`` to measure, and 1 when a correctness check failed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a run that has not finished by then is killed, with its server
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.measure import parse_args

    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.measure", *argv],
        cwd=ROOT,
        env=env,
        start_new_session=True,  # one process group: the child and its server
    )
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIMEOUT_S} s; killed", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
