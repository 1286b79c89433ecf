"""Host diagnostics and stamps: VM steal, CPU per wall second, peak RSS.

Linux only: steal comes from the aggregate ``cpu`` line of ``/proc/stat``
and another process's CPU time and peak RSS from ``/proc/<pid>``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int, int]:
    """Steal, busy and all CPU ticks so far, over every core.

    Busy is every tick but idle and iowait, stolen ticks included: the
    time the VM wanted a CPU.  Guest time is already inside user and nice.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal
    total = sum(fields[:8])
    return fields[7], total - fields[3] - fields[4], total


def process_cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU of this process (all threads), or of ``pid``."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # the command name may hold spaces: fields start after its ')'
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of this process, or of ``pid``, in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


#: a process that runs only when its core would otherwise halt, and ends
#: with the process that started it
SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


class IdleSpinners:
    """One lowest-priority busy process per core, so no core ever halts.

    A client and a server that wait on each other put a core to sleep and
    wake it up again hundreds of times a second.  On the VM the benchmark
    was built on, each wake-up waits for the hypervisor: that wait shows
    as steal, and it ranged from 1% to 30% of the VM's CPU with the load
    of its neighbours, so the same run took up to twice as long.  With a
    ``SCHED_IDLE`` process on every core the cores stay busy (as under the
    kernel's ``idle=poll``), a waking thread preempts the spinner at once,
    and steal fell back to the 0-15% that plain computation sees.
    """

    def __enter__(self) -> "IdleSpinners":
        self.processes = [
            subprocess.Popen([sys.executable, "-c", SPINNER])
            for _ in range(os.cpu_count() or 1)
        ]
        return self

    def __exit__(self, *exc) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()


@dataclass
class HostWindow:
    """Steal share and the program's CPU ÷ wall over one timed window."""

    pid: int | None = None

    def __enter__(self) -> "HostWindow":
        self._steal, _, self._total = cpu_ticks()
        self._cpu = process_cpu_seconds(self.pid)
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        steal, _, total = cpu_ticks()
        wall = time.perf_counter() - self._wall
        self.steal_frac = (steal - self._steal) / max(1, total - self._total)
        self.cpu_per_wall = (
            process_cpu_seconds(self.pid) - self._cpu
        ) / wall


def stamp(root: Path) -> dict:
    """What was measured and where: SHA, source digest, Python, cores."""
    sha = "unknown"  # a plain checkout: the source digest identifies it
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }
