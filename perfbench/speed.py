"""Host speed and steal, sampled again and again through a run.

The benchmark was built on a shared 2-core VM whose speed moves under
the program in two ways, neither of them the program's doing:

* *Slow phases.*  Identical work (the same sitting, the same
  propagation-step count) ran anywhere from 1.9 to 3.5 ms per answer in
  consecutive 3-second windows, with almost no steal in ``/proc/stat``: a
  neighbour on the same physical core slows every instruction, and the
  process's CPU time slows with it.  A fixed reference loop timed in the
  same windows slowed by the same factor, so dividing by it cut the
  spread of those windows from 40% to 9%.
* *Steal episodes.*  For 7 to 15 seconds at a time, sometimes for
  minutes, the hypervisor took 20-30% of the VM's CPU, which stalls a
  client and a server that wait on each other far more than in
  proportion.

:class:`SpeedProbe` times the reference loop and reads the steal counters
every :data:`INTERVAL_S`.  From those samples it turns a wall interval
into *reference seconds* (the seconds it would have taken on a host
running the loop in :data:`NOMINAL_S`) and tells whether an interval fell
in a steal episode.  The loop does not touch the program, so a change
that makes the program faster shows in full.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from perfbench.host import cpu_ticks

#: reference-loop iterations per sample (about 0.25 ms on a quiet host)
ITERATIONS = 600
#: the loop's time on a quiet build host: the scale of a reference second
NOMINAL_S = 0.000_25
#: how often the loop is timed: about 1.5% of a run
INTERVAL_S = 0.02
#: a longer interval is cut into pieces this long, each at its own speed
#: and each judged on its own steal
PIECE_S = 0.5
#: an interval holding fewer samples takes its speed from this many
#: samples nearest its middle
NEAREST = 5
#: the sample lists a sampler process hands back
SAMPLED = ("starts", "durations", "factors", "steal", "busy")
#: a piece is in a steal episode when more of the VM's busy CPU time than
#: this was stolen (episodes run at 0.2-0.3, quiet pieces below 0.05)
STEAL_LIMIT = 0.1


def reference_loop() -> int:
    """Fixed pure-Python work of the program's own kind: tuples, dicts, sets."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    total = 0
    for index in range(ITERATIONS):
        key = (index % 37, index % 11)
        table[key] = table.get(key, 0) + 1
        seen.add(key)
        total += len(str(index))
    return total + len(seen) + len(table)


class SpeedProbe:
    """Samples of the reference loop's time and of the steal counters."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.factors: list[float] = []
        self.steal: list[int] = []
        self.busy: list[int] = []
        #: samples taken on the measured thread pause its work; those of
        #: the background sampler do not
        self.inline = True
        self._due = 0.0

    def sample(self, cpus: tuple[int, ...] = ()) -> None:
        """Time the loop, once on each of ``cpus`` if given, and read the
        steal counters; the sample's speed is the mean over the cores."""
        clock = time.perf_counter
        start = clock()
        factors = []
        for cpu in cpus or (None,):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            began = clock()
            reference_loop()
            factors.append(NOMINAL_S / (clock() - began))
        took = clock() - start
        steal, busy, _ = cpu_ticks()
        self.starts.append(start)
        self.durations.append(took)
        self.factors.append(statistics.fmean(factors))
        self.steal.append(steal)
        self.busy.append(busy)
        self._due = start + INTERVAL_S

    def tick(self) -> None:
        """Sample when one is due; call between operations."""
        if time.perf_counter() >= self._due:
            self.sample()

    # sampling from a process of its own, for a load generator whose
    # threads would otherwise share the interpreter lock with the loop;
    # its work runs on every core, and each core has its own neighbours

    def __enter__(self) -> "SpeedProbe":
        self.inline = False
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.speed"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._process.communicate(b"", timeout=60)
        for name, values in json.loads(out).items():
            setattr(self, name, values)

    def _span(self, start: float, end: float, least: int) -> tuple[int, int]:
        """Indices of the samples in ``[start, end]``, or of the ``least``
        samples nearest its middle when it holds fewer."""
        if len(self.starts) < least:
            raise RuntimeError(f"{len(self.starts)} speed samples: too few")
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        if high - low < least:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            low = max(0, min(middle - least // 2, len(self.starts) - least))
            high = low + least
        return low, high

    def factor(self, start: float, end: float) -> float:
        """Speed over ``[start, end]``, widened to a piece around its
        middle, in reference seconds per second: the median of the loop
        samples taken in it."""
        low, high = self._span(*around(start, end), NEAREST)
        return statistics.median(self.factors[low:high])

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in reference seconds, summed
        over pieces of at most :data:`PIECE_S`, each at its own speed."""
        return sum(
            (piece_end - piece_start) * self.factor(piece_start, piece_end)
            for piece_start, piece_end in pieces(start, end)
        )

    def paused(self, start: float, end: float) -> float:
        """Wall seconds inside ``[start, end]`` that inline samples took
        from the measured work."""
        if not self.inline:
            return 0.0
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        return sum(self.durations[low:high])

    def stolen(self, start: float, end: float) -> bool:
        """Whether ``[start, end]``, widened to a piece around its middle,
        fell in a steal episode."""
        low, high = self._span(*around(start, end), 2)
        busy = self.busy[high - 1] - self.busy[low]
        steal = self.steal[high - 1] - self.steal[low]
        return busy > 0 and steal / busy > STEAL_LIMIT


def around(start: float, end: float) -> tuple[float, float]:
    """``[start, end]``, widened to at least a piece around its middle."""
    middle = (start + end) / 2
    return min(start, middle - PIECE_S / 2), max(end, middle + PIECE_S / 2)


def pieces(start: float, end: float) -> list[tuple[float, float]]:
    """``[start, end]`` cut into consecutive pieces of at most PIECE_S."""
    cuts = []
    while start < end:
        cuts.append((start, min(end, start + PIECE_S)))
        start += PIECE_S
    return cuts


def main() -> None:
    """Sample every core every INTERVAL_S until standard input closes,
    then print the samples as one JSON object."""
    probe = SpeedProbe()
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    closed = threading.Event()
    threading.Thread(
        target=lambda: (sys.stdin.read(), closed.set()), daemon=True
    ).start()
    while not closed.is_set():
        probe.sample(cpus)
        closed.wait(INTERVAL_S)
    json.dump({name: getattr(probe, name) for name in SAMPLED}, sys.stdout)


if __name__ == "__main__":
    main()
