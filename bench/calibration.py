"""A fixed kernel that measures how fast the host runs Python right now.

On a shared machine the same call was seen to take anywhere from 0.83 s
to 1.64 s as other tenants came and went, in phases lasting tens of
seconds to minutes, with CPU time tracking wall time; a whole run can
fall inside one slow phase, so no statistic within the run removes it.
The benchmark therefore times this kernel every second or so between
the models of a run, and scales the run by it: a time divided by the
kernel's mean time over the run, times the kernel's time on the
reference host, is the time the work would have taken there in a quiet
phase.  Speed also jitters from one second to the next, so the mean over
the whole run is steadier than the kernel time next to each model.

The kernel does the kind of work stackpol does (frozensets, dicts,
tuples and their hashes over a few MB) and nothing of stackpol, so a
change to the program moves the scaled times as much as the raw ones.
It only hashes ints and tuples of ints, so its work does not depend on
the interpreter's hash seed.  It runs in a child process of its own, so
the few MB it allocates stay out of the run's peak RSS.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from time import perf_counter

# the kernel's wall time on the reference host (x86_64, 2 CPUs,
# Python 3.11.7) in a quiet phase; it only sets the unit of scaled times
REFERENCE_S = 0.16

_SETS = 6000
_UNIVERSE = 4000


def kernel() -> int:
    """Build, index and compare a few thousand small frozensets."""
    rng = random.Random(1)
    sets = [frozenset(rng.sample(range(_UNIVERSE), 12)) for _ in range(_SETS)]
    index: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        for x in s:
            index.setdefault(x, []).append(i)
    seen = set()
    for i in range(0, _SETS, 3):
        union = sets[i] | sets[i - 1]
        for x in union:
            for j in index[x][:6]:
                seen.add((x, sets[j] <= union))
        seen.add(hash(tuple(sorted(union))) & 1023)
    return len(seen)


def seconds() -> float:
    """Wall time of one run of the kernel, after a full collection."""
    gc.collect()
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibrator:
    """The kernel in a child process, sampled all through a run.

    The child waits on its stdin between requests, so it takes no CPU
    while the benchmark measures.  ``sample_if_due`` times the kernel
    once ``every`` seconds have passed since the last sample; ``scale``
    turns the run's wall times into reference seconds.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self._time()  # the first run warms the child's caches
            self.sample()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the calibration process exited with {self.proc.wait()}")
        return float(line)

    def sample(self) -> None:
        self.samples.append(self._time())
        self.since = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self.since >= self.every:
            self.sample()

    def scale(self) -> float:
        """Reference time over the mean kernel time of the run."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def __exit__(self, *_exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for _request in sys.stdin:
        print(seconds(), flush=True)
