"""Host speed sampler: how fast the benchmark's CPU runs, while it runs.

The benchmark's host is a share of a machine whose speed moves by up to a
factor of two within seconds, with other tenants' load.  `run.py` pins
itself, and so every process it starts, to one CPU, and starts this
sampler there.  Every SAMPLE_EVERY_S the sampler wakes, runs a fixed
chunk of work of the kind `ncg` does (exact rational elimination, then a
dictionary keyed by tuples; about two milliseconds of CPU time) and records
when it ran and the CPU time the chunk took; it sleeps the rest of the
time, so it takes about two per cent of the CPU from the program.  The
host's speed at a sample is 1 / chunk time.  A timed interval is scaled to
a host on which the chunk takes NOMINAL_S, by the mean speed of the samples
taken during it:

    scaled seconds = wall seconds * NOMINAL_S * mean(1 / chunk time)

That is the work the interval got done, in units of what the nominal host
does in a second.  The chunk uses nothing from `ncg`, so a change to the
program cannot move it: a slower program still reads slower, and only the
host's own drift divides out.

    python3 perfbench/hostspeed.py CPU SAMPLES_FILE    (started by Sampler)
"""

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
# CPU seconds of one chunk at the reference host speed: about its median on
# a 2-core Xeon VM with Python 3.11.  A fixed constant: it sets the scale of
# the reported seconds, not their ratios.
NOMINAL_S = 0.0018
# A set-up interval is shorter than the sampling period; the samples this
# close to either end of it count as well.
PAD_S = 1.0


def benchmark_cpu():
    """The CPU the benchmark pins itself to, or None where it cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return min(os.sched_getaffinity(0))


def _chunk():
    n = 6
    rows = [[Fraction((i * 7 + j * 13) % 17 + 1, (i + 2 * j) % 5 + 1)
             for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    acc = {}
    for i in range(1500):
        key = (i % 13, str(i % 101))
        acc[key] = acc.get(key, 0) + i * i
    return rows, acc


def _sample(cpu, path):
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:
            start, cpu_start = time.monotonic(), time.process_time()
            _chunk()
            out.write(f"{start!r} {time.process_time() - cpu_start!r}\n")
            time.sleep(SAMPLE_EVERY_S)


class Sampler:
    """Runs the sampler process for the length of a `with` block."""

    def __init__(self, path, cpu):
        self.path = path
        self.cpu = cpu
        self.proc = None
        self.samples = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu), str(self.path)],
            stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait(timeout=30)
        return False

    def read(self):
        samples = []
        for line in self.path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
        self.samples = samples

    def scale(self, start, end, pad=0.0):
        """Factor from wall seconds to seconds at the nominal host speed,
        for the interval from `start` to `end` (time.monotonic values)."""
        chunks = [c for t, c in self.samples if start - pad <= t <= end + pad]
        if not chunks:
            raise RuntimeError("no host speed sample covers a timed interval")
        return NOMINAL_S * statistics.fmean(1 / c for c in chunks)


if __name__ == "__main__":
    _sample(None if sys.argv[1] == "None" else int(sys.argv[1]), sys.argv[2])
