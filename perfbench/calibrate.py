"""How fast the host runs Python at this moment, from a fixed reference kernel.

On a shared host the speed of the CPU the benchmark gets drifts by tens of
per cent over seconds to minutes, and every timing in a run moves with it.
The benchmark therefore times this kernel right before and after each op
and each set-up, and scales the op's time by ``REFERENCE_S`` divided by the
kernel's time around it: a time reads as it would at the speed the host
had when ``REFERENCE_S`` was measured.

The kernel does the kind of work the library does (indexing a Cayley table
held as lists, building small sets, membership tests) and never touches
``groupmatch``, so a change to the library cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

ORDER = 40
TABLE = [[(i * j + 3 * i + 5 * j) % ORDER for j in range(ORDER)] for i in range(ORDER)]
ROUNDS = 6
# Median time of one sample() on an unloaded "Intel(R) Xeon(R) Processor"
# 2-CPU virtual machine, Python 3.11.7.
REFERENCE_S = 0.0020


def kernel() -> int:
    hits = 0
    for a in range(ORDER):
        row = TABLE[a]
        image = {row[b] for b in range(ORDER) if b % 3}
        hits += sum(1 for x in range(ORDER) if x in image)
    return hits


def sample() -> float:
    """Seconds taken by ROUNDS runs of the kernel, back to back."""
    start = perf_counter()
    for _ in range(ROUNDS):
        kernel()
    return perf_counter() - start


def scales(samples: list, window: int = 4) -> list:
    """The speed scale for the interval between samples[i] and samples[i + 1].

    It is ``REFERENCE_S`` over the mean of the samples from ``i - window + 1``
    to ``i + window``.  The mean, not the median, because a host that steals
    the CPU in short slices slows some samples a lot and most not at all, and
    the op between them sees the average.
    """
    out = []
    for i in range(len(samples) - 1):
        out.append(REFERENCE_S / statistics.fmean(samples[max(0, i - window + 1): i + window + 1]))
    return out


if __name__ == "__main__":
    times = [sample() for _ in range(2000)]
    print(f"median {statistics.median(times):.6f} s, min {min(times):.6f} s "
          f"over {len(times)} samples")
