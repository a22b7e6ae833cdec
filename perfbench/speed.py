"""A reference loop that samples the speed of the CPU the cases run on.

On a shared machine the CPU a child runs on can go twice as slow for
seconds at a time, and CPU time slows with it.  run.py starts this loop
niced, on the one CPU the run is pinned to, so that it gets a small slice
of that CPU throughout every case and is slowed by whatever slows the
case.  Asked on stdin, it replies with the reference units it finished
and the CPU seconds it spent on them; units per CPU second, divided by
REFERENCE_RATE, is the speed factor run.py scales timings by.

    python3 perfbench/speed.py        (then one line per sample request)
"""

from __future__ import annotations

import os
import sys
import threading
import time
from fractions import Fraction

NICE = 15
# units per CPU second on an unloaded 2 GHz core of the machine the
# benchmark was defined on; it only fixes the scale of the scaled timings
REFERENCE_RATE = 40_000.0


def unit() -> int:
    """One unit of exact-arithmetic work in the style of nilvar's: Fraction
    rows cleared to integers and one fraction-free elimination step."""
    row = [Fraction(i + 1, (i % 3) + 1) for i in range(6)]
    ints = [int(v * 6) for v in row]
    piv, prev = ints[0], 1
    return sum((v * piv - ints[-1] * w) // prev for v, w in zip(ints, reversed(ints)))


class Loop:
    def __init__(self):
        self.units = 0
        self.cpu = 0.0

    def run(self):
        clock = time.thread_time
        while True:
            t0 = clock()
            for _ in range(20):
                unit()
            self.cpu += clock() - t0
            self.units += 20


def main():
    os.nice(NICE)
    loop = Loop()
    threading.Thread(target=loop.run, daemon=True).start()
    for _ in sys.stdin:
        print(loop.units, loop.cpu, flush=True)


if __name__ == "__main__":
    main()
