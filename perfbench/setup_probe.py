"""Time one set-up in a fresh interpreter: import dissipair, write a workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the elapsed seconds as its last line.  run.py starts this several
times, one after another, and reports the median as setup_s.

numpy is imported before the timed window.  Its import is the larger
part of a fresh interpreter's start-up, the program cannot change it, and
on a shared host it flips between two speeds (about 0.09 s and 0.16 s on
a 2-vCPU VM) for minutes at a time, which would hide the program's own
set-up cost in the host's noise.
"""

import sys
import time

import numpy  # noqa: F401  outside the timed window, see above


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    import workloads  # dissipair loads here, inside the timed window

    workloads.prepare(name, seed, workdir)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
