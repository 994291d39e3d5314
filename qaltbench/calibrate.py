"""Speed probe for the benchmark: times a fixed dict-and-tuple workload that
does not touch qalt, once per line read from standard input.

run.py starts it as a child process, so that the probe's few megabytes stay
out of the run's peak RSS, and asks for a probe between jobs.  The table is
large enough to leave the core's private caches, so the probe slows with
the same contention for shared cache and memory that slows qalt.

    python3 qaltbench/calibrate.py    # then one empty line per probe
"""

import gc
import sys
import time


def calibrate() -> float:
    """Wall time of the probe, with the garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[(i * 7919) % 50021, i % 13] = i
        sum(table.values())
        return time.perf_counter() - t0
    finally:
        gc.enable()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
