"""Sample how fast the CPU under a benchmark run is.

    python benchmarks/e2e/hostspeed.py EVERY_S

Every ``EVERY_S`` seconds it runs :func:`reference` once and records
when it started (``time.perf_counter``) and the CPU time it took.  On
SIGTERM it prints the samples as one JSON list and exits.  ``run.py``
starts it on the CPU the run is pinned to and scales the run's times by
it (see ``run.HostSpeed``).

CPU time leaves out the time the sampler waited for the CPU, so a
sample measures the speed of the CPU itself: on a virtual machine that
shares its host, that speed changes from second to second.
"""

from __future__ import annotations

import json
import signal
import sys
import time

#: CPU seconds one pass of :func:`reference` takes on the reference CPU:
#: the fastest state of the 2-vCPU VM this benchmark was built on
#: (0.20 ms; its slow state took up to 0.49 ms).
REFERENCE_S = 0.0002


def reference() -> int:
    """A fixed mix of the interpreter's work: integer arithmetic, dict
    and list updates, small strings."""
    total, table, items = 0, {}, []
    for i in range(1000):
        total += i * i % 7
        table[i & 255] = total
        items.append(str(i))
    return total + len(items)


def main(argv: list[str]) -> int:
    every_s = float(argv[0])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    samples = []
    try:
        while True:
            time.sleep(every_s)
            start, cpu = time.perf_counter(), time.thread_time()
            reference()
            samples.append((start, time.thread_time() - cpu))
    finally:
        print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
