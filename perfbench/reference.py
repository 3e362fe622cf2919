"""The reference kernel: a yardstick for how fast the host runs right now.

The sandbox the benchmark runs on shares its cores with other tenants, and
the same instruction stream takes up to 1.5x longer from one minute to the
next.  No statistic over the passes of one run removes that; timing fixed,
known work next to every pass does.  The kernel below is that work: a toy
discrete-event loop in pure Python with the simulator's instruction mix
(generators resumed from a heap of tuples, dict and list traffic, many small
allocations).  It imports nothing from ``repro``, so no change to the
program under test can move it.

``scale(pass_wall, before, after)`` turns a measured wall time into seconds
*at nominal speed*: the time the pass would have taken had the kernel run in
:data:`NOMINAL_S`, as it does on this sandbox when it is quiet.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

__all__ = ["NOMINAL_S", "kernel", "timed_kernel", "scale"]

#: Kernel time on the quiet 2-core sandbox the benchmark was sized on.
NOMINAL_S = 0.25


def kernel() -> int:
    """Run the toy event loop to completion; returns the events processed."""
    processes, steps = 4000, 24
    def process(index):
        total = 0
        for step in range(steps):
            total += yield (index * 7 + step * 13) % 101 + 1
        return total

    heap: list = []
    latest: dict = {}
    inboxes: list = [[] for _ in range(processes)]
    generators = [process(index) for index in range(processes)]
    sequence = 0
    for index, generator in enumerate(generators):
        heapq.heappush(heap, (float(next(generator)), sequence, index))
        sequence += 1
    events = 0
    while heap:
        now, _, index = heapq.heappop(heap)
        message = (now, index, sequence, [now] * 8)
        inbox = inboxes[(index * 31 + sequence) % processes]
        inbox.append(message)
        if len(inbox) > 4:
            del inbox[0]
        latest[(index, sequence & 1023)] = message
        events += 1
        try:
            delay = generators[index].send(1)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, sequence, index))
        sequence += 1
    return events


def timed_kernel() -> float:
    """Seconds one kernel run takes right now, in a fresh interpreter.

    A fresh process, because the kernel allocates: inside the measuring
    process its speed would follow the state of that process's heap (it runs
    1.8x slower after a p=8192 simulation has fragmented it), and a change
    to the program under test could then move the yardstick.
    """
    done = subprocess.run([sys.executable, "-S", "-E", __file__],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at nominal speed, given the kernel times around it."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))


if __name__ == "__main__":
    _start = time.perf_counter()
    kernel()
    print(repr(time.perf_counter() - _start))
