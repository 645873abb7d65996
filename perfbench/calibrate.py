"""A fixed reference workload that measures how fast the host is right now.

The host's speed drifts by tens of percent, for seconds and for minutes
at a time, with CPU time equal to wall time: the machine itself runs
slower, so no clock inside the process can tell drift from a change to
the program.  So between every two iterations, ``run.py`` times
:func:`kernel`, a small discrete-event simulation written here and never
changed, in a fresh process of its own (``python3 perfbench/calibrate.py``
prints the time), so that the iteration's process starts untouched.  The
kernel is made of the same stuff as the program's hot path (a heap of
event objects, method dispatch, dict updates and a growing log of small
records), so it slows down with the host in the same way.

``run.py`` divides each host time of an iteration by the mean of the
kernel times measured just before and just after it, and multiplies by
:data:`REFERENCE_S`, a fixed kernel time: host times are reported in
*reference seconds*, the time the iteration would have taken on a host
that ran the kernel in :data:`REFERENCE_S`.  The raw seconds are
reported next to them.

Changing the kernel or :data:`REFERENCE_S` changes every reference
time; do it only together with new results for the parent commit.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: Seconds the kernel typically takes on the host the benchmark was
#: written on, a 2-vCPU Xeon VM running Python 3.11 (0.36 s when that
#: host is quiet, 0.56 s when it is busy).
REFERENCE_S = 0.5

#: Events the kernel dispatches.
EVENTS = 100_000


class _Event:
    __slots__ = ("time", "seq", "action", "arg")

    def __init__(self, time: float, seq: int,
                 action: Callable[[Any], None], arg: Any) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.arg = arg

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Loop:
    def __init__(self) -> None:
        self.queue: List[_Event] = []
        self.now = 0.0
        self.seq = 0
        self.log: List[Tuple[float, int, Dict[str, int]]] = []

    def after(self, delay: float, action: Callable[[Any], None],
              arg: Any) -> None:
        self.seq += 1
        heapq.heappush(self.queue, _Event(self.now + delay, self.seq,
                                          action, arg))

    def run(self, events: int) -> None:
        queue, log = self.queue, self.log
        for _ in range(events):
            event = heapq.heappop(queue)
            self.now = event.time
            log.append((event.time, event.seq, {"seq": event.seq}))
            event.action(event.arg)


class _Node:
    def __init__(self, loop: _Loop) -> None:
        self.loop = loop
        self.peer: "_Node" = self
        self.store: Dict[int, Tuple[int, int]] = {}

    def receive(self, message: Tuple[int, int]) -> None:
        key, value = message
        old = self.store.get(key)
        self.store[key] = (value, old[1] + 1 if old else 1)
        self.loop.after(0.001 * (value % 7 + 1), self.peer.receive,
                        ((key + 1) & 255, value + 1))


def kernel() -> float:
    """Run the reference workload once; returns its wall in seconds."""
    started = time.perf_counter()
    loop = _Loop()
    first, second = _Node(loop), _Node(loop)
    first.peer, second.peer = second, first
    for index in range(64):
        loop.after(index * 1e-4, first.receive, (index, index * 5 + 1))
    loop.run(EVENTS)
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(kernel()))
    sys.exit(0)
