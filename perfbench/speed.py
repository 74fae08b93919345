"""Host-speed reference: a fixed pure-Python kernel, timed between and within queries.

On a shared host the CPU runs the same interpreter loop up to 1.8 times
slower for minutes at a time (wall time and CPU time alike, so it is not
time stolen by the hypervisor).  Raw wall times of two runs made minutes
apart then differ by more than any change to the program would.

The kernel below does the kinds of work lpaideals does (frozenset algebra,
dict and tuple traffic, small method calls, sorting) and is never changed
by a change to the program.  Its time, taken as the fastest of a few
repetitions, says how fast the host runs right now.  A measured time t is
reported as t * REF_KERNEL_S / kernel_time: the time the same work would
take on a host where the kernel takes REF_KERNEL_S, which is what the
kernel takes on a 2-vCPU cloud host in its fast phases (Python 3.11).
Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

REF_KERNEL_S = 0.0003
REPS = 3
SAMPLE_EVERY_S = 0.025  # CPU seconds between samples taken inside one query


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key, succ):
        self.key = key
        self.succ = succ

    def reach(self, table):
        return self.succ | table.get(self.key, frozenset())


def kernel() -> int:
    nodes = [_Node(i, frozenset(((i * 7) % 31, (i * 11) % 31, (i + 1) % 31)))
             for i in range(31)]
    table = {}
    acc = 0
    for round_ in range(8):
        for node in nodes:
            got = node.reach(table)
            table[node.key] = got | {round_}
            acc += len(got & nodes[(node.key + round_) % 31].succ)
            pair = (node.key, len(got))
            acc ^= hash(pair) & 0xFF
    ordered = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return acc + sum(len(v) for _, v in ordered)


def sample() -> float:
    """Seconds the kernel takes now: the fastest of REPS runs."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class InQuery:
    """Samples the kernel from a SIGPROF handler while one query runs.

    The host changes speed within a long query too, so its speed is also
    sampled there.  The handler's own time is summed apart, to be taken out
    of the query's time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
