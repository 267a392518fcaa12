"""Reference loop: a fixed piece of pure-Python work that measures how fast
the machine is running right now.

On a shared machine the speed of the CPU can change by tens of percent
from one minute to the next, and a program's wall time changes with it.
The benchmark runs :func:`reference` next to the program (before and after
each stretch of jobs, and inside every set-up interpreter) and reports the
program's times *scaled to nominal speed*: ``wall * NOMINAL_S / ref``,
where ``ref`` is the reference loop's time measured alongside. Drift that
slows both by the same factor cancels; a change to the program does not,
since the loop never calls it.

The loop mixes the operations the program spends its time in: integer
arithmetic, dict and set updates, a heap, attribute reads on small objects
and a sort. It is part of the benchmark and must not change between the
commits being compared.
"""

from __future__ import annotations

import heapq
import random
import time

#: The reference loop's time at nominal speed (s). Times reported "at
#: nominal speed" are those of a machine on which the loop takes this long.
NOMINAL_S = 0.05

_rng = random.Random(7)
_XS = [_rng.random() for _ in range(6000)]
_KEYS = [f"f{i % 1500}" for i in range(6000)]


class _Node:
    __slots__ = ("weight", "key")

    def __init__(self, weight: float, key: str) -> None:
        self.weight = weight
        self.key = key


def _arith() -> int:
    s = 0
    for i in range(350_000):
        s += i * i % 7
    return s


def _mixed() -> float:
    acc = 0.0
    for _ in range(4):
        totals: dict[str, float] = {}
        heap: list[tuple[float, str]] = []
        nodes = []
        for key, x in zip(_KEYS, _XS):
            totals[key] = totals.get(key, 0.0) + x
            heapq.heappush(heap, (x, key))
            nodes.append(_Node(x, key))
            if len(heap) > 64:
                acc += heapq.heappop(heap)[0]
        shared = set(_KEYS[::3]) & set(_KEYS[1::2])
        acc += sum(n.weight for n in nodes if n.key in shared)
        acc += sorted(_XS)[3000] + sum(totals.values())
    return acc


def reference() -> float:
    """Run the reference loop once; returns its wall time (s)."""
    t0 = time.perf_counter()
    _arith()
    _mixed()
    return time.perf_counter() - t0
