"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared machine the speed of one core drifts by a third or more
over tens of seconds, for every program alike.  The benchmark runs `kernel()`
(fixed pure-Python work shaped like plugflow's: frozen-dataclass hashing,
dict building, JSON encoding, float formatting) between ops and scales each
op's time by REFERENCE_S over the mean of the kernel runs just before and
just after it.  A scaled time is
what the op would take at the speed where the kernel takes REFERENCE_S.  The
kernel imports nothing from plugflow, so a change to the program moves scaled
times exactly as it moves real ones.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass

REFERENCE_S = 0.060     # kernel time that defines the reference speed
ROUNDS = 32             # the kernel's fixed work, repeated to span ~60 ms
BATCH = 300             # nodes per round: small, so the kernel's memory
                        # stays below the program's and cannot set peak RSS


@dataclass(frozen=True)
class _Node:
    a: int
    b: str
    c: tuple


def kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds.

    The garbage collector is off meanwhile, so the time does not depend on
    how many objects the program under test keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _work() -> None:
    nodes = [_Node(i, f"n{i % 61}", (i % 5, i % 7)) for i in range(BATCH)]
    index: dict[_Node, list[int]] = {}
    for node in nodes:
        index.setdefault(node, []).append(node.a)
    pairs = sum(1 for x, y in zip(nodes, nodes[1:]) if x.c == y.c or x == y)
    text = json.dumps([{"a": n.a, "b": n.b, "c": list(n.c)} for n in nodes[:BATCH // 2]],
                      indent=2, sort_keys=True)
    points = " ".join(f"{math.log(abs(math.sin(0.001 + i * 0.37)) + 1e-9):.2f}"
                      for i in range(BATCH))
    if len(index) + pairs + len(text) + len(points) <= 0:
        raise AssertionError("calibration kernel did no work")


def factor(before: float, after: float) -> float:
    """Scale from the speed seen by the kernel runs around a timing to the reference."""
    return 2 * REFERENCE_S / (before + after)


def scaled(times: list[float], kernels: list[tuple[float, float]]) -> list[float]:
    """Each time at the reference speed, from its (before, after) kernel runs."""
    return [t * factor(*k) for t, k in zip(times, kernels)]
