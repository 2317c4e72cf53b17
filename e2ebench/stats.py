"""Small statistics helpers shared by the workloads (stdlib only)."""

from __future__ import annotations

import gc
import math
import time
from typing import Sequence

#: What :func:`machine_probe` takes on a quiet 2-core reference box.
#: Timings are reported at this machine speed (see :func:`at_reference`).
REFERENCE_PROBE_S = 0.010


class _Node:
    __slots__ = ("name", "value", "kids")

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.value = value
        self.kids: list = []


def machine_probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The kernel allocates small objects, formats and joins strings and
    fills a dict (the shape of app generation and rendering) with the
    cyclic GC off, and runs no program code.  On a shared box the
    machine speeds up and slows down by tens of percent for seconds to
    minutes at a time; the probe reads that speed so job times can be
    reported at a reference speed.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        nodes = [_Node(f"Lcom/bench/C{i};", i) for i in range(6000)]
        table = {}
        for node in nodes:
            table[node.name] = node
            node.kids = [f"{node.name}->m{j}(I)I" for j in range(4)]
        "\n".join(k for node in nodes for k in node.kids).count("m3")
        return time.perf_counter() - started
    finally:
        gc.enable()


def at_reference(seconds: float, probe_s: float) -> float:
    """*seconds* measured while the probe read *probe_s*, scaled to the
    reference machine speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile by linear interpolation between order statistics.

    Interpolation (rather than nearest rank) keeps a percentile from
    jumping a whole sample when one job moves across it.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def _ranks(values: Sequence[float]) -> list[float]:
    """Average ranks (ties share the mean of their positions)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rank correlation (0.0 when either side is constant)."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
