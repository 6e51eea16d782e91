"""Order statistics and the per-layer self-time fold.

Pure functions over plain lists, shared by run.py, the
workload sessions and the A/A report, and unit-tested on their own.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from collections.abc import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method: rank ``q/100·(n-1)``
    in the sorted sample, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples rank above the ``q``-th percentile's position.

    Counted by rank, so ties at the cut (a coalesced request shares its
    original's latency) do not hide samples.
    """
    return len(values) - 1 - math.floor(q / 100.0 * (len(values) - 1))


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` of a run-level sample.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the default
    exclusive method), which is how run-to-run spread is judged.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return q1, median, q3, spread


def _covered(intervals: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    total = 0.0
    end = t0
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, t1)
        if stop > start:
            total += stop - start
            end = stop
    return total


def adopt_cross_thread(spans: list[dict]) -> None:
    """Give each thread-root span the innermost enclosing span of its request.

    A call that hands work to helper threads (the fleet coordinator's
    dispatchers) opens spans on them with no parent on their own stack.
    Such a root is parented, in place, to the shortest span of the same
    request on another thread whose interval contains it.  Spans without
    a request id are left alone.
    """
    by_request: dict[object, list[dict]] = defaultdict(list)
    for span in spans:
        if span.get("request") is not None:
            by_request[span["request"]].append(span)
    for group in by_request.values():
        if len({span.get("thread") for span in group}) < 2:
            continue
        for span in group:
            if span.get("parent") is not None:
                continue
            enclosing = [
                other for other in group
                if other.get("thread") != span.get("thread")
                and other["t0"] <= span["t0"] and span["t1"] <= other["t1"]
            ]
            if enclosing:
                span["parent"] = min(enclosing, key=lambda o: o["t1"] - o["t0"])["id"]


def fold_self_times(
    spans: Iterable[dict],
) -> dict[str, dict[str, float]]:
    """Fold spans into ``{name: {"calls", "self_s"}}``.

    A span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``name``, ``t0`` and ``t1``.  Its self time is its duration minus the
    part of that interval its child spans cover (children on other
    threads may overlap one another).  Ids are only compared within the
    iterable, so fold one process's spans at a time.  A child whose
    parent is absent (for example filtered out by a time window) counts
    as a root.
    """
    spans = list(spans)
    children: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append((span["t0"], span["t1"]))
    ledger: dict[str, dict[str, float]] = {}
    for span in spans:
        wall = span["t1"] - span["t0"]
        entry = ledger.setdefault(span["name"], {"calls": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        covered = _covered(children.get(span["id"], []), span["t0"], span["t1"])
        entry["self_s"] += max(0.0, wall - covered)
    return ledger
