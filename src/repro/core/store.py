"""One design model per process: the store request-serving analyzers come from.

Everything about a design except its per-block ``(alpha_j, b_j)`` is built
once and reused for every later setup or application profile (Sec. IV-E).
The CLI, service jobs, the fleet coordinator and its workers (through
:func:`repro.core.analyzer.build_analyzer`) and
:func:`repro.exec.batch.run_batch` take their analyzers from here:

- **Designs**, keyed by ``(floorplan, budget, config)`` with the config's
  ``vdd`` cleared: no design-model code reads it, so one design serves
  every supply voltage.  The key is the whole floorplan, block powers
  included, because a point's floorplan is its design's and a scenario's
  ``power_scale`` phases read its powers.  A missing design is built once,
  through the :class:`ReliabilityAnalyzer` constructor, however many
  threads ask for it; a build that raises stores nothing.
- **Each design's own operating point**, keyed by ``(obd_model, vdd)``:
  the analyzer at the floorplan's own thermal solution, whose method
  analyzers (hybrid table included) are built on first use.  A design
  keeps one; a request under another key replaces it.  A point at
  explicit temperatures is made on the stored design and not kept.

The store holds at most :data:`MAX_BYTES` of arrays.  A design is counted
with its point when either is stored, and again when it is next served
after building a lazy part.  Least recently used designs are dropped
while the total is over the bound, and a design larger than the bound
alone is served but not kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.core.analyzer import (
    AnalysisConfig,
    DesignModel,
    ReliabilityAnalyzer,
    operating_point,
    own_thermal,
)
from repro.core.obd_model import OBDModel
from repro.obs import metrics
from repro.variation.components import VariationBudget

__all__ = [
    "MAX_BYTES",
    "clear_design_store",
    "design_store_stats",
    "stored_analyzer",
]

#: Bytes of arrays the store keeps over every design and its point.
MAX_BYTES = 128 * 2**20

_PointKey = tuple[OBDModel, float | None]


def _array_bytes(root: object) -> int:
    """Bytes of the arrays reachable from ``root`` through repro objects, each once."""
    total = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        if isinstance(obj, np.ndarray):
            seen.add(id(obj))
            total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            seen.add(id(obj))
            stack.extend(vars(obj).values())
    return total


class _Entry:
    """One design: its build's outcome, its own point and the bytes they hold."""

    def __init__(self, key: tuple[Any, ...]) -> None:
        self.key = key
        self.built = threading.Event()
        self.design: DesignModel | None = None
        self.point_key: _PointKey | None = None
        self.point: ReliabilityAnalyzer | None = None
        self.nbytes = 0
        self.parts = 0

    def built_parts(self) -> int:
        """Attributes of the design and its point: each lazy part built adds one."""
        return len(vars(self.design)) + len(vars(self.point) if self.point else ())


#: Guards the entries in LRU order, their slots and byte counts, and the counts.
_lock = threading.Lock()
_entries: OrderedDict[tuple[Any, ...], _Entry] = OrderedDict()
_counts = {"hits": 0, "misses": 0, "evictions": 0}


def stored_analyzer(
    floorplan: Floorplan,
    budget: VariationBudget | None = None,
    obd_model: OBDModel | None = None,
    config: AnalysisConfig | None = None,
    block_temperatures: np.ndarray | None = None,
) -> ReliabilityAnalyzer:
    """The analyzer the constructor would build, on the stored design model.

    ``block_temperatures=None`` asks for the design's own operating point;
    explicit temperatures get a point that is not kept.
    """
    budget = budget if budget is not None else VariationBudget.table2()
    obd_model = obd_model if obd_model is not None else OBDModel()
    config = config if config is not None else AnalysisConfig()
    key = (floorplan, budget, replace(config, vdd=None))
    while True:
        with _lock:
            entry = _entries.get(key)
            builds = entry is None
            if entry is None:
                entry = _entries[key] = _Entry(key)
                _counts["misses"] += 1
        if builds:
            metrics.inc("analyzer.store.miss")
            return _build(
                entry, floorplan, budget, obd_model, config, block_temperatures
            )
        entry.built.wait()
        design = entry.design
        if design is not None:
            break
        # The build raised and left no entry: ask again.
    with _lock:
        _counts["hits"] += 1
        if _entries.get(key) is entry:
            _entries.move_to_end(key)
            if entry.parts != entry.built_parts():
                _fit(entry)  # count the parts built since the last count
    metrics.inc("analyzer.store.hit")
    if block_temperatures is not None:
        return operating_point(design, obd_model, config, block_temperatures)
    point_key = (obd_model, config.vdd)
    with _lock:
        if entry.point is not None and entry.point_key == point_key:
            return entry.point
    thermal = own_thermal(design.floorplan, obd_model)
    point = operating_point(
        design, obd_model, config, thermal.block_temperatures, thermal
    )
    with _lock:
        return _keep(entry, point_key, point)


def _build(
    entry: _Entry,
    floorplan: Floorplan,
    budget: VariationBudget,
    obd_model: OBDModel,
    config: AnalysisConfig,
    block_temperatures: np.ndarray | None,
) -> ReliabilityAnalyzer:
    """Build ``entry``'s design through the constructor, store it and wake the waiters."""
    try:
        analyzer = ReliabilityAnalyzer(
            floorplan,
            budget=budget,
            obd_model=obd_model,
            config=config,
            block_temperatures=block_temperatures,
        )
    except BaseException:
        with _lock:
            if _entries.get(entry.key) is entry:
                del _entries[entry.key]
        entry.built.set()
        raise
    with _lock:
        entry.design = analyzer.design
        if block_temperatures is None:
            _keep(entry, (obd_model, config.vdd), analyzer)
        else:
            _fit(entry)
    entry.built.set()
    return analyzer


def _keep(
    entry: _Entry, point_key: _PointKey, point: ReliabilityAnalyzer
) -> ReliabilityAnalyzer:
    """Keep ``point`` as the design's own, or the one another thread kept first.

    The caller holds the lock.
    """
    if entry.point is not None and entry.point_key == point_key:
        return entry.point
    for values in (point.alphas, point.bs, point.block_temperatures):
        values.setflags(write=False)
    entry.point_key, entry.point = point_key, point
    _fit(entry)
    return point


def _fit(entry: _Entry) -> None:
    """Count ``entry`` and drop designs until the store is within :data:`MAX_BYTES`.

    ``entry`` goes alone if it is larger than the bound, else the least
    recently used built designs go.  The caller holds the lock.
    """
    if _entries.get(entry.key) is not entry:
        return
    entry.parts = entry.built_parts()
    entry.nbytes = _array_bytes((entry.design, entry.point))
    victims = [entry] if entry.nbytes > MAX_BYTES else []
    total = sum(stored.nbytes for stored in _entries.values())
    total -= sum(victim.nbytes for victim in victims)
    for other in _entries.values():
        if total <= MAX_BYTES:
            break
        if other is not entry and other.design is not None:
            victims.append(other)
            total -= other.nbytes
    for victim in victims:
        del _entries[victim.key]
        _counts["evictions"] += 1
        metrics.inc("analyzer.store.evict")


def design_store_stats() -> dict[str, int]:
    """Lifetime ``hits``, ``misses`` and ``evictions``; stored ``entries`` and ``bytes``."""
    with _lock:
        nbytes = sum(entry.nbytes for entry in _entries.values())
        return {**_counts, "entries": len(_entries), "bytes": nbytes}


def clear_design_store() -> None:
    """Drop every design and zero the counts (tests)."""
    with _lock:
        _entries.clear()
        _counts.update(hits=0, misses=0, evictions=0)
