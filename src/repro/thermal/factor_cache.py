"""Structural caches of the steady-state thermal solve.

Two parts of a floorplan thermal analysis depend only on geometry — *not*
on the power vector — and are cached here, each keyed on the exact
frozen-dataclass values it depends on:

- **Factorizations**, per ``(GridSpec, PackageModel)``.  The conductance
  matrix depends only on the mesh and the package constants.  Every
  iteration of the power-thermal fixed point, every design in a ``repro
  batch`` sweep over temperatures, and every call in a workload sweep
  re-solves the same SPD system with a new right-hand side, so the LU
  factorization is computed once per key and only the back-substitution
  runs per solve (``scipy``'s ``factorized``).
- **Block→mesh maps**, per ``(GridSpec, tuple of block Rects)``.  Each
  block's overlap-fraction vector on the thermal mesh, and its sum, serve
  both directions of an analysis: spreading block power onto the mesh
  and averaging the solved field back per block.  Power changes between
  iterations and requests; the rectangles and the mesh do not.

A changed mesh, package or block rectangle is a different key, so
invalidation is structural.  Both caches are process-wide, thread-safe
and LRU-bounded.

Effectiveness is observable two ways: the module-level
:func:`factor_cache_stats` / :func:`mesh_map_stats` counters (always on,
used by the kernel benchmarks), and the
``thermal.factor_cache.{hit,miss}`` / ``thermal.mesh_map.{hit,miss}``
counters in :mod:`repro.obs.metrics` (populated while observability is
enabled).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any, TypeVar

import numpy as np
from scipy.sparse import csr_matrix

from repro.chip.geometry import GridSpec, Rect
from repro.obs import metrics
from repro.thermal.grid import PackageModel

__all__ = [
    "cached_factorization",
    "cached_mesh_map",
    "clear_factor_cache",
    "factor_cache_stats",
    "mesh_map_stats",
]

#: Factorizations kept alive; each holds the SuperLU object of one mesh
#: (a few MB for the default 48x48 mesh), so the bound stays small.
_MAX_ENTRIES = 8

#: Block→mesh maps kept alive; each holds one dense ``(blocks, cells)``
#: float64 matrix (about 330 KB for the 18-block C6 at mesh 48).
_MAX_MAP_ENTRIES = 8

_Solve = Callable[[np.ndarray], np.ndarray]
_MeshMap = tuple[np.ndarray, np.ndarray]
_T = TypeVar("_T")

#: Per cache: entry bound and obs hit/miss counter names.
_SPECS = {
    "factor_cache": (
        _MAX_ENTRIES,
        "thermal.factor_cache.hit",
        "thermal.factor_cache.miss",
    ),
    "mesh_map": (
        _MAX_MAP_ENTRIES,
        "thermal.mesh_map.hit",
        "thermal.mesh_map.miss",
    ),
}

#: One lock guards both caches: their entries in LRU order and their
#: lifetime hit/miss counts.
_lock = threading.Lock()
_entries: dict[str, OrderedDict[Hashable, Any]] = {
    cache: OrderedDict() for cache in _SPECS
}
_counts = {cache: {"hits": 0, "misses": 0} for cache in _SPECS}


def _get_or_build(
    cache: str, key: Hashable, build: Callable[[], _T]
) -> tuple[_T, bool]:
    """``(value, hit)`` from one cache; ``build`` runs only on a miss."""
    max_entries, hit_counter, miss_counter = _SPECS[cache]
    entries = _entries[cache]
    with _lock:
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            _counts[cache]["hits"] += 1
            metrics.inc(hit_counter)
            return value, True
    # Build outside the lock: a factorization can take milliseconds and
    # other keys' lookups should not wait on it.
    value = build()
    with _lock:
        _counts[cache]["misses"] += 1
        metrics.inc(miss_counter)
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > max_entries:
            entries.popitem(last=False)
    return value, False


def _stats(cache: str) -> dict[str, Any]:
    with _lock:
        return {**_counts[cache], "entries": len(_entries[cache])}


def cached_factorization(
    grid: GridSpec,
    package: PackageModel,
    build_matrix: Callable[[], csr_matrix],
) -> tuple[_Solve, bool]:
    """The back-substitution solver for one conductance system.

    Returns ``(solve, hit)`` where ``solve(rhs)`` applies the cached LU
    factors and ``hit`` tells whether the factorization was reused.
    ``build_matrix`` is only called on a miss.
    """

    def factor() -> _Solve:
        from scipy.sparse.linalg import factorized

        return factorized(build_matrix().tocsc())

    return _get_or_build("factor_cache", (grid, package), factor)


def cached_mesh_map(
    mesh: GridSpec,
    rects: tuple[Rect, ...],
    build: Callable[[], _MeshMap],
) -> _MeshMap:
    """The block→mesh map of ``rects`` on ``mesh``.

    Returns ``(fractions, totals)``: row ``j`` of ``fractions`` is
    ``mesh.overlap_fractions(rects[j])`` and ``totals[j]`` its sum.
    ``build`` computes that pair and is only called on a miss.  The
    returned arrays are shared between callers and therefore read-only.
    """

    def build_frozen() -> _MeshMap:
        fractions, totals = build()
        fractions.setflags(write=False)
        totals.setflags(write=False)
        return fractions, totals

    mesh_map, _hit = _get_or_build("mesh_map", (mesh, rects), build_frozen)
    return mesh_map


def factor_cache_stats() -> dict[str, Any]:
    """Factorization-cache lifetime hit/miss counts and entry count."""
    return _stats("factor_cache")


def mesh_map_stats() -> dict[str, Any]:
    """Block→mesh-map lifetime hit/miss counts and entry count."""
    return _stats("mesh_map")


def clear_factor_cache(reset_stats: bool = True) -> None:
    """Drop every cached factorization and block→mesh map (tests, memory
    pressure)."""
    with _lock:
        for cache, entries in _entries.items():
            entries.clear()
            if reset_stats:
                _counts[cache].update(hits=0, misses=0)
