"""Cross-request artifact cache for expensive derived kernels inputs.

A busy ``repro serve`` / ``repro fleet`` deployment rebuilds the same
derived artifacts on every request over a given design.  Two of them
need a dense ``eigh`` over the grid cells and are cached: the grid
correlation matrix (its PSD projection) and the canonical PCA thickness
model.  Both are keyed by their recipe — the grid's shape and size, the
correlation kernel and distance, the variation budget and the PCA
truncation — so a warm analyzer build hashes a few numbers and reads one
entry, the canonical model.  The BLOD characterisation is not cached:
each block's low-rank variance factor comes straight from the canonical
model in less time than reading it would take.  Hybrid look-up tables
are not cached either: their columns fill on demand.

:class:`ArtifactCache` is a thin :class:`~repro.exec.cache.ResultCache`
subclass: same two-level ``.npz`` layout, atomic tempfile+rename writes,
and corruption→recompute contract, but with its own metric namespace
(``kernels.artifacts.{hit,miss,store,corrupt}`` plus the tiered
``kernels.artifacts.{local,shared}.*`` families) and its own root
(``$REPRO_ARTIFACT_CACHE_DIR``, default ``<result root>/artifacts``) so
``repro cache clear --artifacts`` can purge it without touching result
entries.  Keys go through :func:`~repro.exec.cache.fingerprint`, which
folds the cache schema and the library version in — a release or a
schema bump invalidates every stale artifact without a migration step.

The cache is **on by default** (it only ever stores values that are
bit-exact reconstructions of what the compute path returns — see the
round-trip tests in ``tests/kernels/test_artifacts.py``); set
``REPRO_ARTIFACTS=off`` to disable it, e.g. when benchmarking the cold
path.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from repro.exec.cache import (
    ResultCache,
    default_cache_dir,
    default_shared_cache_dir,
    fingerprint,
)
from repro.obs.logging import get_logger

__all__ = [
    "ArtifactCache",
    "artifact_key",
    "artifacts_enabled",
    "default_artifact_cache_dir",
    "get_artifact_cache",
    "memoize_artifact",
    "set_artifacts_enabled",
    "use_artifacts",
]

logger = get_logger("kernels.artifacts")

_DISABLE_VALUES = frozenset({"off", "0", "false", "no"})

_lock = threading.Lock()
_enabled: bool = (
    os.environ.get("REPRO_ARTIFACTS", "on").strip().lower()
    not in _DISABLE_VALUES
)

#: Untiered counter family (mirrors ``exec.cache.*`` for results).
_ARTIFACT_COUNTERS = {
    "hit": "kernels.artifacts.hit",
    "miss": "kernels.artifacts.miss",
    "corrupt": "kernels.artifacts.corrupt",
    "store": "kernels.artifacts.store",
}

#: Tiered counter families (RPL008: dynamic parts route through a
#: literal dict, keeping the metric namespace enumerable).
_ARTIFACT_TIER_COUNTERS = {
    "local": {
        "hit": "kernels.artifacts.local.hit",
        "miss": "kernels.artifacts.local.miss",
        "corrupt": "kernels.artifacts.local.corrupt",
        "store": "kernels.artifacts.local.store",
    },
    "shared": {
        "hit": "kernels.artifacts.shared.hit",
        "miss": "kernels.artifacts.shared.miss",
        "corrupt": "kernels.artifacts.shared.corrupt",
        "store": "kernels.artifacts.shared.store",
    },
}


def default_artifact_cache_dir() -> Path:
    """``$REPRO_ARTIFACT_CACHE_DIR`` when set, else ``<result root>/artifacts``.

    Nested under the result-cache root so one ``rm -rf`` clears
    everything, while keeping the artifact entries out of the result
    tiers' two-level entry globs.
    """
    env = os.environ.get("REPRO_ARTIFACT_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "artifacts"


def _default_shared_artifact_dir() -> Path:
    return default_shared_cache_dir() / "artifacts"


class ArtifactCache(ResultCache):
    """Content-addressed store for derived kernel artifacts.

    Entry semantics are inherited from :class:`ResultCache`; only the
    metric names and the default roots differ.
    """

    _base_counters = _ARTIFACT_COUNTERS
    _tier_counters = _ARTIFACT_TIER_COUNTERS
    _lookup_metric = "kernels.artifacts.lookup_seconds"

    @classmethod
    def _default_root(cls, tier: str) -> Path:
        if tier == "shared":
            return _default_shared_artifact_dir()
        return default_artifact_cache_dir()


def artifacts_enabled() -> bool:
    """True when artifact memoization is active."""
    return _enabled


def set_artifacts_enabled(enabled: bool) -> None:
    """Globally enable or disable artifact memoization."""
    global _enabled
    with _lock:
        _enabled = bool(enabled)


@contextmanager
def use_artifacts(enabled: bool) -> Iterator[None]:
    """Temporarily force artifact memoization on or off (tests, benches)."""
    previous = _enabled
    set_artifacts_enabled(enabled)
    try:
        yield
    finally:
        set_artifacts_enabled(previous)


def get_artifact_cache() -> ArtifactCache | None:
    """The process's local-tier artifact cache, or ``None`` when disabled.

    Constructed per call (cheap: a path + dict assignment) so tests and
    long-lived services always see the current
    ``$REPRO_ARTIFACT_CACHE_DIR``.
    """
    if not _enabled:
        return None
    return ArtifactCache()


def artifact_key(kind: str, payload: Any) -> str:
    """A stable fingerprint for one artifact of the given ``kind``.

    ``payload`` must contain everything that determines the artifact's
    value (design geometry, configuration knobs, input arrays); the
    code version and cache schema are folded in by ``fingerprint``.
    """
    return fingerprint(
        {"kind": "kernels.artifact", "artifact": kind, "payload": payload}
    )


def memoize_artifact(
    kind: str,
    payload: Any,
    compute: Callable[[], dict[str, np.ndarray]],
    required: tuple[str, ...] = (),
) -> dict[str, np.ndarray]:
    """Return the cached arrays for ``(kind, payload)`` or compute+store.

    The contract callers rely on: the returned dict is bit-identical
    whether it came from ``compute()`` or from disk (``.npz`` round-trips
    arrays exactly), so enabling the cache can never change results.
    ``required`` names that are missing from a stored entry demote it to
    a recompute-and-overwrite, so truncated entries can never surface.
    """
    cache = get_artifact_cache()
    if cache is None:
        return compute()
    key = artifact_key(kind, payload)
    cached = cache.get(key)
    if cached is not None and all(name in cached for name in required):
        return cached
    arrays = compute()
    try:
        cache.put(key, arrays, meta={"artifact": kind})
    except OSError as exc:
        logger.warning("cannot store %s artifact: %s", kind, exc)
    return arrays
