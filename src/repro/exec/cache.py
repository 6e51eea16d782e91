"""Content-addressed result cache for expensive analyses.

Results are stored as single ``.npz`` entries under a two-level directory
keyed by a **stable fingerprint** of everything that determines the result:
the design, the analysis configuration, the request parameters, and the
library version (:func:`fingerprint` folds the code version and a cache
schema number in automatically, so upgrading either invalidates every
stale entry without a migration step).

Layout::

    <root>/<key[:2]>/<key>.npz      # arrays + JSON meta, written atomically

``<root>`` is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.

Behavioural contract:

- a **hit** returns arrays bit-identical to what was stored
  (``exec.cache.hit`` counter);
- a **miss** returns ``None`` (``exec.cache.miss``);
- a **corrupted or partial entry** is logged, counted
  (``exec.cache.corrupt``) and treated as a miss — callers recompute and
  overwrite; corruption is never allowed to crash an analysis.

Tiers
-----
A cache instance belongs to one of two **tiers** — ``"local"`` (the
default: one machine's private store) or ``"shared"`` (the
coordinator-merged store a :mod:`repro.fleet` run deduplicates shard
work through).  The tier labels the per-instance counters
(``exec.cache.local.hit`` / ``exec.cache.shared.hit`` and friends, a
static two-entry namespace) on top of the legacy untiered family, so
``repro cache stats`` and ``/metrics`` can report hit ratios per tier.
The shared tier's default root is ``$REPRO_SHARED_CACHE_DIR`` when set,
else ``<local root>/shared``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.obs.logging import get_logger

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_TIERS",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "default_shared_cache_dir",
    "fingerprint",
    "get_json_payload",
    "put_json_payload",
]

logger = get_logger("exec.cache")

#: Bump to invalidate every existing cache entry on a format change or
#: on a change in the numbers the code computes: the library version is
#: static between releases, so it alone does not re-key stale results.
CACHE_SCHEMA = 3

#: The cache tiers a :class:`ResultCache` instance can belong to.
CACHE_TIERS = ("local", "shared")

#: Static per-tier metric families (RPL008: dynamic parts route through a
#: literal dict, so the metric namespace stays enumerable).
_BASE_COUNTERS = {
    "hit": "exec.cache.hit",
    "miss": "exec.cache.miss",
    "corrupt": "exec.cache.corrupt",
    "store": "exec.cache.store",
}

_TIER_COUNTERS = {
    "local": {
        "hit": "exec.cache.local.hit",
        "miss": "exec.cache.local.miss",
        "corrupt": "exec.cache.local.corrupt",
        "store": "exec.cache.local.store",
    },
    "shared": {
        "hit": "exec.cache.shared.hit",
        "miss": "exec.cache.shared.miss",
        "corrupt": "exec.cache.shared.corrupt",
        "store": "exec.cache.shared.store",
    },
}

_META_KEY = "__meta__"

#: JSON document key under which whole-payload entries are cached (the
#: service's finished job results and the fleet's shard-group results).
_PAYLOAD_FIELD = "payload_json"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def default_shared_cache_dir() -> Path:
    """``$REPRO_SHARED_CACHE_DIR`` when set, else ``<local root>/shared``.

    Nested under the local root by default so a single ``rm -rf`` clears
    both tiers, while the two-level ``??/`` entry layout keeps the tiers'
    entry lists disjoint.
    """
    env = os.environ.get("REPRO_SHARED_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "shared"


def _canonical(obj: Any) -> Any:
    """A JSON-serialisable canonical form with stable float/array encoding."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr(np.float64(x)) differs from repr(x); normalise first.
        return repr(float(obj))
    if isinstance(obj, (np.bool_, np.integer)):
        return int(obj)
    if isinstance(obj, np.floating):
        return repr(float(obj))
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return {
            "__ndarray__": digest.hexdigest(),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, dict):
        return {
            str(key): _canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    raise ConfigurationError(
        f"cannot fingerprint value of type {type(obj).__name__}"
    )


def fingerprint(payload: Any) -> str:
    """A stable sha256 hex key for ``payload``.

    The cache schema number and the library version are folded in, so a
    release or a schema bump re-keys (and thereby invalidates) every
    entry.
    """
    # Imported lazily: repro/__init__ -> core -> exec would otherwise cycle.
    from repro import __version__

    document = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "payload": _canonical(payload),
    }
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one cache tier's directory.

    ``hits``/``misses`` are the process-lifetime counters of the tier's
    metric family (not persisted on disk), so the reported hit ratio
    describes the current process — exactly what the fleet's ≥90%%
    shared-hit acceptance gate measures.
    """

    root: str
    entries: int
    total_bytes: int
    tier: str = "local"
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        """Process-lifetime hit fraction (0.0 when the tier is untouched)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form for the ``repro cache stats`` CLI."""
        return {
            "root": self.root,
            "tier": self.tier,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
        }


class ResultCache:
    """Content-addressed array store (see the module docstring).

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir` for the
        local tier and :func:`default_shared_cache_dir` for the shared
        tier.
    tier:
        ``"local"`` (default) or ``"shared"`` — labels this instance's
        metric counters and stats; never changes entry semantics.

    Subclasses (the kernels-layer ``ArtifactCache``) override the class
    attributes below to relabel the metric namespace and the default
    roots while inheriting the entry format, atomic writes and
    corruption handling unchanged.
    """

    #: Untiered counter family every instance increments.
    _base_counters: dict[str, str] = _BASE_COUNTERS
    #: Per-tier counter families (also defines the valid tier names).
    _tier_counters: dict[str, dict[str, str]] = _TIER_COUNTERS
    #: Histogram observed once per ``get`` call.
    _lookup_metric: str = "exec.cache.lookup_seconds"

    def __init__(
        self, root: str | Path | None = None, tier: str = "local"
    ) -> None:
        tier_counters = type(self)._tier_counters
        if tier not in tier_counters:
            raise ConfigurationError(
                f"unknown cache tier {tier!r}; "
                f"expected one of {tuple(tier_counters)}"
            )
        if root is not None:
            self.root = Path(root)
        else:
            self.root = type(self)._default_root(tier)
        self.tier = tier
        self._counters = tier_counters[tier]

    @classmethod
    def _default_root(cls, tier: str) -> Path:
        """The tier's root when none is given (overridden by subclasses)."""
        if tier == "shared":
            return default_shared_cache_dir()
        return default_cache_dir()

    def _count(self, event: str) -> None:
        """Increment the untiered and tiered counters for one event."""
        metrics.inc(self._base_counters[event])
        metrics.inc(self._counters[event])

    def path_for(self, key: str) -> Path:
        """Entry path for a fingerprint key."""
        if len(key) < 3:
            raise ConfigurationError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The stored arrays for ``key``, or ``None`` on miss/corruption."""
        lookup_started = time.perf_counter()
        try:
            return self._get(key)
        finally:
            metrics.observe(
                self._lookup_metric,
                time.perf_counter() - lookup_started,
            )

    def _get(self, key: str) -> dict[str, np.ndarray] | None:
        path = self.path_for(key)
        if not path.exists():
            self._count("miss")
            return None
        try:
            with np.load(path, allow_pickle=False) as handle:
                arrays = {
                    name: handle[name]
                    for name in handle.files
                    if name != _META_KEY
                }
                if _META_KEY not in handle.files:
                    raise ConfigurationError("cache entry missing metadata")
        except (
            OSError,
            ValueError,
            KeyError,
            ConfigurationError,
            zipfile.BadZipFile,
        ) as exc:
            self._count("corrupt")
            self._count("miss")
            logger.warning(
                "corrupted cache entry %s (%s); recomputing",
                path,
                exc,
                extra={"metric": self._base_counters["corrupt"]},
            )
            return None
        self._count("hit")
        return arrays

    def get_meta(self, key: str) -> dict[str, Any] | None:
        """The stored metadata for ``key`` (``None`` on miss/corruption)."""
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as handle:
                meta = json.loads(str(handle[_META_KEY][()]))
                return meta if isinstance(meta, dict) else None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def put(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any] | None = None,
    ) -> Path:
        """Atomically store ``arrays`` (+ JSON ``meta``) under ``key``."""
        if _META_KEY in arrays:
            raise ConfigurationError(f"{_META_KEY!r} is a reserved array name")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        payload = {
            name: np.asarray(value) for name, value in arrays.items()
        }
        payload[_META_KEY] = np.array(
            json.dumps({"key": key, **(meta or {})}, sort_keys=True)
        )
        np.savez(buffer, **payload)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer.getvalue())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("store")
        return path

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.npz"))

    def stats(self) -> CacheStats:
        """Entry count, total size on disk, and this process's hit ratio."""
        entries = self._entries()
        total = sum(path.stat().st_size for path in entries)
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=total,
            tier=self.tier,
            hits=int(metrics.get_counter(self._counters["hit"])),
            misses=int(metrics.get_counter(self._counters["miss"])),
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        entries = self._entries()
        for path in entries:
            path.unlink(missing_ok=True)
            try:
                path.parent.rmdir()
            except OSError:
                pass  # shared prefix directory still holds other entries
        return len(entries)


# ----------------------------------------------------------------------
# Whole-payload (JSON document) entries
# ----------------------------------------------------------------------
#
# The service's job results and the fleet's shard-group results are JSON
# documents, not array bundles; both store them as a single 0-d string
# array under one reserved field so the two layers share entry format,
# corruption handling and metrics.


def get_json_payload(
    cache: ResultCache | None, key: str
) -> dict[str, Any] | None:
    """A cached JSON payload for ``key``, or ``None`` on miss/corruption."""
    if cache is None:
        return None
    arrays = cache.get(key)
    if arrays is None or _PAYLOAD_FIELD not in arrays:
        return None
    try:
        payload = json.loads(str(arrays[_PAYLOAD_FIELD][()]))
    except ValueError:
        metrics.inc("exec.cache.corrupt")
        logger.warning(
            "cached payload for %s is not valid JSON; recomputing", key[:12]
        )
        return None
    return payload if isinstance(payload, dict) else None


def put_json_payload(
    cache: ResultCache | None,
    key: str,
    payload: dict[str, Any],
    meta: dict[str, Any] | None = None,
) -> None:
    """Store a JSON payload under ``key`` (I/O errors logged, not raised)."""
    if cache is None:
        return
    try:
        cache.put(
            key,
            {_PAYLOAD_FIELD: np.array(json.dumps(payload))},
            meta=meta,
        )
    except OSError as exc:
        logger.warning("cannot store result in cache: %s", exc)
