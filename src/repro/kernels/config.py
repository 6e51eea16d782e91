"""Fast-path switch for the numerical kernel layer.

Every optimised kernel (cached thermal factorization, batched ensemble
quadrature, vectorised Imhof inversion) is guarded by one module-level
switch so that the *reference* implementations stay first-class: the
equivalence tests and the kernel benchmarks run both paths in one
process and compare them.

The switch is read once per call site through :func:`fast_paths_enabled`
(a single module-attribute load, mirroring the ``repro.obs`` design), and
:func:`use_fast_paths` flips it temporarily for tests/benchmarks.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "fast_paths_enabled",
    "set_fast_paths",
    "use_fast_paths",
]

_lock = threading.Lock()
_enabled: bool = True


def fast_paths_enabled() -> bool:
    """True when the optimised kernel implementations are active."""
    return _enabled


def set_fast_paths(enabled: bool) -> None:
    """Globally enable or disable the fast paths."""
    global _enabled
    with _lock:
        _enabled = bool(enabled)


@contextmanager
def use_fast_paths(enabled: bool) -> Iterator[None]:
    """Temporarily force the fast paths on or off (tests, benchmarks)."""
    previous = _enabled
    set_fast_paths(enabled)
    try:
        yield
    finally:
        set_fast_paths(previous)
