"""Numerical kernel fast paths.

The hot inner kernels of the analysis pipeline — the sparse thermal
solve inside the power-thermal fixed point, the per-block survival
quadrature of the ensemble analyzers, and the Imhof reference inversion
— each have an optimised implementation guarded by a process-wide
switch (see :mod:`repro.kernels.config`):

========================  =============================================
fast path                 lives in
========================  =============================================
conductance assembly      ``repro.thermal.solver`` (numpy index math)
factorization cache       ``repro.thermal.factor_cache``
batched block survival    ``repro.kernels.survival``
vectorised Imhof          ``repro.stats.quadform.QuadraticForm.imhof_sf``
========================  =============================================

Every fast path is covered by an equivalence test against the reference
implementation it replaces, and ``repro bench kernels`` (or
``benchmarks/test_kernels.py``) times both sides.  See
``docs/performance.md``.
"""

from repro.kernels.artifacts import (
    ArtifactCache,
    artifacts_enabled,
    default_artifact_cache_dir,
    get_artifact_cache,
    memoize_artifact,
    set_artifacts_enabled,
    use_artifacts,
)
from repro.kernels.config import (
    fast_paths_enabled,
    set_fast_paths,
    use_fast_paths,
)
from repro.kernels.survival import (
    batched_rule_expectations,
    batched_sample_expectations,
    pad_rule_tables,
    sweep_rule_expectations,
)

__all__ = [
    "ArtifactCache",
    "artifacts_enabled",
    "batched_rule_expectations",
    "batched_sample_expectations",
    "default_artifact_cache_dir",
    "fast_paths_enabled",
    "get_artifact_cache",
    "memoize_artifact",
    "pad_rule_tables",
    "set_artifacts_enabled",
    "set_fast_paths",
    "sweep_rule_expectations",
    "use_artifacts",
    "use_fast_paths",
]
