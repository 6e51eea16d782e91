"""Property tests: one-pass midpoint rules equal one rule at a time.

:func:`repro.stats.integration.midpoint_rules` brackets and weights each
distribution family in one stacked pass.  Every rule it returns must be
bit-identical to :func:`midpoint_rule` of that distribution alone, and to
the per-distribution formula below, and a rejected list must raise the
error its first rejected member raises alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.integration import (
    NormalDist,
    PointMass,
    UnivariateDist,
    midpoint_rule,
    midpoint_rules,
)
from repro.stats.quadform import Chi2Match


@dataclass(frozen=True)
class Logistic:
    """A distribution outside the stacked families."""

    loc: float
    scale: float
    massless: bool = False

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        z = np.exp(-(np.asarray(x, dtype=float) - self.loc) / self.scale)
        density = z / (self.scale * (1.0 + z) ** 2)
        return np.zeros_like(density) if self.massless else density

    def ppf(self, q: np.ndarray | float) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.loc + self.scale * np.log(q / (1.0 - q))


def one_at_a_time(
    dist: UnivariateDist, n_points: int, tail: float, normalize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The sub-domain midpoint rule, one distribution at a time."""
    if isinstance(dist, PointMass):
        return np.array([dist.value]), np.array([1.0])
    if isinstance(dist, NormalDist) and dist.is_degenerate:
        return np.array([dist.mean]), np.array([1.0])
    lo = float(dist.ppf(tail))
    hi = float(dist.ppf(1.0 - tail))
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise ConfigurationError("distribution support could not be bracketed")
    edges = np.linspace(lo, hi, n_points + 1)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    weights = np.asarray(dist.pdf(midpoints), dtype=float) * np.diff(edges)
    total = weights.sum()
    if normalize:
        if total <= 0.0:
            raise ConfigurationError("distribution has no mass on the bracket")
        weights = weights / total
    return midpoints, weights


finite = {"allow_nan": False, "allow_infinity": False}
dists = st.one_of(
    st.builds(
        NormalDist,
        mean=st.floats(-100.0, 100.0, **finite),
        sigma=st.floats(1e-8, 10.0, **finite),
    ),
    st.builds(
        NormalDist, mean=st.floats(-100.0, 100.0, **finite), sigma=st.just(0.0)
    ),
    st.builds(
        Chi2Match,
        offset=st.floats(-1.0, 1.0, **finite),
        scale=st.floats(1e-6, 10.0, **finite),
        dof=st.floats(0.05, 200.0, **finite),
    ),
    # A negative degree of freedom has no quantiles: rejected.
    st.builds(
        Chi2Match, offset=st.just(0.0), scale=st.just(1.0), dof=st.just(-1.0)
    ),
    st.builds(PointMass, value=st.floats(-10.0, 10.0, **finite)),
    st.builds(
        Logistic,
        loc=st.floats(-10.0, 10.0, **finite),
        scale=st.floats(0.01, 10.0, **finite),
        massless=st.booleans(),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(dists, min_size=1, max_size=12),
    n_points=st.integers(1, 30),
    tail=st.floats(1e-12, 1e-2),
    normalize=st.booleans(),
)
def test_midpoint_rules_equal_one_rule_at_a_time(members, n_points, tail, normalize):
    alone: list[tuple[np.ndarray, np.ndarray] | str] = []
    for dist in members:
        try:
            points, weights = one_at_a_time(dist, n_points, tail, normalize)
        except ConfigurationError as exc:
            alone.append(str(exc))
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                midpoint_rule(dist, n_points, tail, normalize)
            continue
        rule = midpoint_rule(dist, n_points, tail, normalize)
        assert np.array_equal(rule.points, points)
        assert np.array_equal(rule.weights, weights)
        alone.append((points, weights))
    try:
        together = midpoint_rules(
            members, n_points=n_points, tail=tail, normalize=normalize
        )
    except ConfigurationError as exc:
        first_error = next(entry for entry in alone if isinstance(entry, str))
        assert str(exc) == first_error
        return
    assert not any(isinstance(entry, str) for entry in alone)
    assert len(together) == len(members)
    for rule, (points, weights) in zip(together, alone, strict=True):
        assert np.array_equal(rule.points, points)
        assert np.array_equal(rule.weights, weights)
