"""Numerical integration rules for the ensemble reliability integrals.

Equation (28) reduces the full-chip reliability to ``N`` double integrals
of ``exp(-A_j g(u, v))`` against the marginal PDFs of the BLOD mean and
variance. The paper evaluates them with an ``l0 x l0`` sub-domain midpoint
sum (``l0 = 10`` suffices, Sec. IV-D); this module implements that rule plus
two higher-order alternatives used as ablation references:

- Gauss-Hermite quadrature for the Gaussian ``u`` direction,
- equal-probability (quantile-stratified) points for the chi-square ``v``
  direction,
- scipy adaptive quadrature as the "exact" baseline.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from typing import Protocol

import numpy as np
from scipy import integrate
from scipy import stats as sps

from repro.errors import ConfigurationError
from repro.stats.quadform import Chi2Match


class UnivariateDist(Protocol):
    """Minimal distribution interface consumed by the integration rules."""

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Probability density at ``x``."""

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Quantile function at probability ``q``."""


@dataclass(frozen=True)
class NormalDist:
    """A normal distribution with the protocol the rules expect."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def is_degenerate(self) -> bool:
        """True when the distribution is a point mass."""
        return self.sigma <= 0.0

    @staticmethod
    def density(
        x: np.ndarray | float,
        mean: np.ndarray | float,
        sigma: np.ndarray | float,
    ) -> np.ndarray:
        """Normal density; the parameters broadcast against ``x``."""
        return np.asarray(sps.norm.pdf(x, loc=mean, scale=sigma))

    @staticmethod
    def quantile(
        q: np.ndarray | float,
        mean: np.ndarray | float,
        sigma: np.ndarray | float,
    ) -> np.ndarray:
        """Normal quantile; the parameters broadcast against ``q``."""
        return np.asarray(sps.norm.ppf(q, loc=mean, scale=sigma))

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Normal density (zero everywhere for the degenerate case)."""
        if self.is_degenerate:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.density(x, self.mean, self.sigma)

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Normal quantile (constant for the degenerate case)."""
        if self.is_degenerate:
            return np.full_like(np.asarray(q, dtype=float), self.mean)
        return self.quantile(q, self.mean, self.sigma)


@dataclass(frozen=True)
class PointMass:
    """A deterministic value packaged as a distribution."""

    value: float

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Dirac mass has no density; rules special-case this type."""
        raise NotImplementedError("point mass has no density")

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Every quantile is the point itself."""
        return np.full_like(np.asarray(q, dtype=float), self.value)


@dataclass(frozen=True)
class Rule1D:
    """Integration points and weights for one dimension."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.points.shape != self.weights.shape or self.points.ndim != 1:
            raise ConfigurationError("points and weights must be matching 1-D arrays")


#: Families whose rules are built in one stacked pass.  Their static
#: ``quantile``/``density`` formulas take the dataclass fields, in field
#: order, as parameters that broadcast; ``ppf``/``pdf`` call the same
#: formulas with one distribution's fields.
_StackedFamily = type[NormalDist] | type[Chi2Match]
_STACKED_FAMILIES: tuple[_StackedFamily, ...] = (NormalDist, Chi2Match)


def _single_node(value: float) -> Rule1D:
    return Rule1D(points=np.array([value]), weights=np.array([1.0]))


def midpoint_rule(
    dist: UnivariateDist,
    n_points: int = 10,
    tail: float = 1e-6,
    normalize: bool = True,
) -> Rule1D:
    """The paper's sub-domain midpoint rule for one dimension.

    The integration domain ``[ppf(tail), ppf(1 - tail)]`` is divided into
    ``n_points`` equal sub-domains; each contributes its midpoint weighted
    by ``pdf(midpoint) * width``. With ``normalize=True`` the weights are
    rescaled to sum to one, removing the O(width^2) discretisation bias of
    the raw rule (the paper's ``l0 = 10`` is accurate either way because
    the PDFs die off quickly, Fig. 4).
    """
    return midpoint_rules(
        [dist], n_points=n_points, tail=tail, normalize=normalize
    )[0]


def midpoint_rules(
    dists: Sequence[UnivariateDist],
    n_points: int = 10,
    tail: float = 1e-6,
    normalize: bool = True,
) -> list[Rule1D]:
    """:func:`midpoint_rule` of every distribution in ``dists``, in one pass.

    The :class:`NormalDist` and :class:`~repro.stats.quadform.Chi2Match`
    members are bracketed by one ``quantile`` call per family covering
    both tails, and weighted by one ``density`` call, over the family's
    stacked parameters; each rule is bit-identical to building it alone.
    Point masses and degenerate normals keep their single node, and any
    other distribution uses its own ``ppf`` and ``pdf``.  When several
    distributions are rejected, the error is the first one's in list
    order.
    """
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if not 0.0 < tail < 0.5:
        raise ConfigurationError(f"tail must be in (0, 0.5), got {tail}")
    rules: list[Rule1D | None] = [None] * len(dists)
    errors: dict[int, str] = {}
    members_of: dict[type, list[int]] = {f: [] for f in _STACKED_FAMILIES}
    for index, dist in enumerate(dists):
        if isinstance(dist, PointMass):
            rules[index] = _single_node(dist.value)
        elif isinstance(dist, NormalDist) and dist.is_degenerate:
            rules[index] = _single_node(dist.mean)
        elif type(dist) in members_of:
            members_of[type(dist)].append(index)
        else:
            bounds = np.array(
                [[float(dist.ppf(tail)), float(dist.ppf(1.0 - tail))]]
            )
            _add_midpoint_rules(
                rules, errors, [index], bounds, [],
                lambda x, d=dist: np.asarray(d.pdf(x[0]), dtype=float)[None],
                n_points, normalize,
            )
    for family in _STACKED_FAMILIES:
        members = members_of[family]
        if not members:
            continue
        # One (n, 1) column per parameter, broadcast against the nodes.
        names = [field.name for field in fields(family)]
        stacked = np.array([[getattr(dists[i], n) for n in names] for i in members])
        params = list(stacked.T[:, :, None])
        bounds = family.quantile(np.array([tail, 1.0 - tail]), *params)
        _add_midpoint_rules(
            rules, errors, members, bounds, params, family.density,
            n_points, normalize,
        )
    if errors:
        raise ConfigurationError(errors[min(errors)])
    return [rule for rule in rules if rule is not None]


def _add_midpoint_rules(
    rules: list[Rule1D | None],
    errors: dict[int, str],
    members: list[int],
    bounds: np.ndarray,
    params: list[np.ndarray],
    density: Callable[..., np.ndarray],
    n_points: int,
    normalize: bool,
) -> None:
    """Midpoint rules of ``members`` from their ``(n, 2)`` brackets.

    ``density(x, *params)`` gives the members' densities on an
    ``(n, n_points)`` midpoint matrix, ``params`` being ``(n, 1)``
    parameter columns.  A member whose bracket or mass is unusable is
    recorded in ``errors``.  Every row is computed as it would be alone:
    linspace is elementwise per row and each sum runs over one
    contiguous row.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    bracketed = np.isfinite(lo) & np.isfinite(hi) & (hi > lo)
    for k in np.flatnonzero(~bracketed):
        errors[members[k]] = "distribution support could not be bracketed"
    keep = np.flatnonzero(bracketed)
    if keep.size == 0:
        return
    edges = np.ascontiguousarray(
        np.linspace(lo[keep], hi[keep], n_points + 1, axis=-1)
    )
    midpoints = 0.5 * (edges[:, :-1] + edges[:, 1:])
    widths = np.diff(edges, axis=-1)
    densities = density(midpoints, *[p[keep] for p in params])
    weights = np.ascontiguousarray(densities * widths)
    if normalize:
        totals = weights.sum(axis=-1)
        massless = totals <= 0.0
        for k in np.flatnonzero(massless):
            errors[members[keep[k]]] = "distribution has no mass on the bracket"
        weights = weights / np.where(massless, 1.0, totals)[:, None]
    for k, row in enumerate(keep):
        if members[row] not in errors:
            rules[members[row]] = Rule1D(points=midpoints[k], weights=weights[k])


def gauss_hermite_rule(dist: NormalDist, n_points: int = 16) -> Rule1D:
    """Gauss-Hermite rule for an expectation over a normal distribution."""
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if dist.is_degenerate:
        return Rule1D(points=np.array([dist.mean]), weights=np.array([1.0]))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
    points = dist.mean + dist.sigma * nodes
    return Rule1D(points=points, weights=weights / np.sqrt(2.0 * np.pi))


def quantile_rule(dist: UnivariateDist, n_points: int = 32) -> Rule1D:
    """Equal-probability stratified rule (works for any distribution).

    Splits probability into ``n_points`` strata and represents each by its
    median quantile with weight ``1/n``. Robust for the skewed chi-square
    ``v`` marginal.
    """
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if isinstance(dist, PointMass):
        return Rule1D(points=np.array([dist.value]), weights=np.array([1.0]))
    if isinstance(dist, NormalDist) and dist.is_degenerate:
        return Rule1D(points=np.array([dist.mean]), weights=np.array([1.0]))
    quantiles = (np.arange(n_points) + 0.5) / n_points
    points = np.asarray(dist.ppf(quantiles), dtype=float)
    weights = np.full(n_points, 1.0 / n_points)
    return Rule1D(points=points, weights=weights)


def expectation_2d(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rule_u: Rule1D,
    rule_v: Rule1D,
) -> float:
    """``E[fn(U, V)]`` for independent U, V given per-dimension rules.

    ``fn`` must accept broadcast arrays and return elementwise values.
    """
    u_grid = rule_u.points[:, None]
    v_grid = rule_v.points[None, :]
    values = np.asarray(fn(u_grid, v_grid), dtype=float)
    expected_shape = (rule_u.points.size, rule_v.points.size)
    if values.shape != expected_shape:
        raise ConfigurationError(
            f"fn returned shape {values.shape}, expected {expected_shape}"
        )
    return float(rule_u.weights @ values @ rule_v.weights)


def expectation_2d_adaptive(
    fn: Callable[[float, float], float],
    dist_u: UnivariateDist,
    dist_v: UnivariateDist,
    tail: float = 1e-9,
) -> float:
    """Adaptive scipy double quadrature of ``fn`` against the two PDFs.

    The slow "exact" reference used in the integration-rule ablation.
    Degenerate dimensions collapse to a 1-D quadrature automatically.
    """
    u_degenerate = isinstance(dist_u, PointMass) or (
        isinstance(dist_u, NormalDist) and dist_u.is_degenerate
    )
    v_degenerate = isinstance(dist_v, PointMass) or (
        isinstance(dist_v, NormalDist) and dist_v.is_degenerate
    )
    if u_degenerate and v_degenerate:
        u0 = float(dist_u.ppf(0.5))
        v0 = float(dist_v.ppf(0.5))
        return float(fn(u0, v0))
    if u_degenerate:
        u0 = float(dist_u.ppf(0.5))
        lo, hi = float(dist_v.ppf(tail)), float(dist_v.ppf(1.0 - tail))
        value, _err = integrate.quad(
            lambda v: float(fn(u0, v)) * float(dist_v.pdf(v)), lo, hi, limit=200
        )
        return value
    if v_degenerate:
        v0 = float(dist_v.ppf(0.5))
        lo, hi = float(dist_u.ppf(tail)), float(dist_u.ppf(1.0 - tail))
        value, _err = integrate.quad(
            lambda u: float(fn(u, v0)) * float(dist_u.pdf(u)), lo, hi, limit=200
        )
        return value
    u_lo, u_hi = float(dist_u.ppf(tail)), float(dist_u.ppf(1.0 - tail))
    v_lo, v_hi = float(dist_v.ppf(tail)), float(dist_v.ppf(1.0 - tail))
    value, _err = integrate.dblquad(
        lambda v, u: float(fn(u, v)) * float(dist_u.pdf(u)) * float(dist_v.pdf(v)),
        u_lo,
        u_hi,
        lambda _u: v_lo,
        lambda _u: v_hi,
    )
    return value
