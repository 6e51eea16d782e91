"""Distributions of quadratic forms in standard normal variables.

The BLOD sample variance is ``v = v0 + z' C z`` with ``z`` standard normal
(eq. (24)); its distribution is a (shifted) quadratic normal form. This
module provides:

- the paper's two-moment chi-square matching (eq. (29)-(30), after
  Yuan-Bentler [33] / Satterthwaite),
- a three-moment Hall-Buckley-Eagleson refinement (the "more moments"
  escape hatch of footnote 4),
- Imhof's exact numerical inversion [32] as the accuracy reference,
- exact sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy import stats as sps

from repro.errors import ConfigurationError, NumericalError
from repro.kernels.config import fast_paths_enabled
from repro.obs import metrics

#: Truncation tolerance of the batched Imhof quadrature (envelope bound).
_IMHOF_TAIL_TOL = 1e-7
#: Gauss-Legendre nodes per oscillation-period panel.
_IMHOF_NODES_PER_PANEL = 12
#: Node budget above which the batched path defers to adaptive quad
#: (few-eigenvalue forms have slowly decaying tails; see imhof_sf).
_IMHOF_MAX_NODES = 2_000_000
#: Scratch bound of one (x, node) evaluation chunk.
_IMHOF_CHUNK_ELEMENTS = 8_000_000

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(
    _IMHOF_NODES_PER_PANEL
)


@dataclass(frozen=True)
class Chi2Match:
    """A shifted scaled chi-square surrogate ``offset + a * chi2(b)``."""

    offset: float
    scale: float
    dof: float

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the surrogate distribution."""
        x = np.asarray(x, dtype=float)
        out = sps.chi2.cdf((x - self.offset) / self.scale, self.dof)
        return out if out.ndim else float(out)

    @staticmethod
    def quantile(
        q: np.ndarray | float,
        offset: np.ndarray | float,
        scale: np.ndarray | float,
        dof: np.ndarray | float,
    ) -> np.ndarray:
        """Surrogate quantile; the parameters broadcast against ``q``."""
        return np.asarray(offset + scale * sps.chi2.ppf(q, dof))

    @staticmethod
    def density(
        x: np.ndarray | float,
        offset: np.ndarray | float,
        scale: np.ndarray | float,
        dof: np.ndarray | float,
    ) -> np.ndarray:
        """Surrogate density; the parameters broadcast against ``x``."""
        return np.asarray(sps.chi2.pdf((x - offset) / scale, dof) / scale)

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Quantile function of the surrogate distribution."""
        q = np.asarray(q, dtype=float)
        out = self.quantile(q, self.offset, self.scale, self.dof)
        return out if out.ndim else float(out)

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Density of the surrogate distribution."""
        x = np.asarray(x, dtype=float)
        out = self.density(x, self.offset, self.scale, self.dof)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """Mean of the surrogate."""
        return self.offset + self.scale * self.dof

    def var(self) -> float:
        """Variance of the surrogate."""
        return 2.0 * self.scale**2 * self.dof

    def support(self, tail: float = 1e-10) -> tuple[float, float]:
        """An interval containing all but ``tail`` probability each side."""
        return float(self.ppf(tail)), float(self.ppf(1.0 - tail))


class QuadraticForm:
    """The random variable ``Q = offset + z' C z``, z ~ N(0, I).

    ``C`` is symmetrised on input. For the BLOD use case ``C`` is positive
    semidefinite, but indefinite forms are supported by the Imhof inversion
    and sampling paths (the chi-square match requires a PSD-like positive
    trace).
    """

    def __init__(self, offset: float, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(
                f"matrix must be square, got shape {matrix.shape}"
            )
        self.offset = float(offset)
        self.matrix = 0.5 * (matrix + matrix.T)
        # Node tables of the batched Imhof quadrature, keyed by the
        # truncation geometry (see _imhof_sf_batched).
        self._imhof_node_cache: dict[
            tuple[float, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``C``: the weights of the chi-square mixture."""
        return np.linalg.eigvalsh(self.matrix)

    def mean(self) -> float:
        """``E[Q] = offset + tr(C)``."""
        return self.offset + float(np.trace(self.matrix))

    def var(self) -> float:
        """``Var[Q] = 2 tr(C^2)``."""
        return 2.0 * float(np.sum(self.matrix * self.matrix))

    def std(self) -> float:
        """Standard deviation of ``Q``."""
        return float(np.sqrt(self.var()))

    def skewness(self) -> float:
        """Skewness ``8 tr(C^3) / (2 tr(C^2))^(3/2)``."""
        variance = self.var()
        if variance <= 0.0:
            return 0.0
        trace_cubed = float(np.sum(self.eigenvalues**3))
        return 8.0 * trace_cubed / variance**1.5

    @property
    def is_degenerate(self) -> bool:
        """True when ``Q`` is (numerically) a point mass at ``offset``."""
        return self.var() <= 1e-300

    def chi2_match(self) -> Chi2Match:
        """Two-moment chi-square surrogate (eq. (29)-(30) of the paper).

        Matches mean and variance of the quadratic part:
        ``a = tr(C^2)/tr(C)`` and ``b = tr(C)^2 / tr(C^2)``.
        """
        trace = float(np.trace(self.matrix))
        trace_sq = float(np.sum(self.matrix * self.matrix))
        if trace <= 0.0 or trace_sq <= 0.0:
            raise NumericalError(
                "chi-square matching needs a positive-trace quadratic form; "
                "use imhof_sf or treat the form as degenerate"
            )
        scale = trace_sq / trace
        dof = trace**2 / trace_sq
        return Chi2Match(offset=self.offset, scale=scale, dof=dof)

    def hbe_match(self) -> Chi2Match:
        """Three-moment Hall-Buckley-Eagleson chi-square surrogate.

        Matches mean, variance and skewness; the surrogate is
        ``mean + std * (chi2(nu) - nu) / sqrt(2 nu)`` with ``nu = 8 /
        skewness^2``. Falls back to the two-moment match when the form is
        symmetric (zero skewness).
        """
        skew = self.skewness()
        if abs(skew) < 1e-12:
            return self.chi2_match()
        if skew < 0.0:
            # Mixtures of positive-weight chi-squares are right-skewed; a
            # negative skew implies indefinite C, outside HBE's domain.
            raise NumericalError("HBE matching requires right-skewed forms")
        dof = 8.0 / skew**2
        std = self.std()
        scale = std / np.sqrt(2.0 * dof)
        offset = self.mean() - scale * dof
        return Chi2Match(offset=offset, scale=scale, dof=dof)

    @cached_property
    def _imhof_spectrum(self) -> tuple[np.ndarray, float] | None:
        """Filtered, max-normalised eigenvalues and the scale factor.

        The distribution is scale invariant: normalising so the quadrature
        sees O(1) eigenvalues keeps the integrand's oscillation scale
        inside the solvers' search range regardless of the form's physical
        units (BLOD variances are ~1e-4 nm^2).  ``None`` marks a
        numerically rank-zero form (point mass at the offset).
        """
        lam = self.eigenvalues
        lam = lam[np.abs(lam) > 1e-14 * max(np.abs(lam).max(), 1e-300)]
        if lam.size == 0:
            return None
        scale = float(np.abs(lam).max())
        return lam / scale, scale

    def imhof_sf(
        self, x: np.ndarray | float, limit: int = 200
    ) -> np.ndarray | float:
        """Exact ``P(Q > x)`` by Imhof's numerical inversion [32].

        Accepts a scalar or an array of ``x``; a scalar returns a float.
        With fast paths enabled (:mod:`repro.kernels.config`), the whole
        batch shares one eigendecomposition and one composite
        Gauss-Legendre evaluation of the oscillatory integrand, instead of
        a per-point adaptive ``quad`` call.  Forms whose tails decay too
        slowly for a bounded node count (fewer than ~3 retained
        eigenvalues) fall back to the per-point adaptive reference, which
        also serves the equivalence tests.  Accurate to roughly 1e-7.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.ndim(x) == 0
        if not np.all(np.isfinite(x_arr)):
            raise ConfigurationError("x must be finite")
        spectrum = None if self.is_degenerate else self._imhof_spectrum
        if spectrum is None:
            out = np.where(x_arr < self.offset, 1.0, 0.0)
            return float(out[0]) if scalar else out
        lam, scale = spectrum
        shifted = (x_arr - self.offset) / scale
        out = None
        if fast_paths_enabled():
            out = self._imhof_sf_batched(lam, shifted)
        if out is None:
            out = np.array(
                [self._imhof_sf_adaptive(lam, s, limit) for s in shifted]
            )
        return float(out[0]) if scalar else out

    def _imhof_sf_adaptive(
        self, lam: np.ndarray, shifted: float, limit: int
    ) -> float:
        """Per-point adaptive-quad Imhof inversion (reference path)."""

        def theta(u: float) -> float:
            return 0.5 * float(np.sum(np.arctan(lam * u))) - 0.5 * shifted * u

        def rho(u: float) -> float:
            return float(np.prod((1.0 + (lam * u) ** 2) ** 0.25))

        def integrand(u: float) -> float:
            if u == 0.0:  # reprolint: disable=RPL005 (quad samples the exact endpoint)
                # limit u->0 of sin(theta)/(u rho) = theta'(0)
                return 0.5 * float(np.sum(lam)) - 0.5 * shifted
            return np.sin(theta(u)) / (u * rho(u))

        with warnings.catch_warnings():
            # The integrand oscillates; quad warns about slow convergence
            # even when the achieved accuracy is fine (verified in tests).
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, _error = integrate.quad(integrand, 0.0, np.inf, limit=limit)
        sf = 0.5 + value / np.pi
        return float(min(max(sf, 0.0), 1.0))

    def _imhof_sf_batched(
        self, lam: np.ndarray, shifted: np.ndarray
    ) -> np.ndarray | None:
        """One composite-rule Imhof evaluation for a whole ``x`` batch.

        The integration interval ``[0, U]`` is truncated where the
        envelope bound ``(1/pi) prod |lam_i|^(-1/2) (2/k) U^(-k/2)``
        (minimised over the top-``k`` eigenvalue subsets) drops below
        ``_IMHOF_TAIL_TOL``, then split into one Gauss-Legendre panel per
        oscillation period of the worst-case phase rate.  ``theta`` and
        ``rho`` are shared across the batch; only the ``x``-dependent
        phase term varies.  Returns ``None`` when the node budget would be
        exceeded (caller falls back to the adaptive path).
        """
        if not np.all(np.isfinite(lam)):
            raise NumericalError("eigenvalues must be finite")
        abs_lam = np.sort(np.abs(lam))[::-1]
        ks = np.arange(1, abs_lam.size + 1, dtype=float)
        half_log_prod = 0.5 * np.cumsum(np.log(abs_lam))
        log_u = float(
            np.min(
                (2.0 / ks)
                * (
                    np.log(2.0 / (np.pi * _IMHOF_TAIL_TOL))
                    - np.log(ks)
                    - half_log_prod
                )
            )
        )
        if log_u > 50.0:
            return None
        u_max = float(np.exp(log_u))
        # Worst-case phase rate |theta'| <= 0.5 (sum|lam| + max|x|).
        max_rate = 0.5 * (
            float(np.sum(np.abs(lam))) + float(np.max(np.abs(shifted)))
        )
        n_panels = max(int(np.ceil(u_max * max_rate / (2.0 * np.pi))), 16)
        if n_panels * _IMHOF_NODES_PER_PANEL > _IMHOF_MAX_NODES:
            return None

        key = (round(log_u, 12), n_panels)
        tables = self._imhof_node_cache.get(key)
        if tables is None:
            edges = np.linspace(0.0, u_max, n_panels + 1)
            half = 0.5 * (edges[1:] - edges[:-1])
            mid = 0.5 * (edges[1:] + edges[:-1])
            u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
            w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
            theta_base = np.empty_like(u)
            weight = np.empty_like(u)
            # Chunk the (eigenvalue, node) scratch arrays.
            step = max(_IMHOF_CHUNK_ELEMENTS // max(lam.size, 1), 1)
            for start in range(0, u.size, step):
                stop = min(start + step, u.size)
                lam_u = lam[:, None] * u[None, start:stop]
                theta_base[start:stop] = 0.5 * np.sum(
                    np.arctan(lam_u), axis=0
                )
                # rho in log space: exp of a non-positive value, so the
                # product can never overflow for long spectra.
                log_rho = 0.25 * np.sum(np.log1p(lam_u**2), axis=0)
                weight[start:stop] = (
                    w[start:stop] / u[start:stop] * np.exp(-log_rho)
                )
            self._imhof_node_cache.clear()
            self._imhof_node_cache[key] = (u, theta_base, weight)
        else:
            u, theta_base, weight = tables
        metrics.inc("kernels.imhof_nodes", u.size * shifted.size)
        out = np.empty(shifted.size, dtype=np.float64)
        step = max(_IMHOF_CHUNK_ELEMENTS // u.size, 1)
        for start in range(0, shifted.size, step):
            stop = min(start + step, shifted.size)
            phase = (
                theta_base[None, :]
                - 0.5 * shifted[start:stop, None] * u[None, :]
            )
            out[start:stop] = np.sin(phase) @ weight
        return np.clip(0.5 + out / np.pi, 0.0, 1.0)

    def imhof_cdf(
        self, x: np.ndarray | float, limit: int = 200
    ) -> np.ndarray | float:
        """Exact ``P(Q <= x)`` by Imhof's inversion (scalar or array)."""
        return 1.0 - self.imhof_sf(x, limit=limit)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Exact samples of ``Q`` via the eigenvalue mixture.

        ``Q = offset + sum_i lambda_i W_i`` with ``W_i ~ chi2(1)``
        independent — distributionally identical to drawing ``z`` and
        evaluating the form, but O(rank) instead of O(dim^2) per sample.
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        lam = self.eigenvalues
        lam = lam[np.abs(lam) > 1e-14 * max(np.abs(lam).max(), 1e-300)]
        if lam.size == 0:
            return np.full(n, self.offset)
        chis = rng.chisquare(1.0, size=(n, lam.size))
        return self.offset + chis @ lam

    def sample_from_factors(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``Q`` on given factor draws ``z`` (shape ``(n, dim)``).

        Used when the same ``z`` draws must be shared across several
        quadratic forms (the st_mc analyzer evaluates all blocks' ``u_j``
        and ``v_j`` on one common factor sample).
        """
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[None, :]
        if z.shape[1] != self.matrix.shape[0]:
            raise ConfigurationError(
                f"factor dimension {z.shape[1]} does not match form "
                f"dimension {self.matrix.shape[0]}"
            )
        return self.offset + np.einsum("ni,ij,nj->n", z, self.matrix, z)
