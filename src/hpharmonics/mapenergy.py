"""Pointwise higher-power energy densities of a map between metric spaces.

The data at a point is the Jacobian J of the map in chosen frames together
with symmetric positive-definite Gram matrices G (domain) and H (codomain).
The pullback metric is P = J^T H J and the distortion operator is

    alpha = G^{-1} P,

self-adjoint with respect to G and positive semi-definite.  Its elementary
invariants e_r(alpha) measure average squared distortion of r-dimensional
volume; e_m(alpha) is the squared volume density.  The Newton endomorphisms
of alpha are the pointwise Newton tensors of the map.  Degree-r density is
conformally weight -2r in G, which for m = 2r makes e_r * sqrt(det G)
invariant under G -> rho^2 G, and in that dimension e_r majorises
binom(m, r) times the volume density with equality exactly at r-conformal
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb, sqrt

import numpy as np

from .invariants import (
    MAX_DIM,
    _newton_chain,
    elementary_invariants_minors,
    elementary_invariants_newton,
)


#: Relative tolerance of :func:`r_conformal_check`.
_CONFORMAL_TOL = 1e-9


class InvalidMetricError(ValueError):
    """A supplied metric matrix is not symmetric positive-definite."""


class UnsupportedDimensionError(ValueError):
    """The operation requires an even domain dimension."""


def _check_metric(g: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    # The symmetrized metric and its Cholesky factor, which proves it definite.
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidMetricError(f"{name} must be square, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidMetricError(f"{name} has non-finite entries")
    sym_tol = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    if np.max(np.abs(g - g.T)) > sym_tol:
        raise InvalidMetricError(f"{name} is not symmetric")
    sym = 0.5 * (g + g.T)
    try:
        return sym, np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise InvalidMetricError(f"{name} is not positive-definite") from None


@dataclass(frozen=True)
class PointData:
    """Jacobian and metrics of a map at a single point.

    Parameters
    ----------
    jacobian : (n, m) array
        Differential of the map in the chosen domain/codomain frames.
    domain_metric : (m, m) array
        Symmetric positive-definite Gram matrix of the domain frame.
    codomain_metric : (n, n) array
        Symmetric positive-definite Gram matrix of the codomain frame.
    """

    jacobian: np.ndarray
    domain_metric: np.ndarray
    codomain_metric: np.ndarray
    # Cholesky factor L of the domain metric, G = L L^T.
    _domain_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        jac = np.asarray(self.jacobian, dtype=float)
        if jac.ndim != 2:
            raise ValueError(f"jacobian must be 2-D, got shape {jac.shape}")
        if not np.all(np.isfinite(jac)):
            raise ValueError("jacobian has non-finite entries")
        g, low = _check_metric(self.domain_metric, "domain metric")
        h, _ = _check_metric(self.codomain_metric, "codomain metric")
        n, m = jac.shape
        if m > MAX_DIM:
            raise ValueError(f"domain dimension {m} exceeds cap {MAX_DIM}")
        if g.shape[0] != m:
            raise ValueError("domain metric size does not match jacobian columns")
        if h.shape[0] != n:
            raise ValueError("codomain metric size does not match jacobian rows")
        object.__setattr__(self, "jacobian", jac)
        object.__setattr__(self, "domain_metric", g)
        object.__setattr__(self, "codomain_metric", h)
        object.__setattr__(self, "_domain_factor", low)

    @property
    def m(self) -> int:
        return self.jacobian.shape[1]

    @property
    def n(self) -> int:
        return self.jacobian.shape[0]


@dataclass(frozen=True)
class DensityReport:
    """Distortion operator, invariants, volume density, and Newton tensors.

    ``alpha`` is (m, m), ``eps`` the (m+1,) invariants (e_0, ..., e_m) of
    alpha, and ``newton`` the (m+1, m, m) Newton endomorphisms
    chi_0, ..., chi_m of alpha.
    """

    alpha: np.ndarray
    eps: np.ndarray
    volume_density: float
    newton: np.ndarray = field(repr=False)


def pullback_metric(point: PointData) -> np.ndarray:
    """Pullback Gram matrix P = J^T H J, symmetrized."""
    p = point.jacobian.T @ point.codomain_metric @ point.jacobian
    return 0.5 * (p + p.T)


def cauchy_green(point: PointData) -> np.ndarray:
    """Distortion operator alpha = G^{-1} J^T H J.

    Self-adjoint with respect to G (i.e. G @ alpha is symmetric) and
    positive semi-definite; its eigenvalues are the squared principal
    stretches of the map at the point.
    """
    return np.linalg.solve(point.domain_metric, pullback_metric(point))


def _whitened_pullback(point: PointData) -> np.ndarray:
    # Cholesky reduction of the symmetric-definite pair (P, G) (Golub & Van
    # Loan, section 8.7): with G = L L^T, B = L^{-1} P L^{-T} is symmetric
    # positive semi-definite and similar to alpha = G^{-1} P.
    inv_low = np.linalg.inv(point._domain_factor)
    b = inv_low @ pullback_metric(point) @ inv_low.T
    return 0.5 * (b + b.T)


def stretch_eigenvalues(point: PointData) -> np.ndarray:
    """Ascending eigenvalues of (J^T H J, G), all real and >= 0 up to roundoff.

    Computed as the symmetric eigenvalues of the whitened pullback
    B = L^{-1} P L^{-T} (G = L L^T), which preserves symmetry instead of
    balancing the non-symmetric product G^{-1} J^T H J.
    """
    return np.linalg.eigvalsh(_whitened_pullback(point))


def gram_invariants(point: PointData) -> np.ndarray:
    """Brute-force oracle for the invariants: principal minors of the
    pullback Gram matrix expressed in a G-orthonormal frame.

    Sums principal r x r minors of the same whitened pullback
    B = L^{-1} P L^{-T} that :func:`stretch_eigenvalues` diagonalises;
    entirely independent of the Newton-Girard path used by
    :func:`density_report`.
    """
    return elementary_invariants_minors(_whitened_pullback(point))


def density_report(point: PointData) -> DensityReport:
    """All pointwise density data of the map: alpha, its invariant vector,
    the volume density sqrt(e_m), and the Newton endomorphisms of alpha."""
    alpha = cauchy_green(point)
    eps = elementary_invariants_newton(alpha)
    volume_density = sqrt(max(float(eps[point.m]), 0.0))
    return DensityReport(
        alpha=alpha,
        eps=eps,
        volume_density=volume_density,
        newton=_newton_chain(alpha, eps),
    )


def r_conformal_check(point: PointData, r: int) -> bool:
    """Pointwise r-conformality test.

    True when the squared stretches are all equal within a relative spread
    of 1e-9 (a conformal point), or when fewer than r of them exceed 1e-9
    times the largest (the rank of the differential is below r).
    """
    if not 1 <= r <= point.m:
        raise ValueError(f"order r={r} outside 1..{point.m}")
    ev = stretch_eigenvalues(point)
    top = float(ev[-1])
    if top <= 0.0:
        return True
    if float(ev[-1] - ev[0]) <= _CONFORMAL_TOL * top:
        return True
    return int(np.sum(ev > _CONFORMAL_TOL * top)) <= r - 1


def conformal_scaling_residual(point: PointData, rho: float, r: int) -> float:
    """Homogeneity residual |e_r(rho^2 G) * rho^(2r) - e_r(G)|.

    Degree-r invariants scale as rho^(-2r) under G -> rho^2 G, so the
    residual vanishes identically; for m = 2r it is exactly the failure of
    invariance of the density-times-volume-element combination.
    """
    if not np.isfinite(rho) or rho <= 0.0:
        raise ValueError(f"scale factor must be positive, got {rho}")
    if not 1 <= r <= point.m:
        raise ValueError(f"order r={r} outside 1..{point.m}")
    base = elementary_invariants_newton(cauchy_green(point))[r]
    scaled_point = replace(point, domain_metric=rho**2 * point.domain_metric)
    scaled = elementary_invariants_newton(cauchy_green(scaled_point))[r]
    return abs(scaled * rho ** (2 * r) - base)


def majorisation_gap(point: PointData) -> float:
    """Gap e_r - binom(m, r) * v for even m and r = m/2.

    Non-negative for every map point, and zero exactly at r-conformal
    points (equal squared stretches, or rank below r).
    """
    m = point.m
    if m % 2 != 0:
        raise UnsupportedDimensionError(
            f"majorisation needs an even domain dimension, got m={m}"
        )
    r = m // 2
    eps = elementary_invariants_newton(cauchy_green(point))
    volume_density = sqrt(max(float(eps[m]), 0.0))
    return float(eps[r]) - comb(m, r) * volume_density
