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

Every quantity is read from one diagonalisation per point, the Cholesky
reduction of the symmetric-definite pair (P, G) (Golub & Van Loan, section
8.7): with G = L L^T, the whitened pullback B = L^{-1} P L^{-T} is symmetric
positive semi-definite and alpha = L^{-T} B L^T.  With B = Q diag(w) Q^T,

    e_r(alpha) = e_r(w),    chi_r(alpha) = L^{-T} Q diag(e_r(w without w_i)) Q^T L^T,

and each e_r is built by the product recursion e <- e + w_i * shift(e).
B is positive semi-definite, so every term is >= 0 up to roundoff and
nothing cancels, however ill-conditioned G is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, sqrt
from typing import NamedTuple

import numpy as np

from .invariants import MAX_DIM, elementary_invariants_minors


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
    if not np.isfinite(g).all():
        raise InvalidMetricError(f"{name} has non-finite entries")
    sym_tol = 1e-12 * max(1.0, float(abs(g).max()))
    if abs(g - g.T).max() > sym_tol:
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
        if not np.isfinite(jac).all():
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

    @cached_property
    def _spectrum(self) -> _Spectrum:
        # The one diagonalisation every density quantity of the point reads.
        # cached_property stores into the instance __dict__, which the frozen
        # dataclass leaves writable.
        return _diagonalise(self._domain_factor, pullback_metric(self))


class _Spectrum(NamedTuple):
    pullback: np.ndarray  # P = J^T H J
    inv_low: np.ndarray  # L^{-1}
    low_p: np.ndarray  # L^{-1} P
    whitened: np.ndarray  # B = L^{-1} P L^{-T}
    w: np.ndarray  # ascending eigenvalues of B
    q: np.ndarray  # orthonormal eigenvectors of B, as columns
    eps: np.ndarray  # (m+1,) e_r(w)
    leave_one_out: np.ndarray  # (m+1, m): [r, i] is e_r(w without w_i)


def _diagonalise(low: np.ndarray, pullback: np.ndarray) -> _Spectrum:
    # Whiten P by the Cholesky factor L of the domain metric, diagonalise
    # B = L^{-1} P L^{-T} and build its invariants by the product recursion.
    inv_low = np.linalg.inv(low)
    low_p = inv_low @ pullback
    b = low_p @ inv_low.T
    b = 0.5 * (b + b.T)
    if not np.isfinite(b).all():
        raise ValueError("the whitened pullback L^-1 J^T H J L^-T overflows the float range")
    w, q = np.linalg.eigh(b)
    # Column 0 of ``values`` is w; column i + 1 is w with w_i set to 0,
    # whose invariants e_r(w without w_i) weight the Newton tensors.
    values = np.where(np.eye(len(w), len(w) + 1, k=1, dtype=bool), 0.0, w[:, None])
    e = _product_invariants(values)
    spec = _Spectrum(pullback, inv_low, low_p, b, w, q, e[:, 0], e[:, 1:])
    # Every caller shares the two arrays that leave the module.
    w.flags.writeable = spec.eps.flags.writeable = False
    return spec


def _product_invariants(values: np.ndarray) -> np.ndarray:
    # Elementary symmetric functions (e_0, ..., e_m) of each column of the
    # (m, k) ``values``, as (m+1, k): multiply out prod_j (1 + v_j t) one
    # factor at a time, e <- e + v_j * shift(e).
    e = np.zeros((values.shape[0] + 1, values.shape[1]))
    e[0] = 1.0
    for row in values:
        e[1:] += row * e[:-1]
    return e


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
    stretches of the map at the point.  Solved directly from (G, P), apart
    from the whitening that :func:`density_report` reads, so the battery
    can check that path against it.
    """
    return np.linalg.solve(point.domain_metric, pullback_metric(point))


def stretch_eigenvalues(point: PointData) -> np.ndarray:
    """Ascending eigenvalues of (J^T H J, G), all real and >= 0 up to roundoff.

    Computed as the symmetric eigenvalues of the whitened pullback
    B = L^{-1} P L^{-T} (G = L L^T), which preserves symmetry instead of
    balancing the non-symmetric product G^{-1} J^T H J.
    """
    return point._spectrum.w


def gram_invariants(point: PointData) -> np.ndarray:
    """Brute-force oracle for the invariants: principal minors of the
    pullback Gram matrix expressed in a G-orthonormal frame.

    Sums principal r x r minors of the same whitened pullback
    B = L^{-1} P L^{-T} that :func:`density_report` diagonalises; it shares
    the whitening with that path but neither its eigendecomposition nor
    its product recursion.
    """
    return elementary_invariants_minors(point._spectrum.whitened)


def density_report(point: PointData) -> DensityReport:
    """All pointwise density data of the map: alpha, its invariant vector,
    the volume density sqrt(e_m), and the Newton endomorphisms of alpha."""
    spec = point._spectrum
    # chi_r(alpha) = L^{-T} Q diag(e_r(w without w_i)) Q^T L^T for every r at
    # once; chi_m vanishes exactly, since each e_m(w without w_i) is 0.
    left = spec.inv_low.T @ spec.q
    right = (point._domain_factor @ spec.q).T
    newton = (left * spec.leave_one_out[:, None, :]) @ right
    newton[0] = np.eye(point.m)
    return DensityReport(
        alpha=spec.inv_low.T @ spec.low_p,
        eps=spec.eps,
        volume_density=sqrt(max(float(spec.eps[point.m]), 0.0)),
        newton=newton,
    )


def r_conformal_check(point: PointData, r: int) -> bool:
    """Pointwise r-conformality test.

    True when the squared stretches are all equal within a relative spread
    of 1e-9 (a conformal point), or when fewer than r of them exceed 1e-9
    times the largest (the rank of the differential is below r).
    """
    if not 1 <= r <= point.m:
        raise ValueError(f"order r={r} outside 1..{point.m}")
    ev = point._spectrum.w
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
    spec = point._spectrum
    # Only the domain metric changes: factor rho^2 G, reuse P.
    _, low = _check_metric(rho**2 * point.domain_metric, "domain metric")
    scaled = _diagonalise(low, spec.pullback).eps[r]
    return abs(scaled * rho ** (2 * r) - spec.eps[r])


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
    eps = point._spectrum.eps
    volume_density = sqrt(max(float(eps[m]), 0.0))
    return float(eps[r]) - comb(m, r) * volume_density
