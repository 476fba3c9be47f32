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
nothing cancels, however ill-conditioned G is.  A :class:`DensityReport`
forms alpha and the chi_r on first read, so a caller that reads only the
invariants pays for the diagonalisation alone.

A :class:`PointData` holds one point or a stack of points of one shape:
Jacobians (..., n, m) with metrics (..., m, m) and (..., n, n) that share
the leading axes.  Every function treats each point of the stack on its
own and returns results over the same leading axes, each row exactly what
that point alone gives.  A single point is a stack with no leading axes:
its scalar results (volume density, verdicts, residuals, gaps) are Python
floats and bools.  A refusal names the first offending row of a stack
("domain metric row 7 is not positive-definite"), as ``invariants`` states.

Each metric is factored by one LAPACK call, and a row that is not definite is
refused by name from the NaN that LAPACK leaves in its factor.  Only the
battery's ``cauchy_green_gram_oracle`` reads :func:`cauchy_green`, which solves
through ``np.linalg`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .invariants import MAX_DIM, _check_order, _finite, _frozen, _real, _refused, _row, _scalars
from .invariants import elementary_invariants_minors

__all__ = [
    "DensityReport", "InvalidMetricError", "PointData", "UnsupportedDimensionError",
    "cauchy_green", "conformal_scaling_residual", "density_report", "gram_invariants",
    "majorisation_gap", "r_conformal_check", "stretch_eigenvalues",
]


#: Relative tolerance of :func:`r_conformal_check`.
_CONFORMAL_TOL = 1e-9


# np.linalg's LAPACK gufuncs, unwrapped: a row that fails is NaN and sets the invalid flag.
_cholesky, _inv, _eigh = _umath_linalg.cholesky_lo, _umath_linalg.inv, _umath_linalg.eigh_lo


class InvalidMetricError(ValueError):
    """A supplied metric matrix is not symmetric positive-definite."""


class UnsupportedDimensionError(ValueError):
    """The operation requires an even domain dimension."""


@lru_cache(maxsize=None)  # a few (m, dtype) keys, m <= MAX_DIM
def _eye(m: int, dtype: type) -> np.ndarray:
    # np.eye(m, dtype=dtype), built once and shared read-only.
    eye = np.eye(m, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _check_metric(g, name: str) -> tuple[np.ndarray, np.ndarray]:
    # The symmetrized (..., m, m) metric and its Cholesky factor, which
    # proves every row definite; callers ignore the invalid flag of a NaN row.
    g = _real(g, name, InvalidMetricError)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise InvalidMetricError(f"{name} must be square, got shape {g.shape}")
    _finite(g, name, 2, error=InvalidMetricError)
    # Equal bytes prove exact symmetry before any arithmetic; only a metric
    # whose bytes differ (within tolerance, or a +-0.0 pair) forms |g - g^T|.
    if g.tobytes() != g.mT.tobytes():
        asym = np.abs(g - g.mT)
        # Each row's tolerance is 1e-12 max(1, max |g|): a stack within 1e-12
        # passes without forming them.
        if (worst := asym.max(initial=0.0)) > 1e-12:
            sym_tol = 1e-12 * np.abs(g).max(axis=(-2, -1), initial=1.0)
            symmetric = asym.max(axis=(-2, -1)) <= sym_tol
            if not symmetric.all():
                raise InvalidMetricError(f"{name}{_row(symmetric)} is not symmetric")
        # Halve first, so entries near the float max stay finite.
        if worst != 0.0:
            g = 0.5 * g + 0.5 * g.mT
    low = _cholesky(g, signature="d->d")
    return g, _finite(low, name, 2, "is not positive-definite", InvalidMetricError)


@dataclass(frozen=True)
class PointData:
    """Jacobian and metrics of a map at a point, or at a stack of points.

    Parameters
    ----------
    jacobian : (..., n, m) array
        Differential of the map in the chosen domain/codomain frames.
    domain_metric : (..., m, m) array
        Symmetric positive-definite Gram matrix of the domain frame.
    codomain_metric : (..., n, n) array
        Symmetric positive-definite Gram matrix of the codomain frame.

    The three share their leading axes; with none, this is a single point.
    """

    jacobian: np.ndarray
    domain_metric: np.ndarray
    codomain_metric: np.ndarray
    # Cholesky factor L of the domain metric, G = L L^T.
    _domain_factor: np.ndarray = field(init=False, repr=False, compare=False)

    @np.errstate(invalid="ignore")  # a metric that is not definite is refused by name
    def __post_init__(self):
        jac = _real(self.jacobian, "jacobian")
        if jac.ndim < 2:
            raise ValueError(f"jacobian must be 2-D, got shape {jac.shape}")
        _finite(jac, "jacobian", 2)
        g, low = _check_metric(self.domain_metric, "domain metric")
        h, _ = _check_metric(self.codomain_metric, "codomain metric")
        n, m = jac.shape[-2:]
        if m > MAX_DIM:
            raise ValueError(f"domain dimension {m} exceeds cap {MAX_DIM}")
        if g.shape[-1] != m:
            raise ValueError("domain metric size does not match jacobian columns")
        if h.shape[-1] != n:
            raise ValueError("codomain metric size does not match jacobian rows")
        if not jac.shape[:-2] == g.shape[:-2] == h.shape[:-2]:
            raise ValueError(
                "jacobian and metrics must share their leading axes, got shapes "
                f"{jac.shape}, {g.shape} and {h.shape}"
            )
        # Read-only copies, not the caller's arrays: the cached spectrum is theirs.
        for name, arr in (("jacobian", jac), ("domain_metric", g), ("codomain_metric", h)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_domain_factor", low)

    @property
    def m(self) -> int:
        return self.jacobian.shape[-1]

    @property
    def n(self) -> int:
        return self.jacobian.shape[-2]

    @cached_property
    def _spectrum(self) -> _Spectrum:
        # The one diagonalisation every density quantity of the point reads.
        # cached_property stores into the instance __dict__, which the frozen
        # dataclass leaves writable.  An overflowing P is refused with B.
        with np.errstate(over="ignore", invalid="ignore"):
            return _diagonalise(self._domain_factor, _pullback(self))


class _Spectrum(NamedTuple):
    pullback: np.ndarray  # P = J^T H J
    inv_low: np.ndarray  # L^{-1}
    low_p: np.ndarray  # L^{-1} P
    whitened: np.ndarray  # B = L^{-1} P L^{-T}
    w: np.ndarray  # ascending eigenvalues of B
    q: np.ndarray  # orthonormal eigenvectors of B, as columns
    eps: np.ndarray  # (..., m+1) e_r(w)


def _diagonalise(low: np.ndarray, pullback: np.ndarray) -> _Spectrum:
    # Whiten P by the Cholesky factor L of the domain metric, diagonalise
    # B = L^{-1} P L^{-T} and build its invariants by the product recursion.
    # Callers ignore overflow and invalid values: a B that leaves the float
    # range, or whose eigendecomposition does not converge, is refused here.
    inv_low = _inv(low, signature="d->d")
    low_p = inv_low @ pullback
    b = low_p @ inv_low.mT
    b = 0.5 * (b + b.mT)
    _finite(b, "the whitened pullback L^-1 J^T H J L^-T", 2, "overflows the float range")
    w, q = _eigh(b, signature="d->dd")
    _finite(w, "the eigendecomposition of the whitened pullback", 1, "did not converge")
    spec = _Spectrum(pullback, inv_low, low_p, b, w, q, _product_invariants(w[..., None])[..., 0])
    # Every caller shares the two arrays that leave the module.
    w.setflags(write=False)
    spec.eps.setflags(write=False)
    return spec


def _product_invariants(values: np.ndarray) -> np.ndarray:
    # Elementary symmetric functions (e_0, ..., e_m) of each column of the
    # (..., m, k) ``values``, as (..., m+1, k): multiply out
    # prod_j (1 + v_j t) one factor at a time, e <- e + v_j * shift(e).
    m = values.shape[-2]
    e = np.zeros(values.shape[:-2] + (m + 1, values.shape[-1]))
    e[..., 0, :] = 1.0
    lo, hi = e[..., :-1, :], e[..., 1:, :]
    term = np.empty_like(lo)
    for j in range(m):
        hi += np.multiply(values[..., j, None, :], lo, out=term)
    return e


@dataclass(frozen=True)
class DensityReport:
    """Distortion operator, invariants, volume density, and Newton tensors.

    ``alpha`` is (..., m, m), ``eps`` the (..., m+1) invariants
    (e_0, ..., e_m) of alpha, ``volume_density`` a float for one point and
    a (...) array for a stack, and ``newton`` the (..., m+1, m, m) Newton
    endomorphisms chi_0, ..., chi_m of alpha.  ``alpha`` and ``newton`` are
    formed from the point's diagonalisation on first read and kept.
    """

    eps: np.ndarray
    volume_density: float | np.ndarray
    _point: PointData = field(repr=False, compare=False)

    @cached_property
    def alpha(self) -> np.ndarray:
        spec = self._point._spectrum
        return spec.inv_low.mT @ spec.low_p

    @cached_property
    def newton(self) -> np.ndarray:
        point = self._point
        spec, m = point._spectrum, point.m
        # chi_r(alpha) = L^{-T} Q diag(e_r(w without w_i)) Q^T L^T for every
        # r at once: column i of ``values`` is w with w_i set to 0.  chi_m
        # vanishes exactly, since each e_m(w without w_i) is 0.
        values = np.where(_eye(m, bool), 0.0, spec.w[..., None])
        leave_one_out = _product_invariants(values)
        left = spec.inv_low.mT @ spec.q
        right = (point._domain_factor @ spec.q).mT
        newton = (left[..., None, :, :] * leave_one_out[..., :, None, :]) @ right[..., None, :, :]
        newton[..., 0, :, :] = _eye(m, float)
        return newton


def _volume_density(eps: np.ndarray) -> np.ndarray:
    # sqrt(e_m), with a roundoff-negative e_m read as 0; a numpy scalar for one point.
    return np.sqrt(np.maximum(eps[..., -1][()], 0.0))


def _pullback(point: PointData) -> np.ndarray:
    # P = J^T H J, symmetrized; callers ignore overflow and invalid values.
    jac = point.jacobian
    p = jac.mT @ point.codomain_metric @ jac
    return 0.5 * (p + p.mT)


def cauchy_green(point: PointData) -> np.ndarray:
    """Distortion operator alpha = G^{-1} J^T H J, shape (..., m, m).

    Self-adjoint with respect to G (i.e. G @ alpha is symmetric) and
    positive semi-definite; its eigenvalues are the squared principal
    stretches of the map at the point.  Solved directly from (G, P), apart
    from the whitening that :func:`density_report` reads, so the battery
    can check that path against it; refused when it overflows the float range.
    """
    name = "the distortion operator G^-1 J^T H J"
    return _refused(lambda: np.linalg.solve(point.domain_metric, _pullback(point)), name, 2)


def stretch_eigenvalues(point: PointData) -> np.ndarray:
    """Ascending eigenvalues of (J^T H J, G), all real and >= 0 up to roundoff.

    Shape (..., m).  Computed as the symmetric eigenvalues of the whitened
    pullback B = L^{-1} P L^{-T} (G = L L^T), which preserves symmetry
    instead of balancing the non-symmetric product G^{-1} J^T H J.
    """
    return point._spectrum.w


def gram_invariants(point: PointData) -> np.ndarray:
    """Brute-force oracle for the invariants: principal minors of the
    pullback Gram matrix expressed in a G-orthonormal frame, (..., m+1).

    Sums principal r x r minors of the same whitened pullback
    B = L^{-1} P L^{-T} that :func:`density_report` diagonalises; it shares
    the whitening with that path but neither its eigendecomposition nor
    its product recursion.
    """
    return elementary_invariants_minors(point._spectrum.whitened)


def density_report(point: PointData) -> DensityReport:
    """All pointwise density data of the map: the invariant vector and the
    volume density sqrt(e_m) now, alpha and its Newton endomorphisms when
    first read."""
    eps = point._spectrum.eps
    volume = _scalars(_volume_density(eps))
    return _frozen(DensityReport, {"eps": eps, "volume_density": volume, "_point": point})


def r_conformal_check(point: PointData, r: int):
    """Pointwise r-conformality test: a bool, or a (...) bool array.

    True when the squared stretches are all equal within a relative spread
    of 1e-9 (a conformal point), or when fewer than r of them exceed 1e-9
    times the largest (the rank of the differential is below r).
    """
    _check_order(r, point.m)
    ev = point._spectrum.w
    low, rth, top = ev[..., 0][()], ev[..., -r][()], ev[..., -1][()]  # scalars for one point
    floor = _CONFORMAL_TOL * top
    # ev ascends, so fewer than r stretches exceed the floor exactly when
    # the r-th largest does not (which covers a top stretch <= 0 too).
    return _scalars((top - low <= floor) | (rth <= floor))


def _scale_powers(rho, r: int) -> tuple[np.ndarray, np.ndarray]:
    # (rho^2, rho^(2r)) for each scale factor, each power taken in Python
    # float arithmetic (C pow) as for a scalar rho.  A factor that is not
    # positive, or whose powers leave the float range, is refused.
    rho = _real(rho, "scale factor")
    squares, tops = [], []
    for x in rho.ravel().tolist():
        if not 0.0 < x < float("inf"):
            problem = f"must be positive, got {x}"
        else:
            try:
                square, top = x**2, x ** (2 * r)
            except OverflowError:
                square = top = float("inf")
            if 0.0 < square < float("inf") and 0.0 < top < float("inf"):
                squares.append(square)
                tops.append(top)
                continue
            powers = "rho^2" if r == 1 else f"rho^2 and rho^{2 * r}"
            problem = f"{x!r} is out of range: {powers} must be finite and nonzero"
        ok = np.arange(rho.size).reshape(rho.shape) != len(squares)
        raise ValueError(f"scale factor{_row(ok)} {problem}")
    return np.array(squares).reshape(rho.shape), np.array(tops).reshape(rho.shape)


def conformal_scaling_residual(point: PointData, rho, r: int):
    """Homogeneity residual |e_r(rho^2 G) * rho^(2r) - e_r(G)|.

    ``rho`` is one scale factor or a (...) array, one per point of the
    stack.  Degree-r invariants scale as rho^(-2r) under G -> rho^2 G, so
    the residual vanishes identically; for m = 2r it is exactly the failure
    of invariance of the density-times-volume-element combination.
    """
    _check_order(r, point.m)
    square, top = _scale_powers(rho, r)
    spec = point._spectrum
    # Only the domain metric changes: factor rho^2 G, reuse P.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            _, low = _check_metric(square[..., None, None] * point.domain_metric, "domain metric")
        except InvalidMetricError as exc:
            raise ValueError(f"scale factor takes rho^2 G out of the float range: {exc}") from None
        scaled = _diagonalise(low, spec.pullback).eps[..., r]
    # [()] reads a single point's 0-d values as numpy scalars, whose
    # arithmetic is cheaper; a stack's arrays pass through.
    return _scalars(abs(scaled[()] * top[()] - spec.eps[..., r][()]))


def majorisation_gap(point: PointData):
    """Gap e_r - binom(m, r) * v for even m and r = m/2: a float, or a (...)
    array.

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
    return _scalars(eps[..., r][()] - comb(m, r) * _volume_density(eps))
