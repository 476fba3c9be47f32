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

A :class:`PointData` holds one point or a stack of points of one shape:
Jacobians (..., n, m) with metrics (..., m, m) and (..., n, n) that share
the leading axes.  Every function treats each point of the stack on its
own and returns results over the same leading axes, each row exactly what
that point alone gives.  A single point is a stack with no leading axes:
its scalar results (volume density, verdicts, residuals, gaps) are Python
floats and bools.  A refusal names the first offending row of a stack, in
C order ("domain metric row 7 is not positive-definite"), and no row for
a single point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .invariants import MAX_DIM, elementary_invariants_minors


#: Relative tolerance of :func:`r_conformal_check`.
_CONFORMAL_TOL = 1e-9


class InvalidMetricError(ValueError):
    """A supplied metric matrix is not symmetric positive-definite."""


class UnsupportedDimensionError(ValueError):
    """The operation requires an even domain dimension."""


def _row(ok: np.ndarray) -> str:
    # " row k" naming the first row of a stack where ``ok`` is False; ""
    # for a single point.
    if ok.ndim == 0:
        return ""
    first = np.unravel_index(np.argmin(ok), ok.shape)
    return f" row {int(first[0]) if ok.ndim == 1 else tuple(int(i) for i in first)}"


def _real(a, name: str, error: type[ValueError] = ValueError) -> np.ndarray:
    # ``a`` as a float array; a complex one is refused, not truncated.
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise error(f"{name} has complex entries")
    return np.asarray(arr, dtype=float)


def _finite(values, name: str, problem="overflows the float range", error=ValueError):
    # ``values`` (..., k, m), refused naming the first row with a non-finite entry.
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=(-2, -1))
        raise error(f"{name}{_row(finite)} {problem}")
    return values


def _scalars(values: np.ndarray):
    # A single point's result as a Python scalar, a stack's as its array.
    return values.item() if values.ndim == 0 else values


@lru_cache(maxsize=None)  # a few (m, cols, k, dtype) keys, m <= MAX_DIM
def _eye(m: int, cols: int, k: int, dtype: type) -> np.ndarray:
    # np.eye(m, cols, k, dtype), built once and shared read-only.
    eye = np.eye(m, cols, k=k, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _check_metric(g, name: str) -> tuple[np.ndarray, np.ndarray]:
    # The symmetrized (..., m, m) metric and its Cholesky factor, which
    # proves every row definite.
    g = _real(g, name, InvalidMetricError)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise InvalidMetricError(f"{name} must be square, got shape {g.shape}")
    _finite(g, name, "has non-finite entries", InvalidMetricError)
    asym = np.abs(g - g.mT)
    # Each row's tolerance is 1e-12 max(1, max |g|): a stack within 1e-12
    # passes without forming them.
    if asym.max(initial=0.0) > 1e-12:
        sym_tol = 1e-12 * np.abs(g).max(axis=(-2, -1), initial=1.0)
        symmetric = asym.max(axis=(-2, -1)) <= sym_tol
        if not symmetric.all():
            raise InvalidMetricError(f"{name}{_row(symmetric)} is not symmetric")
    sym = 0.5 * (g + g.mT)
    try:
        return sym, np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        # The stacked factorisation names no row: factor row by row.
        rows = sym.reshape((-1,) + sym.shape[-2:])
        definite = np.reshape([_is_definite(row) for row in rows], sym.shape[:-2])
        raise InvalidMetricError(f"{name}{_row(definite)} is not positive-definite") from None


def _is_definite(g: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


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

    def __post_init__(self):
        jac = _real(self.jacobian, "jacobian")
        if jac.ndim < 2:
            raise ValueError(f"jacobian must be 2-D, got shape {jac.shape}")
        _finite(jac, "jacobian", "has non-finite entries")
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
        object.__setattr__(self, "jacobian", jac)
        object.__setattr__(self, "domain_metric", g)
        object.__setattr__(self, "codomain_metric", h)
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
    leave_one_out: np.ndarray  # (..., m+1, m): [r, i] is e_r(w without w_i)


def _diagonalise(low: np.ndarray, pullback: np.ndarray) -> _Spectrum:
    # Whiten P by the Cholesky factor L of the domain metric, diagonalise
    # B = L^{-1} P L^{-T} and build its invariants by the product recursion.
    # Callers ignore overflow and invalid values: a B that leaves the float
    # range is refused here.
    inv_low = np.linalg.inv(low)
    low_p = inv_low @ pullback
    b = low_p @ inv_low.mT
    b = _finite(0.5 * (b + b.mT), "the whitened pullback L^-1 J^T H J L^-T")
    w, q = np.linalg.eigh(b)
    # Column 0 of ``values`` is w; column i + 1 is w with w_i set to 0,
    # whose invariants e_r(w without w_i) weight the Newton tensors.
    m = w.shape[-1]
    values = np.where(_eye(m, m + 1, 1, bool), 0.0, w[..., None])
    e = _product_invariants(values)
    spec = _Spectrum(pullback, inv_low, low_p, b, w, q, e[..., 0], e[..., 1:])
    # Every caller shares the two arrays that leave the module.
    w.flags.writeable = spec.eps.flags.writeable = False
    return spec


def _product_invariants(values: np.ndarray) -> np.ndarray:
    # Elementary symmetric functions (e_0, ..., e_m) of each column of the
    # (..., m, k) ``values``, as (..., m+1, k): multiply out
    # prod_j (1 + v_j t) one factor at a time, e <- e + v_j * shift(e).
    m = values.shape[-2]
    e = np.zeros(values.shape[:-2] + (m + 1, values.shape[-1]))
    e[..., 0, :] = 1.0
    for j in range(m):
        e[..., 1:, :] += values[..., j, None, :] * e[..., :-1, :]
    return e


@dataclass(frozen=True)
class DensityReport:
    """Distortion operator, invariants, volume density, and Newton tensors.

    ``alpha`` is (..., m, m), ``eps`` the (..., m+1) invariants
    (e_0, ..., e_m) of alpha, ``volume_density`` a float for one point and
    a (...) array for a stack, and ``newton`` the (..., m+1, m, m) Newton
    endomorphisms chi_0, ..., chi_m of alpha.
    """

    alpha: np.ndarray
    eps: np.ndarray
    volume_density: float | np.ndarray
    newton: np.ndarray = field(repr=False)


def _volume_density(eps: np.ndarray) -> np.ndarray:
    # sqrt(e_m), with a roundoff-negative e_m read as 0.
    return np.sqrt(np.maximum(eps[..., -1], 0.0))


def pullback_metric(point: PointData) -> np.ndarray:
    """Pullback Gram matrix P = J^T H J, symmetrized, shape (..., m, m);
    refused when it overflows the float range."""
    return _finite(_pullback(point), "the pullback metric J^T H J")


def _pullback(point: PointData) -> np.ndarray:
    jac = point.jacobian
    with np.errstate(over="ignore", invalid="ignore"):
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
    alpha = np.linalg.solve(point.domain_metric, _pullback(point))
    return _finite(alpha, "the distortion operator G^-1 J^T H J")


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
    """All pointwise density data of the map: alpha, its invariant vector,
    the volume density sqrt(e_m), and the Newton endomorphisms of alpha."""
    spec = point._spectrum
    # chi_r(alpha) = L^{-T} Q diag(e_r(w without w_i)) Q^T L^T for every r at
    # once; chi_m vanishes exactly, since each e_m(w without w_i) is 0.
    left = spec.inv_low.mT @ spec.q
    right = (point._domain_factor @ spec.q).mT
    newton = (left[..., None, :, :] * spec.leave_one_out[..., :, None, :]) @ right[..., None, :, :]
    newton[..., 0, :, :] = _eye(point.m, point.m, 0, float)
    return DensityReport(
        alpha=spec.inv_low.mT @ spec.low_p,
        eps=spec.eps,
        volume_density=_scalars(_volume_density(spec.eps)),
        newton=newton,
    )


def r_conformal_check(point: PointData, r: int):
    """Pointwise r-conformality test: a bool, or a (...) bool array.

    True when the squared stretches are all equal within a relative spread
    of 1e-9 (a conformal point), or when fewer than r of them exceed 1e-9
    times the largest (the rank of the differential is below r).
    """
    if not 1 <= r <= point.m:
        raise ValueError(f"order r={r} outside 1..{point.m}")
    ev = point._spectrum.w
    floor = _CONFORMAL_TOL * ev[..., -1]
    # ev ascends, so fewer than r stretches exceed the floor exactly when
    # the r-th largest does not (which covers a top stretch <= 0 too).
    return _scalars((ev[..., -1] - ev[..., 0] <= floor) | (ev[..., -r] <= floor))


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
    if not 1 <= r <= point.m:
        raise ValueError(f"order r={r} outside 1..{point.m}")
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
