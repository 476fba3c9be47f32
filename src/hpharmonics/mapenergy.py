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

Every quantity is read from one values-only singular value decomposition
per point.  With G = L_G L_G^T and H = L_H L_H^T, the squared principal
stretches are the squared singular values w = s^2 of the whitened Jacobian

    W = L_H^T J L_G^{-T},    W^T W = L_G^{-1} P L_G^{-T} = Q diag(w) Q^T,

padded with m - n exact zeros when n < m, and alpha = L_G^{-T} Q diag(w) Q^T L_G^T.
Then

    e_r(alpha) = e_r(w),    chi_r(alpha) = L_G^{-T} Q diag(e_r(w without w_i)) Q^T L_G^T,

and each e_r is built by multiplying out prod_i (1 + w_i t) one stretch at a
time: the i-th stretch updates e_r <- e_r + w_i * e_{r-1} for r = i down to
1 and nothing above, the triangle of terms that can be nonzero.  A single
point runs it on Python floats, a stack on one array per stretch, in one
body with the same bits.  Every w_i is a square, so every term is >= 0 and
nothing cancels, however ill-conditioned G is.  Taking s from W rather than
eigenvalues of its normal matrix W^T W keeps the small stretches relatively
accurate: each s has an absolute error of about u |W| (u the unit roundoff),
so w_i has about u |W| / s_i relative error, not u |W|^2 / s_i^2 (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 20).  A
:class:`DensityReport` forms alpha, the right singular vectors Q and the
chi_r on first read, so a caller that reads only the invariants pays for the
singular values alone.

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
from functools import cached_property
from math import comb, inf
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .invariants import MAX_DIM, TOL, _carrier, _check_order, _finite, _frozen, _positive, _real
from .invariants import _refused, _row, _scalars, elementary_invariants_minors

__all__ = [
    "DensityReport", "InvalidMetricError", "PointData", "UnsupportedDimensionError",
    "cauchy_green", "conformal_scaling_residual", "density_report", "gram_invariants",
    "majorisation_gap", "r_conformal_check", "stretch_eigenvalues",
]


# np.linalg's LAPACK gufuncs, unwrapped: a row that fails is NaN and sets the invalid flag.
# _svd gives the singular values alone, _svd_full also U and V^T at full size.
_cholesky, _inv = _umath_linalg.cholesky_lo, _umath_linalg.inv
if hasattr(_umath_linalg, "svd"):
    _svd, _svd_full = _umath_linalg.svd, _umath_linalg.svd_f
else:  # numpy 2.0 splits each SVD gufunc by shape, svd_m for fewer rows than columns
    def _svd(a, signature):
        rows, cols = a.shape[-2:]
        return (_umath_linalg.svd_m if rows < cols else _umath_linalg.svd_n)(a, signature=signature)

    def _svd_full(a, signature):
        rows, cols = a.shape[-2:]
        gufunc = _umath_linalg.svd_m_f if rows < cols else _umath_linalg.svd_n_f
        return gufunc(a, signature=signature)


class InvalidMetricError(ValueError):
    """A supplied metric matrix is not symmetric positive-definite."""


class UnsupportedDimensionError(ValueError):
    """The operation requires an even domain dimension."""


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
    # Cholesky factors of the metrics, G = L_G L_G^T and H = L_H L_H^T.
    _domain_factor: np.ndarray = field(init=False, repr=False, compare=False)
    _codomain_factor: np.ndarray = field(init=False, repr=False, compare=False)

    @np.errstate(invalid="ignore")  # a metric that is not definite is refused by name
    def __post_init__(self):
        jac = _real(self.jacobian, "jacobian")
        if jac.ndim < 2:
            raise ValueError(f"jacobian must be 2-D, got shape {jac.shape}")
        _finite(jac, "jacobian", 2)
        g, low = _check_metric(self.domain_metric, "domain metric")
        h, cod_low = _check_metric(self.codomain_metric, "codomain metric")
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
        object.__setattr__(self, "_codomain_factor", cod_low)

    @property
    def m(self) -> int:
        return self.jacobian.shape[-1]

    @property
    def n(self) -> int:
        return self.jacobian.shape[-2]

    @cached_property
    def _inv_domain_factor(self) -> np.ndarray:
        # L_G^{-1}, which whitens J for the spectrum and P for gram_invariants;
        # both read it where overflow is ignored.  cached_property stores into
        # the instance __dict__, which the frozen dataclass leaves writable.
        return _inv(self._domain_factor, signature="d->d")

    @cached_property
    def _spectrum(self) -> _Spectrum:
        # The one SVD every density quantity of the point reads.
        with np.errstate(over="ignore", invalid="ignore"):
            return _stretches(self._inv_domain_factor, self._codomain_factor.mT @ self.jacobian)


class _Spectrum(NamedTuple):
    framed: np.ndarray  # L_H^T J, J in an H-orthonormal frame; the rho^2 G point reuses it
    whitened: np.ndarray  # W = L_H^T J L_G^{-T}
    w: np.ndarray  # ascending squared singular values of W, m of them
    eps: np.ndarray  # (..., m+1) e_r(w)


def _stretches(inv_low: np.ndarray, framed: np.ndarray) -> _Spectrum:
    # Whiten L_H^T J by L_G^{-1}, take the singular values s of W alone and
    # build the invariants of w = s^2 by _product_invariants.  When n < m,
    # W has n singular values and the m - n missing stretches are exact zeros.
    # Callers ignore overflow and invalid values: a W or an s^2 that leaves
    # the float range, or an SVD that does not converge, is refused here.
    whitened = framed @ inv_low.mT
    s = _svd(whitened, signature="d->d")
    w = np.square(s[..., ::-1])
    if (missing := whitened.shape[-1] - s.shape[-1]) > 0:
        w = np.concatenate((np.zeros(s.shape[:-1] + (missing,)), w), axis=-1)
    try:
        _finite(w, "the squared stretches of the whitened Jacobian", 1, "overflow the float range")
    except ValueError:
        # Name the first cause: W itself overflowed, or LAPACK did not converge.
        _finite(whitened, "the whitened Jacobian L_H^T J L_G^-T", 2, "overflows the float range")
        _finite(s, "the singular values of the whitened Jacobian", 1, "did not converge")
        raise
    spec = _Spectrum(framed, whitened, w, _product_invariants(w))
    # Every caller shares the two arrays that leave the module.
    w.setflags(write=False)
    spec.eps.setflags(write=False)
    return spec


def _right_vectors(whitened: np.ndarray) -> np.ndarray:
    # Q, the right singular vectors of W as columns in the order of w.  The
    # full-size V^T is m x m also when n < m; its null vectors come last,
    # so reversed they come first, as w's padded zeros do.
    with np.errstate(invalid="ignore"):
        vt = _svd_full(whitened, signature="d->ddd")[2]
    _finite(vt, "the singular vectors of the whitened Jacobian", 2, "did not converge")
    return vt[..., ::-1, :].mT


def _absorb(e: list, stretches) -> list:
    # Multiply the coefficients e = [e_0, ..., e_j] by each (1 + v t) in turn:
    # v opens e_{j+1} = v * e_j and updates e_r <- e_r + v * e_{r-1} for
    # r = j down to 1; a term above that triangle would add v * 0.0 to 0.0, as
    # every v is finite and >= 0.  Each product and sum rounds once, unfused, on
    # either carrier; entries are rebound, so lists that share them stay apart.
    for v in stretches:
        e.append(v * e[-1])
        for r in range(len(e) - 2, 0, -1):
            e[r] = e[r] + v * e[r - 1]
    return e


def _product_invariants(w: np.ndarray) -> np.ndarray:
    # e_0, ..., e_m of the last axis of (..., m) ``w``, on its carrier.
    carrier = _carrier(w)
    return carrier.pack(_absorb([carrier.full(w.shape[:-1], 1.0)], carrier.split(w)))


def _leave_one_out(w: np.ndarray) -> np.ndarray:
    # e_r(w without w_i) as (..., m+1, m), column i.  A factor 1 + 0 t only
    # appends a 0.0, so column i continues the prefix after w_0..w_{i-1} by
    # w_{i+1}..w_{m-1}, sharing prefixes, and appends the 0.0.  The full
    # prefix is packed last and dropped, so that m = 0 packs something too.
    carrier, (*rows, m) = _carrier(w), w.shape
    stretches, prefix, columns = carrier.split(w), [carrier.full(rows, 1.0)], []
    for i, v in enumerate(stretches):
        columns += _absorb(prefix[:], stretches[i + 1:]) + [carrier.full(rows, 0.0)]
        _absorb(prefix, (v,))
    return carrier.pack(columns + prefix).reshape(*rows, m + 1, m + 1)[..., :m, :].swapaxes(-1, -2)


@dataclass(frozen=True)
class DensityReport:
    """Distortion operator, invariants, volume density, and Newton tensors.

    ``alpha`` is (..., m, m), ``eps`` the (..., m+1) invariants
    (e_0, ..., e_m) of alpha, ``volume_density`` a float for one point and
    a (...) array for a stack, and ``newton`` the (..., m+1, m, m) Newton
    endomorphisms chi_0, ..., chi_m of alpha.  ``alpha`` and ``newton`` are
    formed from the point's whitened Jacobian on first read and kept;
    ``newton`` is refused when it overflows the float range.
    """

    eps: np.ndarray
    volume_density: float | np.ndarray
    _point: PointData = field(repr=False, compare=False)

    @cached_property
    def alpha(self) -> np.ndarray:
        # G^{-1} J^T H J = (L_G^{-T} W^T)(L_H^T J), each factor at the scale of its half.
        point = self._point
        spec = point._spectrum
        return point._inv_domain_factor.mT @ spec.whitened.mT @ spec.framed

    @cached_property
    def newton(self) -> np.ndarray:
        point = self._point
        spec, m = point._spectrum, point.m
        q = _right_vectors(spec.whitened)

        def form():
            # chi_r(alpha) = L^{-T} Q diag(e_r(w without w_i)) Q^T L^T for every
            # r at once.  chi_m vanishes exactly, since each e_m(w without w_i) is 0.
            leave_one_out = _leave_one_out(spec.w)
            left = point._inv_domain_factor.mT @ q
            right = (point._domain_factor @ q).mT
            scaled_left = left[..., None, :, :] * leave_one_out[..., :, None, :]
            newton = scaled_left @ right[..., None, :, :]
            newton[..., 0, :, :] = np.eye(m)
            return newton

        return _refused(form, "the stack of Newton tensors", 3)


def _volume_density(eps: np.ndarray) -> np.ndarray:
    # sqrt(e_m), a product of squares and so never negative; a numpy scalar for one point.
    return np.sqrt(eps[..., -1][()])


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
    """Ascending eigenvalues of (J^T H J, G): the squared principal stretches.

    Shape (..., m), every entry >= 0.  Computed as the squared singular
    values of the whitened Jacobian W = L_H^T J L_G^{-T} (G = L_G L_G^T,
    H = L_H L_H^T), with m - n exact zeros first when n < m, so no normal
    matrix is formed and the small stretches keep their relative accuracy.
    """
    return point._spectrum.w


def gram_invariants(point: PointData) -> np.ndarray:
    """Brute-force oracle for the invariants: principal minors of the
    pullback Gram matrix expressed in a G-orthonormal frame, (..., m+1).

    Forms the whitened pullback B = L^{-1} P L^{-T} (P = J^T H J, G = L L^T)
    and sums its principal r x r minors.  It shares only L^{-1} with
    :func:`density_report`, which takes the singular values of
    W = L_H^T J L^{-T} (B = W^T W) and forms neither P nor B.  Refused when
    B overflows the float range.
    """

    def whiten():
        inv_low = point._inv_domain_factor
        b = inv_low @ _pullback(point) @ inv_low.mT
        return 0.5 * (b + b.mT)

    name = "the whitened pullback L^-1 J^T H J L^-T"
    return elementary_invariants_minors(_refused(whiten, name, 2))


def density_report(point: PointData) -> DensityReport:
    """All pointwise density data of the map: the invariant vector and the
    volume density sqrt(e_m) now, alpha and its Newton endomorphisms when
    first read.  The invariants are e_r(w) of the squared singular values
    w of W = L_H^T J L_G^{-T}, one values-only SVD per point; an invariant
    that overflows is inf."""
    eps = point._spectrum.eps
    volume = _scalars(_volume_density(eps))
    return _frozen(DensityReport, {"eps": eps, "volume_density": volume, "_point": point})


def r_conformal_check(point: PointData, r: int):
    """Pointwise r-conformality test: a bool, or a (...) bool array.

    True when the squared stretches are all equal within a relative spread
    of ``TOL`` = 1e-9 (a conformal point), or when fewer than r of them
    exceed ``TOL`` times the largest (the rank of the differential is below
    r): the tolerance policy of every ``lie3`` verdict.
    """
    _check_order(r, point.m)
    ev = point._spectrum.w
    low, rth, top = ev[..., 0][()], ev[..., -r][()], ev[..., -1][()]  # scalars for one point
    floor = TOL * top
    # ev ascends, so fewer than r stretches exceed the floor exactly when
    # the r-th largest does not (which covers a top stretch <= 0 too).
    return _scalars((top - low <= floor) | (rth <= floor))


def _scale_powers(rho, r: int) -> tuple[np.ndarray, np.ndarray]:
    # (rho^2, rho^(2r)) for each scale factor, each power taken in Python
    # float arithmetic (C pow) as for a scalar rho.  A factor that is not a
    # positive finite real, or whose powers leave the float range, is refused;
    # the powers of each factor that passes are kept as it is checked.
    squares, tops = [], []

    def out_of_range(x: float):
        try:
            square, top = x**2, x ** (2 * r)
        except OverflowError:
            square = top = inf
        if 0.0 < square < inf and 0.0 < top < inf:
            squares.append(square)
            tops.append(top)
            return None
        powers = "rho^2" if r == 1 else f"rho^2 and rho^{2 * r}"
        return f"{x!r} is out of range: {powers} must be finite and nonzero"

    shape = _positive(rho, "scale factor", out_of_range).shape
    return np.array(squares).reshape(shape), np.array(tops).reshape(shape)


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
    # Only the domain metric changes: factor rho^2 G, reuse L_H^T J.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            _, low = _check_metric(square[..., None, None] * point.domain_metric, "domain metric")
        except InvalidMetricError as exc:
            raise ValueError(f"scale factor takes rho^2 G out of the float range: {exc}") from None
        scaled = _stretches(_inv(low, signature="d->d"), spec.framed).eps[..., r]
    # [()] reads a single point's 0-d values as numpy scalars, whose
    # arithmetic is cheaper; a stack's arrays pass through.
    return _scalars(abs(scaled[()] * top[()] - spec.eps[..., r][()]))


def majorisation_gap(point: PointData):
    """Gap e_r - binom(m, r) * v for even m and r = m/2: a float, or a (...)
    array.

    Non-negative for every map point, and zero exactly at r-conformal
    points (equal squared stretches, or rank below r).  Refused when e_r or
    e_m overflows the float range, which leaves no gap to report.
    """
    m = point.m
    if m % 2 != 0:
        raise UnsupportedDimensionError(
            f"majorisation needs an even domain dimension, got m={m}"
        )
    r = m // 2
    eps = point._spectrum.eps
    gap = _refused(lambda: eps[..., r][()] - comb(m, r) * _volume_density(eps),
                   "the majorisation gap", 0)
    return _scalars(gap)
