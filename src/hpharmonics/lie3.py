"""Invariant vector fields on 3-dimensional unimodular Lie groups.

A left-invariant metric on a unimodular 3-dimensional Lie group is encoded,
after choosing a positively-oriented orthonormal eigenframe (e1, e2, e3) of
the structure map, by the principal structure constants (l1, l2, l3) with
[e_i, e_j] = eps_ijk * l_k * e_k.  The derived quantities

    mu_i  = (l1 + l2 + l3)/2 - l_i          (connection coefficients)
    rho_i = 2 * mu_j * mu_k                 (principal Ricci curvatures)
    K_ij  = (rho_i + rho_j - rho_k)/2       (principal sectional curvatures)

determine the whole geometry: the connection acts on an invariant field
sigma = sum a_i e_i by nabla_phi sigma = (mu*phi) x sigma, the curvature
operator on frame pairs by R(e_i, e_j) sigma = K_ij (a_j e_i - a_i e_j),
and the vertical tension fields of unit sigma reduce to polynomial
expressions in mu, rho, and a.  The diagonal map a_i -> mu_i * a_i (the
Milnor map) and its iterates are the basic building blocks.

Everything here is a pure function of these triples; frame-level sums over
the basis serve as brute-force oracles for the closed forms.  Every function
broadcasts over leading axes of (..., 3) inputs, each row computed exactly as
alone; a single triple is a batch of one that returns Python scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .invariants import elementary_invariants_newton

_TINY = 1e-300
_EYE3 = np.eye(3)
_DIAG = np.arange(3)
# Component k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1] (indices mod 3);
# one take gathers the entries k+1 then k+2, the other k+2 then k+1.
_NEXT_PREV = np.array([1, 2, 0, 2, 0, 1])
_PREV_NEXT = np.array([2, 0, 1, 1, 2, 0])
_NEXT, _PREV = _NEXT_PREV[:3], _NEXT_PREV[3:]

#: Tolerance policy of every verdict: a quantity counts as zero when it is
#: at most ``TOL`` times its scale (see :func:`_negligible`).
TOL = 1e-9
#: Step of the central difference in :func:`first_variation_fd`.
_FD_STEP = 1e-5

#: Ricci kernel dimension by the number of vanishing mu_i: rho_i = 2 mu_j mu_k
#: vanishes for both i != k when mu_k does, and every rho_i when two mu do.
_KERNEL_BY_ZERO_MU = (0, 2, 3, 3)

#: Algebra class labels keyed by (number of positive, number of negative)
#: structure constants after sign normalization.
_CLASS_BY_SIGNS = {
    (0, 0): "abelian",
    (1, 0): "nil",
    (1, 1): "e11",
    (2, 0): "e2",
    (2, 1): "sl2",
    (3, 0): "su2",
}


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain of validity."""


def _triple(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError(f"{name} must be a triple, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on 3 entries
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _negligible(magnitude, scale=1.0):
    """Whether ``magnitude`` (scalar or array) is zero relative to ``scale``;
    against a zero scale only an exact zero is negligible."""
    return magnitude <= TOL * scale


# Dot products over the last axis; np.vecdot evaluates each row as a single
# 3-vector product would, so stacks and single triples agree bit for bit.
_dot = np.vecdot


def _norm(v):
    return np.sqrt(_dot(v, v))


def _unit_triple(sigma) -> np.ndarray:
    arr = _triple(sigma, "sigma")
    norm_sq = _dot(arr, arr)
    if np.count_nonzero(abs(norm_sq - 1.0) > 2.0 * TOL):
        raise ValueError(f"sigma must be a unit vector, |sigma|^2 = {norm_sq}")
    return arr


def _zero_mask(values) -> list[bool]:
    # Which entries of a float triple are negligible against the largest.
    mags = [abs(v) for v in values]
    top = max(mags)
    return [_negligible(m, top) for m in mags]


def _scalar(value):
    # One triple in, one number out: the 0-d result as a Python scalar.
    return value.item() if value.ndim == 0 else value


def _geometry(lam: list) -> list:
    # lam, mu, rho and K = (K23, K13, K12) of sorted structure constants,
    # as one flat list of 12 floats.
    half_sum = 0.5 * sum(lam)
    m0, m1, m2 = (half_sum - v for v in lam)
    r0, r1, r2 = 2.0 * (m1 * m2), 2.0 * (m0 * m2), 2.0 * (m0 * m1)
    k23, k13, k12 = 0.5 * (r1 + r2 - r0), 0.5 * (r0 + r2 - r1), 0.5 * (r0 + r1 - r2)
    return [*lam, m0, m1, m2, r0, r1, r2, k23, k13, k12]


def _normalize_row(vals: list) -> tuple:
    # One raw triple of floats, flipped and sorted: lam, mu, rho, K and the
    # unit-scale mu and rho (of lam / 2^e, 2^e ~ max |lam_i|, exact) as 18
    # floats, then the class, kernel dimension, order and flip, all decided
    # on the unit scale.
    e = math.frexp(max(map(abs, vals)))[1]
    unit = [math.ldexp(v, -e) for v in vals]
    kept = [v for v, zero in zip(unit, _zero_mask(unit)) if not zero]
    npos, nneg = sum(v > 0 for v in kept), sum(v < 0 for v in kept)
    sign = -1.0 if nneg > npos else 1.0
    order = sorted(range(3), key=lambda i: -sign * vals[i])  # stable: ties keep input order
    numbers = _geometry([sign * vals[i] for i in order])
    numbers += _geometry([sign * unit[i] for i in order])[3:9]
    kernel = _KERNEL_BY_ZERO_MU[sum(_zero_mask(numbers[12:15]))]
    label = _CLASS_BY_SIGNS[max(npos, nneg), min(npos, nneg)]
    return numbers, label, kernel, tuple(order), sign < 0.0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Cross product over the last axis of (..., 3) arrays: numpy's products
    # and differences without its axis bookkeeping, costly on 3-vectors.
    products = a.take(_NEXT_PREV, -1) * b.take(_PREV_NEXT, -1)
    return products[..., :3] - products[..., 3:]


@dataclass(frozen=True)
class MilnorData:
    """Normalized principal structure constants and the geometry they fix.

    ``lam`` is stored descending with no fewer positive than negative
    entries; the sign flip is an orientation reversal and leaves every
    predicate unchanged.  ``permutation`` records how input slots map to
    normalized slots, so that frame coefficients given in the caller's order
    can follow along.  The connection coefficients ``mu``, principal Ricci
    curvatures ``ricci`` and sectional curvatures ``sectional`` follow from
    ``lam`` by the formulas in the module docstring; the sign pattern of
    ``lam`` selects one of the six unimodular classes.  The Ricci kernel
    dimension is 0, 2 or 3 as none, one or two of the mu_i vanish.

    ``unit_mu`` and ``unit_ricci`` are mu and rho of lam / 2^e, 2^e ~ max
    |lam_i|: the class, flatness, kernel and every locus rule read them, so
    no verdict depends on the scale of ``lam``.  A stack of triples gives
    arrays for every field; a single triple a str, bools, an int and a tuple.
    """

    lam: np.ndarray
    mu: np.ndarray
    ricci: np.ndarray
    sectional: np.ndarray  # (K23, K13, K12)
    algebra_class: str
    flat: bool
    ricci_kernel_dim: int
    permutation: tuple[int, int, int]
    sign_flipped: bool
    unit_mu: np.ndarray
    unit_ricci: np.ndarray

    @classmethod
    def normalize(cls, raw) -> "MilnorData":
        """Validate, flip and sort raw triples (a (..., 3) array) and derive
        their geometry."""
        vals = _triple(raw, "structure constants")
        lead = vals.shape[:-1]
        rows = [_normalize_row(row) for row in vals.reshape(-1, 3).tolist()]
        numbers = np.array([row[0] for row in rows]).reshape(lead + (6, 3))
        numbers.setflags(write=False)
        # The per-row facts: scalars for one triple, arrays for a stack.
        label, kernel, order, flipped = rows[0][1:] if not lead else (
            np.array(column).reshape(lead + np.shape(column[0]))
            for column in zip(*(row[1:] for row in rows))
        )
        return cls(
            lam=numbers[..., 0, :],
            mu=numbers[..., 1, :],
            ricci=numbers[..., 2, :],
            sectional=numbers[..., 3, :],
            algebra_class=label,
            flat=kernel == 3,
            ricci_kernel_dim=kernel,
            permutation=order,
            sign_flipped=flipped,
            unit_mu=numbers[..., 4, :],
            unit_ricci=numbers[..., 5, :],
        )

    def permute(self, components) -> np.ndarray:
        """Reorder coefficient triples from input order to normalized order."""
        arr = _triple(components, "components")
        if isinstance(self.permutation, tuple):
            return arr[..., list(self.permutation)]
        return np.take_along_axis(*np.broadcast_arrays(arr, self.permutation), -1)


#: The earlier name of :class:`MilnorData`, bound to the same class.
StructureConstants = MilnorData


def classify_algebra(x) -> MilnorData:
    """The :class:`MilnorData` of raw structure-constant triples; a
    :class:`MilnorData` is returned unchanged, so callers derive each
    geometry once."""
    return x if isinstance(x, MilnorData) else MilnorData.normalize(x)


# ---------------------------------------------------------------------------
# Connection, curvature, and energy densities of invariant fields
# ---------------------------------------------------------------------------


def milnor_iterate(md: MilnorData, v, r: int) -> np.ndarray:
    """r-th iterate of the diagonal map a_i -> mu_i * a_i applied to ``v``."""
    if r < 0:
        raise ValueError(f"iterate order must be >= 0, got {r}")
    arr = _triple(v, "v")
    return md.mu**r * arr


def covariant_derivative(md: MilnorData, phi, sigma) -> np.ndarray:
    """Covariant derivative of the invariant field ``sigma`` along ``phi``,
    namely (mu*phi) x sigma in the oriented principal frame."""
    return _cross(md.mu * _triple(phi, "phi"), _triple(sigma, "sigma"))


def grad_norm_sq(md: MilnorData, sigma):
    """Squared full covariant derivative, sum_i mu_i^2 (|sigma|^2 - a_i^2)."""
    return _scalar(_grad_norm_sq(md.mu**2, _triple(sigma, "sigma")))


def _grad_norm_sq(mu_sq: np.ndarray, arr: np.ndarray):
    # sum_i a_i^2 (mu_j^2 + mu_k^2): no term is negative, so nothing cancels.
    # in_z1 evaluates it on mu rescaled to max |mu_i| = 1.
    pairs = mu_sq.take(_NEXT_PREV, -1)
    return _dot(arr * arr, pairs[..., :3] + pairs[..., 3:])


def wedge_norm_sq(md: MilnorData, sigma):
    """Squared wedge of the covariant derivative with itself.

    Closed form |sigma|^2 |Ric(sigma)|^2 / 4; the Gram-determinant sum over
    frame pairs gives the same number (oracle in the test battery).
    """
    return _scalar(_vertical(md, _triple(sigma, "sigma"), 2)[1])


def _vertical(md: MilnorData, arr: np.ndarray, r: int):
    # Degree-r (1 or 2) vertical tension and bending density of validated
    # coefficients: t1 = sigma^(2) - |M|^2 sigma with e1 = |nabla sigma|^2,
    # t2 = -(|Ric sigma|^2 sigma + Ric^2 sigma)/4 with e2 = |sigma|^2 |Ric sigma|^2/4.
    if r == 1:
        mu_sq = md.mu**2
        return mu_sq * arr - mu_sq.sum(-1)[..., None] * arr, _grad_norm_sq(mu_sq, arr)
    ricci_sq, wedge = _ricci_terms(md, arr)
    return -0.25 * (ricci_sq[..., None] * arr + md.ricci**2 * arr), wedge


def _ricci_terms(md: MilnorData, arr: np.ndarray):
    # |Ric sigma|^2 and the degree-2 density e2 = |sigma|^2 |Ric sigma|^2 / 4.
    ric = md.ricci * arr
    ricci_sq = _dot(ric, ric)
    return ricci_sq, 0.25 * _dot(arr, arr) * ricci_sq


def second_covariant(md: MilnorData, phi, psi, sigma) -> np.ndarray:
    """Second covariant derivative of ``sigma`` along the pair (phi, psi)."""
    p1 = md.mu * _triple(phi, "phi")
    q = _triple(psi, "psi")
    q1 = md.mu * q
    arr = _triple(sigma, "sigma")
    return (
        _dot(p1, arr)[..., None] * q1
        - _dot(p1, q1)[..., None] * arr
        - _cross(md.mu * _cross(p1, q), arr)
    )


def riemann_action(md: MilnorData, i: int, j: int, sigma) -> np.ndarray:
    """Curvature operator R(e_i, e_j) applied to ``sigma`` (1-based indices),
    K_ij (a_j e_i - a_i e_j); zero when i == j by antisymmetry.  In general
    R(u, w) z = z x (K o (u x w)) with K = ``md.sectional``."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"frame indices must be in 1..3, got ({i}, {j})")
    return _cross(_triple(sigma, "sigma"), md.sectional * _cross(_EYE3[i - 1], _EYE3[j - 1]))


def vertical_cauchy_green(md: MilnorData, sigma) -> np.ndarray:
    """Gram matrix of the covariant derivative over the principal frame,
    [i, j] entry <mu_i e_i x sigma, mu_j e_j x sigma>.

    Its trace is :func:`grad_norm_sq`; for unit ``sigma`` it is the matrix
    of phi -> phi^(2) - <phi, sigma^(1)> sigma^(1) in Milnor-iterate
    notation.
    """
    arr = _triple(sigma, "sigma")[..., None, :]
    deriv = md.mu[..., :, None] * _cross(_EYE3, arr)
    return deriv @ np.swapaxes(deriv, -1, -2)


def vertical_invariants(md: MilnorData, sigma) -> np.ndarray:
    """Invariant vector (1, e1, e2, e3) of the vertical Gram matrix; entry r
    is the degree-r bending density of ``sigma``."""
    return elementary_invariants_newton(vertical_cauchy_green(md, sigma))


def vertical_newton_1(md: MilnorData, sigma) -> np.ndarray:
    """First vertical Newton tensor of a unit invariant field.

    Matrix of phi -> |M|^2 phi - phi^(2) + <phi, s1> s1 - |s1|^2 phi with
    s1 = mu*sigma; equal to (trace of the vertical Gram matrix) * I minus
    that matrix.
    """
    return _newton_matrix(md, _unit_triple(sigma), 1)


def _newton_parts(md: MilnorData, arr: np.ndarray, degree: int) -> list:
    # Vertical Newton tensors of degrees 1..degree (<= 2) of the unit field
    # as (delta, c), i.e. diag(delta) + c * s1 s1^T; degree 2 needs H1.
    mu_sq = md.mu**2
    s1 = md.mu * arr
    s1_sq = _dot(s1, s1)
    e1 = mu_sq.sum(-1) - s1_sq
    parts = [(e1[..., None] - mu_sq, 1.0)]
    if degree == 2:
        wedge = _ricci_terms(md, arr)[1]
        parts.append((mu_sq**2 - e1[..., None] * mu_sq + wedge[..., None], e1 - s1_sq))
    return parts


def _require_h1(md: MilnorData, arr: np.ndarray) -> None:
    if np.count_nonzero(~in_h1(md, arr)):
        raise PreconditionError(
            "sigma is not an eigenvector of the squared Milnor map; "
            "the degree-2 Newton tensor closed form does not apply"
        )


def _newton_matrix(md: MilnorData, arr: np.ndarray, degree: int) -> np.ndarray:
    delta, c = _newton_parts(md, arr, degree)[-1]
    s1 = md.mu * arr
    out = np.zeros(delta.shape + (3,))
    out[..., _DIAG, _DIAG] = delta
    return out + np.asarray(c)[..., None, None] * (s1[..., :, None] * s1[..., None, :])


def _unit_diagonal(diag_values) -> np.ndarray:
    # Each diagonal divided by its largest |entry|, so that squared residuals
    # neither overflow nor underflow; the relative test is unchanged.
    d = np.asarray(diag_values, dtype=float)
    return d / np.maximum(np.abs(d).max(-1, keepdims=True), _TINY)


def is_eigendirection(diag_values, sigma):
    """Whether unit ``sigma`` is an eigenvector of diag(``diag_values``).

    Tests the component of diag(d) sigma orthogonal to sigma for being
    negligible against the largest |d_i|, on d scaled to max |d_i| = 1.
    Broadcasts over leading axes of ``diag_values`` and ``sigma``.
    """
    arr = np.asarray(sigma, dtype=float)
    v = arr * _unit_diagonal(diag_values)
    return _negligible(_norm(v - _dot(v, arr)[..., None] * arr))


# One rule per locus; each broadcasts over leading axes of ``md`` and ``sigma``.


def in_h1(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Milnor map (H1)."""
    return is_eigendirection(md.unit_mu**2, sigma)


def in_h2(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Ricci map (H2):
    rho_i^2 - rho_j^2 = 4 mu_k^2 (mu_j^2 - mu_i^2) for every permutation
    (i, j, k), so H2 is H1 union Z2, without rho^2 of degree 4 in lambda."""
    return in_h1(md, sigma) | in_z2(md, sigma)


def in_z1(md: MilnorData, sigma):
    """Whether ``sigma`` is parallel (Z1): |nabla sigma| is negligible
    against max |mu_i|, on ``unit_mu`` scaled to max 1."""
    arr = np.asarray(sigma, dtype=float)
    return _negligible(np.sqrt(_grad_norm_sq(_unit_diagonal(md.unit_mu) ** 2, arr)))


def in_z2(md: MilnorData, sigma):
    """Whether ``sigma`` lies in the Ricci kernel (Z2): |Ric(sigma)| is
    negligible against max |rho_i|, on ``unit_ricci`` scaled to max 1."""
    return _negligible(_norm(np.asarray(sigma, dtype=float) * _unit_diagonal(md.unit_ricci)))


def in_skyrmion_locus(md: MilnorData, sigma, coupling):
    """Whether ``sigma`` is a twisted 2-skyrmion: an eigenvector of
    diag(d), d_i = mu_i^2 - (coupling/4) rho_i^2, for a positive coupling.

    With rho_i = 2 mu_j mu_k, d_i - d_j = (mu_i^2 - mu_j^2)(1 + coupling mu_k^2)
    for every permutation (i, j, k), so two entries of d coincide exactly
    when the same two entries of mu^2 do: the locus is H1 (:func:`in_h1`).
    Deciding it on d itself would mix degrees 2 and 4 in lambda.
    """
    if not all(0.0 < c < math.inf for c in np.ravel(coupling).tolist()):
        raise ValueError(f"coupling must be positive, got {coupling}")
    return in_h1(md, sigma)


def vertical_newton_2(md: MilnorData, sigma) -> np.ndarray:
    """Second vertical Newton tensor of a unit field that is an eigenvector
    of the squared Milnor map.

    Matrix of phi -> phi^(4) - e1 phi^(2) + e2 phi + (e1 - |s1|^2) <phi, s1> s1,
    where e1, e2 are the degree-1 and degree-2 bending densities.  Off the
    eigenvector locus the closed form is invalid, so the call refuses.
    """
    arr = _unit_triple(sigma)
    _require_h1(md, arr)
    return _newton_matrix(md, arr, 2)


def divergence_invariant_tensor(md: MilnorData, tensor) -> np.ndarray:
    """Divergence of an invariant (1,1)-tensor, sum_i mu_i e_i x (T e_i),
    in components (mu2 T32 - mu3 T23, mu3 T13 - mu1 T31, mu1 T21 - mu2 T12).

    Valid for any invariant tensor because the principal frame fields are
    geodesic; multiples of the identity contribute nothing.
    """
    t = np.asarray(tensor, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"tensor must be 3x3, got shape {t.shape}")
    mu = md.mu
    return mu.take(_NEXT, -1) * t[..., _PREV, _NEXT] - mu.take(_PREV, -1) * t[..., _NEXT, _PREV]


# ---------------------------------------------------------------------------
# Tension fields
# ---------------------------------------------------------------------------


def tension_t1(md: MilnorData, sigma) -> np.ndarray:
    """Degree-1 vertical tension, sigma^(2) - |M|^2 sigma (the rough
    Laplacian of an invariant field, with sign convention trace nabla^2)."""
    return _vertical(md, _triple(sigma, "sigma"), 1)[0]


def tension_t2(md: MilnorData, sigma) -> np.ndarray:
    """Degree-2 vertical tension of a unit field,
    -(|Ric(sigma)|^2 sigma + Ric^2(sigma)) / 4."""
    return _vertical(md, _unit_triple(sigma), 2)[0]


def tension_assembled(md: MilnorData, sigma, r: int) -> np.ndarray:
    """Frame-level assembly of the degree-r vertical tension field,

        sum_i nabla^2_{e_i, nu e_i} sigma + nabla_{div nu} sigma,

    with nu the degree-(r-1) vertical Newton tensor.  Serves as the
    independent oracle for the closed forms :func:`tension_t1` and
    :func:`tension_t2`.
    """
    if r == 1:
        arr = _triple(sigma, "sigma")
        nu = _EYE3
    elif r == 2:
        arr = _unit_triple(sigma)
        nu = vertical_newton_1(md, arr)
    else:
        raise ValueError(f"assembled tension supports r in (1, 2), got {r}")
    out = 0.0
    for i in range(3):
        out = out + second_covariant(md, _EYE3[i], nu[..., :, i], arr)
    return out + covariant_derivative(md, divergence_invariant_tensor(md, nu), arr)


def first_variation_fd(md: MilnorData, sigma, zeta, r: int):
    """First-variation residual of the degree-r bending density.

    Varies sigma along the sphere as (sigma + t*zeta)/|sigma + t*zeta| for a
    tangent direction zeta, takes a central finite difference at t = 0 of
    half the degree-r density, and returns the absolute mismatch with
    -<T_r(sigma), zeta>.
    """
    arr = _unit_triple(sigma)
    z = _triple(zeta, "zeta")
    if not _negligible(np.abs(_dot(z, arr)), 1.0 + _norm(z)).all():
        raise ValueError("zeta must be orthogonal to sigma")
    if r == 1:
        tension = tension_t1(md, arr)
    elif r == 2:
        tension = tension_t2(md, arr)
    else:
        raise ValueError(f"first variation supports r in (1, 2), got {r}")

    def half_density(t: float):
        moved = arr + t * z
        moved = moved / _norm(moved)[..., None]
        return 0.5 * vertical_invariants(md, moved)[..., r]

    fd = (half_density(_FD_STEP) - half_density(-_FD_STEP)) / (2.0 * _FD_STEP)
    return _scalar(np.abs(fd + _dot(tension, z)))


def horizontal_tension(md: MilnorData, sigma, r: int) -> np.ndarray:
    """Horizontal part of the degree-r tension of a unit field viewed as a
    map into the unit tangent bundle:

        div(nu) + sum_i R(sigma, nabla_{nu e_i} sigma) e_i,

    with nu the full degree-(r-1) Newton tensor, i.e. the vertical one
    shifted by identity terms (nu_0 = I, nu_1 = nu_1^v + 2I,
    nu_2 = nu_2^v + nu_1^v + I); the shifts are divergence-free.  For r = 3
    the field must be an eigenvector of the squared Milnor map.  Refuses
    when the result overflows the float range.
    """
    arr = _unit_triple(sigma)
    if r not in (1, 2, 3):
        raise ValueError(f"order r must be 1, 2 or 3, got {r}")
    if r == 3:
        _require_h1(md, arr)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _horizontal_tension(md, arr, r)
    if not np.isfinite(out).all():
        raise ValueError(f"the degree-{r} horizontal tension overflows the float range")
    return out


def _horizontal_tension(md: MilnorData, arr: np.ndarray, r: int) -> np.ndarray:
    # nu = diag(delta) + c s1 s1^T (s1 = mu*sigma, s2 = mu*s1).  With R as in
    # riemann_action, the diagonal part gives (K o sigma) x (delta o s1); the
    # rank-one part gives c (s2 x s1 + R(sigma, s2 x sigma) s1), skipped where
    # c = 0.  mu and K are taken in units of t = 2^e ~ max |mu|, an exact
    # rescaling, so that no intermediate outgrows delta or c and a zero
    # result stays zero.  check_predicates reads it without the refusals.
    e = np.frexp(np.abs(md.mu).max(-1, keepdims=True))[1]
    mu, sectional = np.ldexp(md.mu, -e), np.ldexp(md.sectional, -2 * e)
    s1 = mu * arr
    if r == 1:
        return np.ldexp(_cross(sectional * arr, s1), 3 * e)
    (delta, c), *second = _newton_parts(md, arr, r - 1)
    delta = delta + (2.0 if r == 2 else 1.0)
    for delta2, c2 in second:
        delta, c = delta + delta2, c + c2
    c = np.asarray(c)[..., None]
    out = _cross(sectional * arr, delta * s1)
    s2 = mu * s1
    bend = _cross(s1, sectional * _cross(arr, _cross(s2, arr)))
    bent = out + c * (_cross(s2, s1) + np.ldexp(bend, 2 * e))
    if r == 3:  # c = 1 at r = 2
        bent = np.where(c == 0.0, out, bent)
    return np.ldexp(bent, 3 * e)


# ---------------------------------------------------------------------------
# Predicates and classification of the harmonic loci
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateReport:
    """Harmonicity predicates of one unit field, or of a stack of them, at
    one degree."""

    r: int
    coupling: float
    r_parallel: bool
    r_harmonic_unit: bool
    twisted_2_skyrmion: bool
    r_harmonic_map: bool
    vertical_tension: np.ndarray | None
    horizontal_tension: np.ndarray | None
    vertical_energy: float | None


def _reported(value: np.ndarray, vector: bool):
    # Rows outside the float range: nan in a stack, None for a single field.
    finite = np.isfinite(value).all(-1) if vector else np.isfinite(value)
    if finite.ndim == 0:
        return None if not finite else value if vector else float(value)
    return np.where(finite[..., None] if vector else finite, value, np.nan)


def check_predicates(md: MilnorData, sigma, r: int, coupling: float = 0.5) -> PredicateReport:
    """Evaluate the harmonicity predicates of unit invariant fields.

    ``r_parallel`` tests vanishing of the degree-r bending density (degree 1:
    the covariant derivative itself, i.e. :func:`in_z1`, degree 2:
    Ric(sigma), i.e. :func:`in_z2`, degree 3: trivially true since the
    derivative has rank at most 2).
    ``r_harmonic_unit`` is membership in the harmonic locus H_r of
    :func:`classify_sets`: :func:`in_h1` for r = 1, :func:`in_h2` for r = 2,
    and every unit field qualifies at degree 3.  ``twisted_2_skyrmion`` is
    :func:`in_skyrmion_locus`; ``coupling`` is the ratio c2/c1 of the
    degree-2 to degree-1 energy weights (default 0.5, the binomial weights
    (2, 1)), and the solution set does not depend on it.  ``r_harmonic_map``
    is the classification of maps into the unit tangent bundle: a
    structure-map eigenvector for r = 1, 2 and a squared-Milnor-map
    eigenvector for r = 3.

    Reported alongside: the vertical tension field, the degree-r bending
    density ``vertical_energy`` (e1 = :func:`grad_norm_sq`,
    e2 = :func:`wedge_norm_sq`, e3 = 0) and the horizontal tension of
    :func:`horizontal_tension`, which is None off H1 at r = 3.  Any of the
    three that leaves the float range is reported as None.

    On stacks every verdict is a bool array, and a row that a single field
    would report as None is nan.
    """
    arr = _unit_triple(sigma)
    if r not in (1, 2, 3):
        raise ValueError(f"order r must be 1, 2 or 3, got {r}")
    # The skyrmion locus is H1; this call also validates the coupling.
    h1 = in_skyrmion_locus(md, arr, coupling)

    # Vanishing is always thresholded on quantities linear in the offending
    # coefficients (|nabla sigma|, |Ric(sigma)|), so the decision boundary
    # has the same width as descriptor membership and eigenvector residuals.
    with np.errstate(over="ignore", invalid="ignore"):
        if r < 3:
            vertical, energy = _vertical(md, arr, r)
            parallel = (in_z1 if r == 1 else in_z2)(md, arr)
            harmonic_unit = h1 if r == 1 else h1 | parallel  # H2 = H1 union Z2
            harmonic_map = is_eigendirection(md.lam, arr)
            horizontal = _horizontal_tension(md, arr, r)
        else:
            # Degree-3 bending density vanishes identically: the covariant
            # derivative of a unit field takes values in a 2-plane.  The
            # degree-3 horizontal closed form holds on H1 only; other rows are
            # not evaluated and are reported as None (nan in a stack).
            energy = np.zeros(np.shape(h1))
            vertical = np.zeros(energy.shape + (3,))
            parallel = harmonic_unit = h1 | True  # every field, in the shape of h1
            harmonic_map, horizontal = h1, vertical + np.nan
            if np.count_nonzero(h1):
                on = np.asarray(h1)[..., None]
                horizontal = np.where(on, _horizontal_tension(md, arr * on, 3), horizontal)

    return PredicateReport(
        r=r,
        coupling=coupling,
        r_parallel=_scalar(parallel),
        r_harmonic_unit=_scalar(harmonic_unit),
        twisted_2_skyrmion=_scalar(h1),
        r_harmonic_map=_scalar(harmonic_map),
        vertical_tension=_reported(vertical, True),
        horizontal_tension=_reported(horizontal, True),
        vertical_energy=_reported(energy, False),
    )


_DESCRIPTOR_KINDS = ("Empty", "Sphere", "PolarSet", "PolarPair", "Circle", "Union")


@dataclass(frozen=True)
class SubsetDescriptor:
    """Symbolic subset of the unit sphere in the principal frame.

    Kinds: the empty set, the whole sphere, the polar set {+-e1, +-e2, +-e3},
    a polar pair {+-e_k}, the equatorial circle in the (e_i, e_j)-plane, or a
    union of the above.  Indices are 1-based.  The factories return interned
    constants for every set that :func:`classify_sets` can emit.
    """

    kind: str
    indices: tuple[int, ...] = ()
    members: tuple["SubsetDescriptor", ...] = ()

    def __post_init__(self):
        if self.kind not in _DESCRIPTOR_KINDS:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        if self.kind == "PolarPair":
            if len(self.indices) != 1 or self.indices[0] not in (1, 2, 3):
                raise ValueError(f"PolarPair needs one index in 1..3, got {self.indices}")
        elif self.kind == "Circle":
            ok = (
                len(self.indices) == 2
                and self.indices[0] < self.indices[1]
                and all(i in (1, 2, 3) for i in self.indices)
            )
            if not ok:
                raise ValueError(f"Circle needs indices i < j in 1..3, got {self.indices}")
        elif self.indices:
            raise ValueError(f"{self.kind} takes no indices")
        if self.kind == "Union":
            if len(self.members) < 2 or len(set(self.members)) != len(self.members):
                raise ValueError("Union needs at least two distinct members")
            if any(m.kind == "Union" for m in self.members):
                raise ValueError("Union members must not be nested unions")
        elif self.members:
            raise ValueError(f"{self.kind} takes no members")

    # -- factories ----------------------------------------------------------

    @staticmethod
    def empty() -> "SubsetDescriptor":
        return _INTERNED["Empty", (), ()]

    @staticmethod
    def sphere() -> "SubsetDescriptor":
        return _INTERNED["Sphere", (), ()]

    @staticmethod
    def polar_set() -> "SubsetDescriptor":
        return _INTERNED["PolarSet", (), ()]

    @staticmethod
    def polar_pair(k: int) -> "SubsetDescriptor":
        return _INTERNED.get(("PolarPair", (k,), ())) or SubsetDescriptor("PolarPair", (k,))

    @staticmethod
    def circle(i: int, j: int) -> "SubsetDescriptor":
        return _INTERNED.get(("Circle", (i, j), ())) or SubsetDescriptor("Circle", (i, j))

    @staticmethod
    def union(*members: "SubsetDescriptor") -> "SubsetDescriptor":
        return _INTERNED.get(("Union", (), members)) or SubsetDescriptor("Union", members=members)

    # -- queries -------------------------------------------------------------

    def contains(self, sigma):
        """Membership of unit vector(s): the coefficients required to vanish
        must be negligible against 1.  Broadcasts over leading axes."""
        arr = np.asarray(sigma, dtype=float)
        if self.kind == "PolarPair":
            k = self.indices[0] - 1
            others = [i for i in range(3) if i != k]
            out = _negligible(np.abs(arr[..., others])).all(-1)
        elif self.kind == "Circle":
            k = ({1, 2, 3} - set(self.indices)).pop() - 1
            out = _negligible(np.abs(arr[..., k]))
        else:  # Empty, Sphere, or the union of the members
            out = np.full(arr.shape[:-1], self.kind == "Sphere")
            for member in _PAIRS if self.kind == "PolarSet" else self.members:
                out = out | member.contains(arr)
        return bool(out) if arr.ndim == 1 else out

    def to_json(self) -> dict:
        """JSON form {"kind": ..., "indices": [...], "members": [...]}."""
        doc: dict = {"kind": self.kind}
        if self.indices:
            doc["indices"] = list(self.indices)
        if self.members:
            doc["members"] = [m.to_json() for m in self.members]
        return doc

    def __str__(self) -> str:
        if self.kind == "PolarPair":
            return f"PolarPair({self.indices[0]})"
        if self.kind == "Circle":
            return f"Circle({self.indices[0]},{self.indices[1]})"
        if self.kind == "Union":
            return " U ".join(str(m) for m in self.members)
        return self.kind


_PAIRS = [SubsetDescriptor("PolarPair", (k,)) for k in (1, 2, 3)]
_CIRCLES = [SubsetDescriptor("Circle", ij) for ij in ((2, 3), (1, 3), (1, 2))]
#: Entry k: the circle that misses pole k + 1, with that pole.
_CIRCLES_AND_POLES = [SubsetDescriptor("Union", members=m) for m in zip(_CIRCLES, _PAIRS)]
#: The interned descriptors, keyed by their fields: every set classify_sets emits.
_INTERNED = {
    (d.kind, d.indices, d.members): d
    for d in [SubsetDescriptor(kind) for kind in ("Empty", "Sphere", "PolarSet")]
    + _PAIRS + _CIRCLES + _CIRCLES_AND_POLES
    + [SubsetDescriptor("Union", members=pair) for pair in combinations(_CIRCLES, 2)]
}


def _eigendirection_descriptor(values: np.ndarray) -> SubsetDescriptor:
    # Unit eigenvectors of a diagonal map with non-negative entries `values`:
    # determined by which entries coincide (relative tolerance against the
    # largest).  Near-degenerate triples resolve by transitive closure.
    vals = values.tolist()
    top = max(vals)
    # Entry k compares the two entries other than k.
    equal = [_negligible(abs(vals[i] - vals[j]), top) for i, j in ((1, 2), (0, 2), (0, 1))]
    count = sum(equal)
    if count >= 2:
        return SubsetDescriptor.sphere()
    if count == 1:
        return _CIRCLES_AND_POLES[equal.index(True)]
    return SubsetDescriptor.polar_set()


def classify_sets(sc) -> dict[str, SubsetDescriptor]:
    """Classify the harmonic and minimizing loci of invariant unit fields.

    Returns descriptors keyed "H1", "H2", "H3", "Z1", "Z2", "Z3":

    * H1 -- unit eigenvectors of the squared Milnor map (harmonic unit
      fields), read off the multiplicities of mu_i^2;
    * H2 -- unit eigenvectors of the squared Ricci map, built as H1 union
      Z2 (:func:`in_h2`);
    * H3 = Z3 -- the whole sphere (degree-3 bending vanishes identically);
    * Z1 -- parallel fields: the sphere when all mu vanish, the polar pair
      of the only non-vanishing mu when exactly one survives, else empty;
    * Z2 -- the unit part of the Ricci kernel: the sphere when two mu
      vanish, the circle orthogonal to the only vanishing mu, else empty
      (kernel dimension 3, 2, 0).

    The loci satisfy H_r = H_{r-1} union Z_r for r = 2, 3.  Each is decided
    on the exactly rescaled ``unit_mu``.  Accepts one triple in any form
    :func:`classify_algebra` accepts, including its :class:`MilnorData`.
    """
    md = classify_algebra(sc)
    if md.lam.ndim != 1:
        raise ValueError(f"classify_sets takes one triple, got shape {md.lam.shape}")

    mu_zero = _zero_mask(md.unit_mu.tolist())
    zeros = sum(mu_zero)  # as in ricci_kernel_dim: 2 or 3 give 3, 1 gives 2, 0 gives 0
    h1 = _eigendirection_descriptor(md.unit_mu**2)
    empty, sphere = SubsetDescriptor.empty(), SubsetDescriptor.sphere()
    if zeros >= 2:  # flat: Z1 is the pole of the one surviving mu, or all
        z1, z2, h2 = (_PAIRS[mu_zero.index(False)] if zeros == 2 else sphere), sphere, sphere
    elif zeros == 1:  # Z2 is the circle that misses the pole of the zero mu
        k = mu_zero.index(True)
        z1, z2, h2 = empty, _CIRCLES[k], _CIRCLES_AND_POLES[k]
        if h1 in _CIRCLES_AND_POLES and h1 != h2:  # H1 ties a mu^2 to the zero mu within TOL
            h2 = SubsetDescriptor.union(*sorted((z2, h1.members[0]), key=_CIRCLES.index))
    else:
        z1, z2, h2 = empty, empty, h1

    return {
        "H1": h1,
        "H2": h2,
        "H3": sphere,
        "Z1": z1,
        "Z2": z2,
        "Z3": sphere,
    }
