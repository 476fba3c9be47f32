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

Everything here is a pure function of these triples.  Every oracle here is
one connection engine on lam that reads no mu (:func:`tension_assembled`,
:func:`vertical_cauchy_green`, :func:`divergence_invariant_tensor`).  Every
function broadcasts over leading axes of (..., 3) inputs, each row computed
exactly as alone, in one body over components whose carrier the input shapes
pick: Python floats for a single triple (a batch of one that returns Python
scalars), numpy columns for a stack.  Input is checked as ``invariants``
states; a closed form leaving the float range refuses (:func:`check_predicates`
reports None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .invariants import TOL, _Columns, _carrier, _finite, _frozen, _newton_chain, _newton_girard
from .invariants import _positive, _real, _refused, _row, _scalars, elementary_invariants_newton

__all__ = [
    "MilnorData", "PreconditionError", "PredicateReport", "StructureConstants", "SubsetDescriptor",
    "check_predicates", "classify_algebra", "classify_sets", "divergence_invariant_tensor",
    "first_variation_fd", "grad_norm_sq", "horizontal_tension", "in_h1", "in_h2",
    "in_skyrmion_locus", "in_z1", "in_z2", "is_eigendirection", "tension_assembled", "tension_t1",
    "tension_t2", "vertical_cauchy_green", "vertical_invariants", "vertical_newton_1",
    "vertical_newton_2", "wedge_norm_sq",
]

_EYE3 = np.eye(3)
_DIAG = np.arange(3)
# Gathers the entries k+1 then k+2 of a triple (indices mod 3).
_NEXT_PREV = np.array([1, 2, 0, 2, 0, 1])
# e_a x e_b = eps_abk e_k: k = _THIRD[a, b] (3 - a - b for a != b), eps_abk = _EPS[a, b].
_THIRD, _EPS = (3 - _DIAG[:, None] - _DIAG) % 3, np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0.0]])

#: Step of the central difference in :func:`first_variation_fd`.
_FD_STEP = 1e-5

#: Ricci kernel dimension by the number of vanishing mu_i: rho_i = 2 mu_j mu_k
#: vanishes for both i != k when mu_k does, and every rho_i when two mu do.
_KERNEL_BY_ZERO_MU = np.array([0, 2, 3, 3])

#: Algebra class labels by (number of positive, number of negative)
#: structure constants after sign normalization, which leaves at most one negative.
_CLASS_BY_SIGNS = np.array([["abelian", ""], ["nil", "e11"], ["e2", "sl2"], ["su2", ""]])


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain of validity."""


def _triple(values, name: str) -> np.ndarray:
    arr = _real(values, name)
    # One triple's floats sum to a finite number only if each is finite; others go the array way.
    if arr.shape == (3,) and math.isfinite(sum(arr.tolist())):
        return arr
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a triple, got shape {arr.shape}")
    return _finite(arr, name, 1)


def _negligible(magnitude, scale=1.0):
    """Whether ``magnitude`` (scalar or array) is zero relative to ``scale``;
    against a zero scale only an exact zero is negligible."""
    return magnitude <= TOL * scale


# Dot products over the last axis: np.vecdot rounds each row as one 3-vector product,
# stacks and single triples alike, in the bits of its BLAS kernel, which may differ by platform.
_dot = np.vecdot


def _norm(v):
    return np.sqrt(_dot(v, v))


def _unit_triple(sigma) -> np.ndarray:
    # |sigma|^2 comes from _dot, whose bits decide the 2 TOL band; an overflow is refused, not
    # warned.  One triple of norm below 1.5 cannot overflow: it skips errstate, compares a float.
    arr = _triple(sigma, "sigma")
    if arr.ndim == 1 and math.hypot(*arr.tolist()) < 1.5 and abs(float(_dot(arr, arr)) - 1.0) <= 2.0 * TOL:
        return arr
    with np.errstate(over="ignore"):
        norm_sq = _dot(arr, arr)
    if _Columns.any(abs(norm_sq - 1.0) > 2.0 * TOL):
        unit = abs(norm_sq - 1.0) <= 2.0 * TOL
        value = np.ravel(norm_sq)[np.argmin(unit)]
        raise ValueError(f"sigma{_row(unit)} must be a unit vector, |sigma|^2 = {value}")
    return arr


def _normalize_row(a, b, c, carrier) -> tuple:
    # One raw triple, flipped and sorted, and every fact of it that depends on
    # lam alone (see MilnorData): lam, mu, rho, K and ``scaled`` as 18 numbers,
    # the sign counts, zero-mu count, order, flip, f, pattern and tie mask of
    # lam, on its carrier (see invariants._carrier).  Half-sums are plain
    # (sum() compensates from 3.12 on); counts start at 1 * flag, as bool +
    # bool is an or on arrays.
    frexp, scale, pick = carrier.frexp, carrier.scale, carrier.pick
    top, e = frexp(carrier.maximum(abs(a), abs(b), abs(c)))  # top = max |lam_i / 2^e|
    ua, ub, uc = scale(a, -e), scale(b, -e), scale(c, -e)
    cut = TOL * top  # entries within it count as zero, differences as ties
    npos = 1 * (ua > cut) + (ub > cut) + (uc > cut)
    nneg = 1 * (ua < -cut) + (ub < -cut) + (uc < -cut)
    flip = nneg > npos
    s = pick(flip, -1.0, 1.0)
    signs = pick(flip, nneg, npos), pick(flip, npos, nneg)
    (l0, l1, l2), (u0, u1, u2), order = carrier.sort3(s * a, s * b, s * c, s * ua, s * ub, s * uc)
    # The tie mask of unit lam, its flags as those of mu^2 below; u0 >= u1 >= u2.
    ties = 4 * (u1 - u2 <= cut) + 2 * (u0 - u2 <= cut) + (u0 - u1 <= cut)
    half = 0.5 * ((l0 + l1) + l2)
    m0, m1, m2 = half - l0, half - l1, half - l2
    r0, r1, r2 = 2.0 * (m1 * m2), 2.0 * (m0 * m2), 2.0 * (m0 * m1)
    k23, k13, k12 = 0.5 * (r1 + r2 - r0), 0.5 * (r0 + r2 - r1), 0.5 * (r0 + r1 - r2)
    half = 0.5 * ((u0 + u1) + u2)
    n0, n1, n2 = half - u0, half - u1, half - u2
    top = pick(-n0 > n2, -n0, n2)  # mu ascends, so max |mu_i| = max(-mu_1, mu_3)
    cut = TOL * top
    z0, z1, z2 = abs(n0) <= cut, abs(n1) <= cut, abs(n2) <= cut
    s0, s1, s2 = n0 * n0, n1 * n1, n2 * n2
    cut = TOL * (top * top)  # max s_i
    # The zero mask of unit mu, then its tie mask (flag k: the two s_i other
    # than s_k coincide), read as one 6-bit number, first flag highest.
    pattern = 32 * z0 + 16 * z1 + 8 * z2 + 4 * (abs(s1 - s2) <= cut)
    pattern += 2 * (abs(s0 - s2) <= cut) + (abs(s0 - s1) <= cut)
    f = frexp(pick(-m0 > m2, -m0, m2))[1]
    numbers = [
        l0, l1, l2, m0, m1, m2, r0, r1, r2, k23, k13, k12,
        scale(m0, -f), scale(m1, -f), scale(m2, -f),
        scale(k23, -2 * f), scale(k13, -2 * f), scale(k12, -2 * f),
    ]
    return numbers, signs, 1 * z0 + z1 + z2, order, flip, f, pattern, ties


def _times(x, y) -> tuple:  # componentwise, on component triples of either carrier
    return x[0] * y[0], x[1] * y[1], x[2] * y[2]


def _cross3(x, y) -> tuple:  # the cross product, on component triples of either carrier
    (x0, x1, x2), (y0, y1, y2) = x, y
    return x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Over the last axis of (..., 3) arrays: np.cross's bits without its axis bookkeeping.
    return _Columns.pack(_cross3(_Columns.split(a), _Columns.split(b)))


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

    Verdicts read m = mu of lam / 2^e, 2^e ~ max |lam_i|, so none depends
    on the scale of ``lam``.  ``mu_pattern`` has the zero mask of m and the
    tie mask of m^2 as bits, the key of :func:`classify_sets`; ``lam_ties``
    has the tie mask of lam / 2^e, which fixes the harmonic-map locus.  The
    rows of ``scaled`` are mu / 2^f and K / 2^2f, 2^f ~ max |mu_i|
    (f: ``mu_exponent``, shaped as ``mu_pattern``).  A stack gives arrays
    for every field; one triple a str, bools, ints and a tuple.
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
    scaled: np.ndarray  # (..., 2, 3)
    mu_exponent: int
    mu_pattern: int
    lam_ties: int

    @classmethod
    def normalize(cls, raw) -> "MilnorData":
        """Validate, flip and sort raw triples (a (..., 3) array) and derive
        their geometry, bit for bit alike on either carrier, on every Python."""
        vals = _triple(raw, "structure constants")
        carrier = _carrier(vals)
        # A row scaled to 1e155 or more overflows to inf/nan silently, on either carrier.
        row = carrier.quiet(_normalize_row)(*carrier.split(vals), carrier)
        numbers, signs, zeros, order, flipped, f, pattern, ties = row
        kernel = carrier.lookup(_KERNEL_BY_ZERO_MU, zeros)
        numbers = carrier.pack(numbers).reshape(vals.shape[:-1] + (6, 3))
        numbers.setflags(write=False)
        rows = carrier.rows(numbers)
        return _frozen(cls, {
            "lam": rows[0],
            "mu": rows[1],
            "ricci": rows[2],
            "sectional": rows[3],
            "algebra_class": carrier.lookup(_CLASS_BY_SIGNS, signs),
            "flat": kernel == 3,
            "ricci_kernel_dim": kernel,
            "permutation": order,
            "sign_flipped": flipped,
            "scaled": numbers[..., 4:, :],
            "mu_exponent": f,
            "mu_pattern": pattern,
            "lam_ties": ties,
        })

    def permute(self, components) -> np.ndarray:
        """Reorder coefficient triples from input order to normalized order."""
        arr = _triple(components, "components")
        return _carrier(arr, self.lam).gather(arr, self.permutation)


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


def grad_norm_sq(md: MilnorData, sigma):
    """Squared full covariant derivative, sum_i mu_i^2 (|sigma|^2 - a_i^2)."""
    arr = _triple(sigma, "sigma")
    return _refused(lambda: _vertical(md, arr, 1)[1], "the degree-1 bending density", 0)


def wedge_norm_sq(md: MilnorData, sigma):
    """Squared wedge of the covariant derivative with itself.

    Closed form |sigma|^2 |Ric(sigma)|^2 / 4; the Gram-determinant sum over
    frame pairs gives the same number (oracle in the test battery).
    """
    arr = _triple(sigma, "sigma")
    return _refused(lambda: _vertical(md, arr, 2)[1], "the degree-2 bending density", 0)


def _vertical(md: MilnorData, arr: np.ndarray, r: int):
    # Degree-r (1 or 2) vertical tension and bending density of validated coefficients:
    # t1 = sigma^(2) - |M|^2 sigma with e1 = sum_i a_i^2 (mu_j^2 + mu_k^2), no term negative,
    # t2 = -(|Ric sigma|^2 sigma + Ric^2 sigma)/4 with e2 = |sigma|^2 |Ric sigma|^2/4.
    # Written once over components, on the carrier of md and arr, as _horizontal_tension is.
    carrier = _carrier(md.lam, arr)
    split, dots = carrier.split, carrier.dots
    a = split(arr)
    if r == 1:
        mu = split(md.mu)
        q0, q1, q2 = q = _times(mu, mu)
        total = (q0 + q1) + q2
        (e1,) = dots([_times(a, a)], [(q1 + q2, q2 + q0, q0 + q1)])
        return carrier.pack([x * y - total * y for x, y in zip(q, a)]), e1
    ric = split(md.ricci)
    norms = [_times(ric, a), a]
    ricci_sq, norm_sq = dots(norms, norms)
    return carrier.pack([-0.25 * (ricci_sq * y + x * x * y) for x, y in zip(ric, a)]), 0.25 * norm_sq * ricci_sq


def vertical_cauchy_green(md: MilnorData, sigma) -> np.ndarray:
    """Gram matrix <nabla_{e_i} sigma, nabla_{e_j} sigma> over the principal
    frame, from the connection engine on L = diag(lam), which reads no mu.

    Its trace is :func:`grad_norm_sq`; for unit ``sigma`` it is the matrix
    of phi -> phi^(2) - <phi, sigma^(1)> sigma^(1) in Milnor-iterate
    notation.
    """
    arr = _triple(sigma, "sigma")
    structure = md.lam[..., None] * _EYE3
    return _refused(lambda: _connection(structure, arr)[2], "the vertical Gram matrix", 2)


def vertical_invariants(md: MilnorData, sigma) -> np.ndarray:
    """Invariant vector (1, e1, e2, e3) of the vertical Gram matrix; entry r
    is the degree-r bending density of ``sigma``."""
    return elementary_invariants_newton(vertical_cauchy_green(md, sigma))


def vertical_newton_1(md: MilnorData, sigma) -> np.ndarray:
    """First vertical Newton tensor of a unit invariant field.

    Matrix of phi -> |M|^2 phi - phi^(2) + <phi, s1> s1 - |s1|^2 phi with
    s1 = mu*sigma; equal to (trace of the vertical Gram matrix) * I minus
    that matrix.  Formed from nonnegative terms, so nothing cancels: entry (k, k)
    is mu_i^2 (a_j^2 + a_k^2) + mu_j^2 (a_i^2 + a_k^2) (i, j != k), (i, j) s1_i s1_j.
    """
    arr = _unit_triple(sigma)
    return _refused(lambda: _newton_matrix(md, arr, 1), "the degree-1 vertical Newton tensor", 2)


def _newton_parts(md: MilnorData, a, degree: int, carrier) -> list:
    # Vertical Newton tensors of degrees 1..degree (<= 2) of the unit field
    # as (delta, c), i.e. diag(delta) + c * s1 s1^T; degree 2 needs H1 and e2
    # (see _vertical).  Over the components a of sigma on its carrier.
    mu = carrier.split(md.mu)
    s1 = _times(mu, a)
    norms = [s1, a, _times(carrier.split(md.ricci), a)] if degree == 2 else [s1]
    s1_sq, *e2 = carrier.dots(norms, norms)
    q0, q1, q2 = mu_sq = _times(mu, mu)
    e1 = (q0 + q1) + q2 - s1_sq
    parts = [((e1 - q0, e1 - q1, e1 - q2), 1.0)]
    if degree == 2:
        parts.append(([q * q - e1 * q + 0.25 * e2[0] * e2[1] for q in mu_sq], e1 - s1_sq))
    return parts


def _require_h1(md: MilnorData, arr: np.ndarray) -> None:
    if not np.all(in_h1(md, arr)):
        raise PreconditionError(
            "sigma is not an eigenvector of the squared Milnor map; "
            "the degree-2 Newton tensor closed form does not apply"
        )


def _newton_matrix(md: MilnorData, arr: np.ndarray, degree: int) -> np.ndarray:
    s1 = md.mu * arr
    rank_one = s1[..., :, None] * s1[..., None, :]
    if degree == 1:  # the Gram diagonal mu_i^2 (a_j^2 + a_k^2) at the other two indices
        near = (arr * arr).take(_NEXT_PREV, -1)
        gram = (md.mu**2 * (near[..., :3] + near[..., 3:])).take(_NEXT_PREV, -1)
        rank_one[..., _DIAG, _DIAG] = gram[..., :3] + gram[..., 3:]
        return rank_one
    carrier = _carrier(md.lam, arr)
    delta, c = _newton_parts(md, carrier.split(arr), degree, carrier)[-1]
    out = np.zeros(rank_one.shape)
    out[..., _DIAG, _DIAG] = carrier.pack(delta)
    return out + np.asarray(c)[..., None, None] * rank_one


def is_eigendirection(diag_values, sigma):
    """Whether unit ``sigma`` is an eigenvector of diag(``diag_values``): the
    component of diag(d) sigma orthogonal to sigma is negligible, on d
    scaled to max |d_i| = 1.  Broadcasts over leading axes of both.  The
    battery's oracle: no verdict of this module reads it."""
    d = _triple(diag_values, "diag_values")
    arr = _triple(sigma, "sigma")
    v = arr * (d / np.maximum(np.abs(d).max(-1, keepdims=True), 1e-300))
    return _scalars(_negligible(_norm(v - _dot(v, arr)[..., None] * arr)))


def _member(admits: np.ndarray, key: tuple, sigma):
    # The one membership test of every verdict and descriptor: the mask of the
    # coefficients of sigma not negligible against 1, first highest, picks the
    # entry of the admission rows admits[key] (SubsetDescriptor._admits); sigma
    # is finite.  Exact integer arithmetic over its components, on sigma's carrier.
    a0, a1, a2 = _carrier(sigma).split(sigma)
    return admits[key + (4 * (abs(a0) > TOL) + 2 * (abs(a1) > TOL) + (abs(a2) > TOL),)]


# One rule per locus, read from _VERDICTS, broadcast over md and sigma: a bool for one field.


def in_h1(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Milnor map (H1):
    membership in the H1 descriptor, fixed by the ties of mu^2."""
    return _scalars(_member(_VERDICTS, (md.mu_pattern, 0, 0, _H1), _triple(sigma, "sigma")))


def in_h2(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Ricci map (H2):
    rho_i^2 - rho_j^2 = 4 mu_k^2 (mu_j^2 - mu_i^2) for every permutation
    (i, j, k), so the H2 descriptor is H1 union Z2, without rho^2 of degree 4."""
    return _scalars(_member(_VERDICTS, (md.mu_pattern, 0, 1, _HR), _triple(sigma, "sigma")))


def in_z1(md: MilnorData, sigma):
    """Whether ``sigma`` is parallel (Z1): membership in the Z1 descriptor."""
    return _scalars(_member(_VERDICTS, (md.mu_pattern, 0, 0, _Z), _triple(sigma, "sigma")))


def in_z2(md: MilnorData, sigma):
    """Whether ``sigma`` lies in the Ricci kernel (Z2): membership in the Z2 descriptor."""
    return _scalars(_member(_VERDICTS, (md.mu_pattern, 0, 1, _Z), _triple(sigma, "sigma")))


def in_skyrmion_locus(md: MilnorData, sigma, coupling):
    """Whether ``sigma`` is a twisted 2-skyrmion: an eigenvector of
    diag(d), d_i = mu_i^2 - (coupling/4) rho_i^2, for a positive coupling
    (one, or one per field: its shape must broadcast to the verdict's).

    With rho_i = 2 mu_j mu_k, d_i - d_j = (mu_i^2 - mu_j^2)(1 + coupling mu_k^2)
    for every permutation (i, j, k), so two entries of d coincide exactly
    when the same two entries of mu^2 do: the locus is H1 (:func:`in_h1`).
    Deciding it on d itself would mix degrees 2 and 4 in lambda.
    """
    fit = _positive(coupling, "coupling").shape
    verdict = in_h1(md, sigma)
    _fits(fit, np.shape(verdict))
    return verdict


def _fits(fit: tuple, shape: tuple) -> None:  # a coupling of shape ``fit`` must broadcast to ``shape``
    if fit and (len(fit) > len(shape) or any(n not in (1, m) for n, m in zip(fit[::-1], shape[::-1]))):
        raise ValueError(f"coupling of shape {fit} does not broadcast to the fields' shape {shape}")


def vertical_newton_2(md: MilnorData, sigma) -> np.ndarray:
    """Second vertical Newton tensor of a unit field that is an eigenvector
    of the squared Milnor map.

    Matrix of phi -> phi^(4) - e1 phi^(2) + e2 phi + (e1 - |s1|^2) <phi, s1> s1,
    where e1, e2 are the degree-1 and degree-2 bending densities.  Off the
    eigenvector locus the closed form is invalid, so the call refuses.
    """
    arr = _unit_triple(sigma)
    _require_h1(md, arr)
    return _refused(lambda: _newton_matrix(md, arr, 2), "the degree-2 vertical Newton tensor", 2)


def divergence_invariant_tensor(md: MilnorData, tensor) -> np.ndarray:
    """Divergence of an invariant (1,1)-tensor T, sum_a A_a T e_a, from the
    connection engine on L = diag(lam): it reads no mu, so it is an oracle
    of the closed-form divergences of the Newton tensors.

    Valid for any invariant tensor because sum_a nabla_{e_a} e_a = 0 on a
    unimodular group; multiples of the identity contribute nothing.
    """
    t = _real(tensor, "tensor")
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"tensor must be 3x3, got shape {t.shape}")
    _finite(t, "tensor", 2)
    structure = md.lam[..., None] * _EYE3
    return _refused(lambda: _frame_sum(_koszul(structure), t.mT), "the divergence", 1)


# ---------------------------------------------------------------------------
# Tension fields
# ---------------------------------------------------------------------------


def tension_t1(md: MilnorData, sigma) -> np.ndarray:
    """Degree-1 vertical tension, sigma^(2) - |M|^2 sigma (the rough
    Laplacian of an invariant field, with sign convention trace nabla^2)."""
    arr = _triple(sigma, "sigma")
    return _refused(lambda: _vertical(md, arr, 1)[0], "the degree-1 vertical tension", 1)


def tension_t2(md: MilnorData, sigma) -> np.ndarray:
    """Degree-2 vertical tension of a unit field,
    -(|Ric(sigma)|^2 sigma + Ric^2(sigma)) / 4."""
    arr = _unit_triple(sigma)
    return _refused(lambda: _vertical(md, arr, 2)[0], "the degree-2 vertical tension", 1)


def tension_assembled(md: MilnorData, sigma, r: int) -> np.ndarray:
    """Degree-r vertical tension field (r = 1, 2) from the connection engine
    on L = diag(lam): it reads no mu and no closed form, so it is the
    independent oracle of :func:`tension_t1` and :func:`tension_t2`.
    Refused when a value leaves the float range."""
    if r not in (1, 2):
        raise ValueError(f"assembled tension supports r in (1, 2), got {r}")
    arr = _unit_triple(sigma) if r == 2 else _triple(sigma, "sigma")
    name = f"the assembled degree-{r} tension"
    return _refused(lambda: _frame_vertical(md.lam[..., None] * _EYE3, arr, r), name, 1)


# The connection engine (Milnor 1976; Cheeger & Ebin 1975, section 1).  A
# symmetric structure map L (..., 3, 3) gives the bracket [x, y] = L(x x y) of
# a unimodular group in any oriented orthonormal frame f: c_abc = <[f_a, f_b],
# f_c> = sum_k eps_abk L_ck, and the Koszul formula gives A_a[c, b] =
# <nabla_{f_a} f_b, f_c> = (c_abc - c_bca + c_cab) / 2.  sum_a nabla_{f_a} f_a
# = 0, so each tension is a frame sum; T_r is read off the Newton chain.


def _koszul(structure: np.ndarray) -> np.ndarray:
    # A as [..., c, a, b] = A_a[c, b].
    c = structure[..., :, _THIRD] * _EPS  # [..., c, a, b] = c_abc
    return 0.5 * (c - np.moveaxis(c, -1, -3) + np.moveaxis(c, -3, -1))


def _connection(structure: np.ndarray, arr: np.ndarray):
    # A (see _koszul), the rows A_a sigma = nabla_{f_a} sigma and their Gram matrix C.
    conn = _koszul(structure)
    rows = _dot(conn, arr[..., None, None, :]).swapaxes(-1, -2)
    return conn, rows, _dot(rows[..., :, None, :], rows[..., None, :, :])


def _frame_sum(conn: np.ndarray, w: np.ndarray) -> np.ndarray:
    # sum_a A_a w_a for invariant fields w_a, the rows of w.
    return _dot(conn.reshape(conn.shape[:-2] + (9,)), w.reshape(w.shape[:-2] + (1, 9)))


def _frame_vertical(structure: np.ndarray, arr: np.ndarray, r: int) -> np.ndarray:
    # tau_r = sum_ab nu_ab A_a A_b sigma, nu = T_{r-1}(C) (T_0 = I).
    conn, rows, gram = _connection(structure, arr)
    if r > 1:
        rows = _newton_chain(gram, _newton_girard(gram))[..., r - 1, :, :] @ rows
    return _frame_sum(conn, rows)


def _frame_horizontal(structure: np.ndarray, arr: np.ndarray, r: int) -> np.ndarray:
    # div nu + sum_i R(sigma, eta_i) e_i with nu = T_{r-1}(I + C), eta_i = nabla_{nu e_i}
    # sigma, div nu = sum_a A_a nu e_a and R(x, y) = [A_x, A_y] - A_{L(x x y)},
    # A_x = sum_a x_a A_a.  Summed over i, A_sigma A_{eta_i} e_i (bend) and
    # A_{eta_i} A_sigma e_i + A_{L(sigma x eta_i)} e_i (back) are frame sums too.
    conn, rows, gram = _connection(structure, arr)
    shifted = _EYE3 + gram
    nu = _newton_chain(shifted, _newton_girard(shifted))[..., r - 1, :, :].swapaxes(-1, -2)
    eta = nu @ rows  # nu is now its transpose, with rows nu e_i
    a_sigma = _dot(conn.swapaxes(-1, -2), arr[..., None, None, :])
    bend = arr[..., :, None] * _frame_sum(conn, eta.swapaxes(-1, -2))[..., None, :]
    back = a_sigma @ eta + _cross(arr[..., None, :], eta) @ structure.mT
    return _frame_sum(conn, nu + bend - back.swapaxes(-1, -2))


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

    name = f"the degree-{r} bending density"

    def half_density(t: float):
        moved = arr + t * z
        moved = moved / _norm(moved)[..., None]
        gram = vertical_cauchy_green(md, moved)  # e_r alone: a higher e_k may overflow
        return 0.5 * _refused(lambda: _newton_girard(gram)[..., r], name, 0)

    fd = (half_density(_FD_STEP) - half_density(-_FD_STEP)) / (2.0 * _FD_STEP)
    return _scalars(np.abs(fd + _dot(tension, z)))


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
    name = f"the degree-{r} horizontal tension"
    return _refused(lambda: _horizontal_tension(md, arr, r), name, 1)


def _horizontal_tension(md: MilnorData, arr: np.ndarray, r: int) -> np.ndarray:
    # nu = diag(delta) + c s1 s1^T (s1 = mu*sigma, s2 = mu*s1).  With the
    # curvature R(u, w) z = z x (K o (u x w)), the diagonal part gives
    # (K o sigma) x (delta o s1); the rank-one part gives c (s2 x s1 +
    # R(sigma, s2 x sigma) s1), skipped where c = 0 (c = 1 at r = 2, where
    # c * x is x bit for bit).  mu and K are taken in units of t = 2^e ~ max
    # |mu|, an exact rescaling, so that no intermediate outgrows delta or c and
    # a zero result stays zero.  Written once over the components of each
    # vector on the carrier of md and arr, each addition in one order on both.
    # check_predicates reads it without the refusals.
    carrier = _carrier(md.lam, arr)
    split, ldexp, e, scaled = carrier.split, carrier.ldexp, md.mu_exponent, carrier.rows(md.scaled)
    a, mu, sectional = split(arr), split(scaled[0]), split(scaled[1])
    s1, ka = _times(mu, a), _times(sectional, a)
    if r == 1:
        return carrier.pack([ldexp(x, 3 * e) for x in _cross3(ka, s1)])
    (delta, c), *second = _newton_parts(md, a, r - 1, carrier)
    delta = [d + (2.0 if r == 2 else 1.0) for d in delta]  # the shift, then delta_2
    for delta2, c2 in second:
        delta, c = [d + d2 for d, d2 in zip(delta, delta2)], c + c2
    out = _cross3(ka, _times(delta, s1))
    s2 = _times(mu, s1)
    bend = _cross3(s1, _times(sectional, _cross3(a, _cross3(s2, a))))
    return carrier.pack([ldexp(carrier.pick(c == 0.0, o, o + c * (x + ldexp(b, 2 * e))), 3 * e)
                         for o, x, b in zip(out, _cross3(s2, s1), bend)])


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


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as None, or nan
def check_predicates(md: MilnorData, sigma, r: int, coupling: float = 0.5) -> PredicateReport:
    """Evaluate the harmonicity predicates of unit invariant fields.

    Every verdict is membership in a descriptor of :func:`classify_sets`:
    Z_r for ``r_parallel`` (the degree-r bending density vanishes) and H_r
    for ``r_harmonic_unit``, both the sphere at degree 3 (the derivative has
    rank at most 2); H1 for ``twisted_2_skyrmion`` (:func:`in_skyrmion_locus`),
    whatever ``coupling``, the ratio c2/c1 of the degree-2 to degree-1
    energy weights (default 0.5, the binomial weights (2, 1)), positive and
    of a shape that broadcasts to the verdicts'.
    ``r_harmonic_map`` classifies maps into the unit tangent bundle: the
    eigenvectors of diag(lam), read off the ties of lam
    (mu_i - mu_j = lam_j - lam_i), for r = 1, 2, and H1 for r = 3.

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
    fit = _positive(coupling, "coupling").shape
    carrier = _carrier(md.lam, arr)
    # One gather, one membership test: Z_r, H_r, H1 (the skyrmion locus), map.
    verdicts = _member(_VERDICTS, (md.mu_pattern, md.lam_ties, r - 1, slice(None)), arr)
    _fits(fit, shape := verdicts.shape[:-1])
    parallel, harmonic_unit, h1, harmonic_map = carrier.split(verdicts)
    if r < 3:
        vertical, energy = _vertical(md, arr, r)
        vertical, energy, keep = carrier.reported(vertical), carrier.finite(energy), True
    else:
        # The degree-3 bending density vanishes identically (the derivative of a
        # unit field takes values in a 2-plane).  The horizontal closed form holds
        # on H1 only: a field off it reports None (nan in a stack), and with no
        # field on H1 the zero vertical tension stands in for the unformed one.
        energy = carrier.full(shape, 0.0)
        vertical, keep = carrier.pack((energy, energy, energy)), h1
    horizontal = _horizontal_tension(md, arr, r) if r < 3 or carrier.any(h1) else vertical
    return _frozen(PredicateReport, {
        "r": r,
        "coupling": coupling,
        "r_parallel": parallel,
        "r_harmonic_unit": harmonic_unit,
        "twisted_2_skyrmion": h1,
        "r_harmonic_map": harmonic_map,
        "vertical_tension": vertical,
        "horizontal_tension": carrier.reported(horizontal, keep),
        "vertical_energy": energy,
    })


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
        """Membership of finite unit vector(s): for some member, every coefficient
        it requires to vanish is negligible against 1.  Broadcasts over leading axes."""
        return _scalars(_member(self._admits, (), _triple(sigma, "sigma")))

    @cached_property
    def _admits(self) -> np.ndarray:
        # Entry L: whether unit vectors whose non-negligible coefficients are
        # the bits of L (first highest) are members: whether some member
        # requires none of them to vanish.  PolarSet is its three pairs.
        members = self.members or (self,)
        members = [p for m in members for p in (_PAIRS if m.kind == "PolarSet" else (m,))]
        vanish = [sum(4 >> k for k in range(3) if m.kind != "Sphere" and k + 1 not in m.indices)
                  for m in members if m.kind != "Empty"]
        return np.array([any(not loose & v for v in vanish) for loose in range(8)])

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


def _eigendirections(tie: tuple) -> SubsetDescriptor:
    # The unit eigenvectors of a diagonal with tie mask ``tie``: the poles, a
    # tied circle with the pole it misses, or, by transitive closure, all.
    if sum(tie) == 1:
        return _CIRCLES_AND_POLES[tie.index(True)]
    return SubsetDescriptor.sphere() if any(tie) else SubsetDescriptor.polar_set()


def _loci(zero: tuple, tie: tuple) -> dict[str, SubsetDescriptor]:
    # The loci from the zero mask of unit mu and the tie mask of its squares.
    empty, sphere = SubsetDescriptor.empty(), SubsetDescriptor.sphere()
    h1, zeros = _eigendirections(tie), sum(zero)  # zeros as in ricci_kernel_dim
    if zeros >= 2:  # flat: Z1 is the pole of the one surviving mu, or all
        z1, z2, h2 = (_PAIRS[zero.index(False)] if zeros == 2 else sphere), sphere, sphere
    elif zeros == 1:  # Z2 is the circle that misses the pole of the zero mu
        k = zero.index(True)
        z1, z2, h2 = empty, _CIRCLES[k], _CIRCLES_AND_POLES[k]
        if h1 in _CIRCLES_AND_POLES and h1 != h2:  # H1 ties a mu^2 to the zero mu within TOL
            h2 = SubsetDescriptor.union(*sorted((z2, h1.members[0]), key=_CIRCLES.index))
    else:
        z1, z2, h2 = empty, empty, h1
    return {"H1": h1, "H2": h2, "H3": sphere, "Z1": z1, "Z2": z2, "Z3": sphere}


_MASKS = tuple(product((False, True), repeat=3))  # by their bits, first flag highest
#: The loci of classify_sets by MilnorData.mu_pattern, whose bits are the flags.
_LOCI_BY_PATTERN = tuple(_loci(zero, tie) for zero in _MASKS for tie in _MASKS)
#: The table of every verdict, keyed by (mu_pattern, lam_ties, r - 1): the
#: admission rows of Z_r, H_r, H1 and the harmonic-map locus (eigenvectors
#: of diag(lam) at r = 1, 2; H1 at r = 3), shape (64, 8, 3, 4, 8).
_Z, _HR, _H1, _MAP = range(4)
_KEYS = [key for r in "123" for key in ("Z" + r, "H" + r, "H1", "H1")]  # the map: H1 at r = 3
_VERDICTS = np.array([[loci[key]._admits for key in _KEYS] for loci in _LOCI_BY_PATTERN])
_VERDICTS = _VERDICTS.reshape(64, 1, 3, 4, 8).repeat(8, axis=1)
_VERDICTS[:, :, :2, _MAP] = np.array([_eigendirections(tie)._admits for tie in _MASKS])[:, None]
_VERDICTS.setflags(write=False)


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
    on mu of the exactly rescaled lam / 2^e.  Accepts one triple in any form
    :func:`classify_algebra` accepts, including its :class:`MilnorData`.
    """
    md = classify_algebra(sc)
    if md.lam.ndim != 1:
        raise ValueError(f"classify_sets takes one triple, got shape {md.lam.shape}")
    return dict(_LOCI_BY_PATTERN[md.mu_pattern])
