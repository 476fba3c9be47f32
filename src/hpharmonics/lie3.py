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
the basis serve as brute-force oracles for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import elementary_invariants_newton

_TINY = 1e-300
_EYE3 = np.eye(3)

#: Tolerance policy of every verdict: a quantity counts as zero when it is
#: at most ``TOL`` times its scale (see :func:`_negligible`).
TOL = 1e-9
#: Step of the central difference in :func:`first_variation_fd`.
_FD_STEP = 1e-5

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
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a triple, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _negligible(magnitude, scale: float):
    """Whether ``magnitude`` (scalar or array) is zero relative to ``scale``."""
    return magnitude <= TOL * max(scale, _TINY)


def _unit_triple(sigma) -> np.ndarray:
    arr = _triple(sigma, "sigma")
    if abs(float(arr @ arr) - 1.0) > 2.0 * TOL:
        raise ValueError(f"sigma must be a unit vector, |sigma|^2 = {arr @ arr}")
    return arr


def _zero_mask(values: np.ndarray) -> np.ndarray:
    return _negligible(np.abs(values), float(np.max(np.abs(values))))


def _sign_counts(values: np.ndarray) -> tuple[int, int]:
    # Numbers of positive and negative entries that are not negligible.
    kept = values[~_zero_mask(values)]
    return int(np.sum(kept > 0)), int(np.sum(kept < 0))


@dataclass(frozen=True)
class StructureConstants:
    """Normalized principal structure constants of a unimodular metric Lie algebra.

    Stored descending with no fewer positive than negative entries; the sign
    flip is an orientation reversal and leaves every predicate unchanged.
    ``permutation`` records how input slots map to normalized slots, so that
    frame coefficients given in the caller's order can follow along.
    """

    values: tuple[float, float, float]
    permutation: tuple[int, int, int] = (0, 1, 2)
    sign_flipped: bool = False

    @classmethod
    def normalize(cls, raw) -> "StructureConstants":
        vals = _triple(raw, "structure constants")
        npos, nneg = _sign_counts(vals)
        flipped = nneg > npos
        if flipped:
            vals = -vals
        order = np.argsort(-vals, kind="stable")
        return cls(
            values=tuple(float(v) for v in vals[order]),
            permutation=tuple(int(i) for i in order),
            sign_flipped=flipped,
        )

    def permute(self, components) -> np.ndarray:
        """Reorder a coefficient triple from input order to normalized order."""
        arr = _triple(components, "components")
        return arr[list(self.permutation)]


@dataclass(frozen=True)
class MilnorData:
    """Derived frame quantities of a normalized structure-constant triple."""

    lam: np.ndarray
    mu: np.ndarray
    ricci: np.ndarray
    sectional: np.ndarray  # (K23, K13, K12)
    algebra_class: str
    flat: bool
    ricci_kernel_dim: int


def classify_algebra(sc) -> MilnorData:
    """Classify a structure-constant triple and derive its curvature data.

    Accepts a :class:`StructureConstants` or a raw triple (normalized on the
    fly); a :class:`MilnorData` is returned unchanged, so callers derive each
    geometry once.  The sign pattern of the normalized constants selects one
    of the six unimodular classes; the connection coefficients, principal
    Ricci and sectional curvatures follow from the formulas in the module
    docstring.  The Ricci kernel dimension is always 0, 2 or 3.
    """
    if isinstance(sc, MilnorData):
        return sc
    if not isinstance(sc, StructureConstants):
        sc = StructureConstants.normalize(sc)
    lam = np.asarray(sc.values)
    npos, nneg = _sign_counts(lam)
    try:
        algebra_class = _CLASS_BY_SIGNS[(npos, nneg)]
    except KeyError:  # pragma: no cover - excluded by the sign convention
        raise ValueError(f"sign pattern ({npos}, {nneg}) violates normalization")

    mu = 0.5 * float(lam.sum()) - lam
    ricci = 2.0 * np.array([mu[1] * mu[2], mu[0] * mu[2], mu[0] * mu[1]])
    sectional = np.array(
        [
            0.5 * (ricci[1] + ricci[2] - ricci[0]),
            0.5 * (ricci[0] + ricci[2] - ricci[1]),
            0.5 * (ricci[0] + ricci[1] - ricci[2]),
        ]
    )
    zeros = int(np.sum(_zero_mask(ricci)))
    assert zeros != 1, "a single vanishing principal Ricci curvature is impossible"
    for arr in (lam, mu, ricci, sectional):
        arr.setflags(write=False)
    return MilnorData(
        lam=lam,
        mu=mu,
        ricci=ricci,
        sectional=sectional,
        algebra_class=algebra_class,
        flat=zeros == 3,
        ricci_kernel_dim=zeros,
    )


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
    return np.cross(md.mu * _triple(phi, "phi"), _triple(sigma, "sigma"))


def grad_norm_sq(md: MilnorData, sigma) -> float:
    """Squared full covariant derivative, sum_i mu_i^2 (|sigma|^2 - a_i^2)."""
    arr = _triple(sigma, "sigma")
    return float(np.sum(md.mu**2 * (float(arr @ arr) - arr**2)))


def wedge_norm_sq(md: MilnorData, sigma) -> float:
    """Squared wedge of the covariant derivative with itself.

    Closed form |sigma|^2 |Ric(sigma)|^2 / 4; the Gram-determinant sum over
    frame pairs gives the same number (oracle in the test battery).
    """
    arr = _triple(sigma, "sigma")
    ric = md.ricci * arr
    return 0.25 * float(arr @ arr) * float(ric @ ric)


def second_covariant(md: MilnorData, phi, psi, sigma) -> np.ndarray:
    """Second covariant derivative of ``sigma`` along the pair (phi, psi)."""
    p1 = md.mu * _triple(phi, "phi")
    q1 = md.mu * _triple(psi, "psi")
    arr = _triple(sigma, "sigma")
    return (
        float(p1 @ arr) * q1
        - float(p1 @ q1) * arr
        - np.cross(md.mu * np.cross(p1, _triple(psi, "psi")), arr)
    )


def riemann_action(md: MilnorData, i: int, j: int, sigma) -> np.ndarray:
    """Curvature operator R(e_i, e_j) applied to ``sigma`` (1-based indices),
    K_ij (a_j e_i - a_i e_j); zero when i == j by antisymmetry."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"frame indices must be in 1..3, got ({i}, {j})")
    arr = _triple(sigma, "sigma")
    if i == j:
        return np.zeros(3)
    return _riemann(md, _EYE3[i - 1], _EYE3[j - 1], arr)


def _riemann(md: MilnorData, u: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Trilinear curvature operator R(u, w) z in the principal frame; the
    # pair (i, j) has sectional curvature md.sectional[3 - i - j].
    out = np.zeros(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coeff = (u[i] * w[j] - u[j] * w[i]) * md.sectional[3 - i - j]
        out[i] += coeff * z[j]
        out[j] -= coeff * z[i]
    return out


def vertical_cauchy_green(md: MilnorData, sigma) -> np.ndarray:
    """Gram matrix of the covariant derivative over the principal frame,
    [i, j] entry <mu_i e_i x sigma, mu_j e_j x sigma>.

    Its trace is :func:`grad_norm_sq`; for unit ``sigma`` it is the matrix
    of phi -> phi^(2) - <phi, sigma^(1)> sigma^(1) in Milnor-iterate
    notation.
    """
    arr = _triple(sigma, "sigma")
    deriv = md.mu[:, None] * np.cross(_EYE3, arr)
    return deriv @ deriv.T


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
    arr = _unit_triple(sigma)
    s1 = md.mu * arr
    norm_m_sq = float(np.sum(md.mu**2))
    return (
        (norm_m_sq - float(s1 @ s1)) * _EYE3
        - np.diag(md.mu**2)
        + np.outer(s1, s1)
    )


def _unit_diagonal(diag_values) -> np.ndarray:
    # The diagonal divided by its largest |entry|, so that squared residuals
    # neither overflow nor underflow; the relative test is unchanged.
    d = np.asarray(diag_values, dtype=float)
    return d / max(float(np.max(np.abs(d))), _TINY)


def _norm(v):
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def is_eigendirection(diag_values, sigma):
    """Whether unit ``sigma`` is an eigenvector of diag(``diag_values``).

    Tests the component of diag(d) sigma orthogonal to sigma for being
    negligible against the largest |d_i|, on d scaled to max |d_i| = 1.
    Broadcasts over leading axes of ``sigma`` for batch use.
    """
    arr = np.asarray(sigma, dtype=float)
    v = arr * _unit_diagonal(diag_values)
    dots = np.einsum("...i,...i->...", v, arr)
    return _negligible(_norm(v - dots[..., None] * arr), 1.0)


# One rule per locus; each broadcasts over leading axes of ``sigma``.


def in_h1(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Milnor map (H1)."""
    return is_eigendirection(md.mu**2, sigma)


def in_h2(md: MilnorData, sigma):
    """Whether ``sigma`` is an eigenvector of the squared Ricci map (H2)."""
    return is_eigendirection(md.ricci**2, sigma)


def in_z2(md: MilnorData, sigma):
    """Whether ``sigma`` lies in the Ricci kernel (Z2): |Ric(sigma)| is
    negligible against max |rho_i|, on rho scaled to max |rho_i| = 1."""
    return _negligible(_norm(np.asarray(sigma, dtype=float) * _unit_diagonal(md.ricci)), 1.0)


def in_skyrmion_locus(md: MilnorData, sigma, coupling: float):
    """Whether ``sigma`` is a twisted 2-skyrmion: an eigenvector of
    diag(mu^2 - (coupling/4) rho^2)."""
    return is_eigendirection(md.mu**2 - 0.25 * coupling * md.ricci**2, sigma)


def vertical_newton_2(md: MilnorData, sigma) -> np.ndarray:
    """Second vertical Newton tensor of a unit field that is an eigenvector
    of the squared Milnor map.

    Matrix of phi -> phi^(4) - e1 phi^(2) + e2 phi + (e1 - |s1|^2) <phi, s1> s1,
    where e1, e2 are the degree-1 and degree-2 bending densities.  Off the
    eigenvector locus the closed form is invalid, so the call refuses.
    """
    arr = _unit_triple(sigma)
    if not in_h1(md, arr):
        raise PreconditionError(
            "sigma is not an eigenvector of the squared Milnor map; "
            "the degree-2 Newton tensor closed form does not apply"
        )
    mu_sq = md.mu**2
    s1 = md.mu * arr
    e1 = float(np.sum(mu_sq)) - float(s1 @ s1)
    e2 = wedge_norm_sq(md, arr)
    return (
        np.diag(mu_sq**2)
        - e1 * np.diag(mu_sq)
        + e2 * _EYE3
        + (e1 - float(s1 @ s1)) * np.outer(s1, s1)
    )


def divergence_invariant_tensor(md: MilnorData, tensor) -> np.ndarray:
    """Divergence of an invariant (1,1)-tensor, sum_i mu_i e_i x (T e_i).

    Valid for any invariant tensor because the principal frame fields are
    geodesic; multiples of the identity contribute nothing.
    """
    t = np.asarray(tensor, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"tensor must be 3x3, got shape {t.shape}")
    out = np.zeros(3)
    for i in range(3):
        out += md.mu[i] * np.cross(_EYE3[i], t[:, i])
    return out


# ---------------------------------------------------------------------------
# Tension fields
# ---------------------------------------------------------------------------


def tension_t1(md: MilnorData, sigma) -> np.ndarray:
    """Degree-1 vertical tension, sigma^(2) - |M|^2 sigma (the rough
    Laplacian of an invariant field, with sign convention trace nabla^2)."""
    arr = _triple(sigma, "sigma")
    return md.mu**2 * arr - float(np.sum(md.mu**2)) * arr


def tension_t2(md: MilnorData, sigma) -> np.ndarray:
    """Degree-2 vertical tension of a unit field,
    -(|Ric(sigma)|^2 sigma + Ric^2(sigma)) / 4."""
    arr = _unit_triple(sigma)
    ric = md.ricci * arr
    return -0.25 * (float(ric @ ric) * arr + md.ricci**2 * arr)


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
    out = np.zeros(3)
    for i in range(3):
        out += second_covariant(md, _EYE3[i], nu[:, i], arr)
    out += covariant_derivative(md, divergence_invariant_tensor(md, nu), arr)
    return out


def first_variation_fd(md: MilnorData, sigma, zeta, r: int) -> float:
    """First-variation residual of the degree-r bending density.

    Varies sigma along the sphere as (sigma + t*zeta)/|sigma + t*zeta| for a
    tangent direction zeta, takes a central finite difference at t = 0 of
    half the degree-r density, and returns the absolute mismatch with
    -<T_r(sigma), zeta>.
    """
    arr = _unit_triple(sigma)
    z = _triple(zeta, "zeta")
    if not _negligible(abs(float(z @ arr)), 1.0 + float(np.linalg.norm(z))):
        raise ValueError("zeta must be orthogonal to sigma")
    if r == 1:
        tension = tension_t1(md, arr)
    elif r == 2:
        tension = tension_t2(md, arr)
    else:
        raise ValueError(f"first variation supports r in (1, 2), got {r}")

    def half_density(t: float) -> float:
        moved = arr + t * z
        moved = moved / np.linalg.norm(moved)
        return 0.5 * float(vertical_invariants(md, moved)[r])

    fd = (half_density(_FD_STEP) - half_density(-_FD_STEP)) / (2.0 * _FD_STEP)
    return abs(fd + float(tension @ z))


def horizontal_tension(md: MilnorData, sigma, r: int) -> np.ndarray:
    """Horizontal part of the degree-r tension of a unit field viewed as a
    map into the unit tangent bundle:

        div(nu) + sum_i R(sigma, nabla_{nu e_i} sigma) e_i,

    with nu the full degree-(r-1) Newton tensor, i.e. the vertical one
    shifted by identity terms (nu_0 = I, nu_1 = nu_1^v + 2I,
    nu_2 = nu_2^v + nu_1^v + I); the shifts are divergence-free.  For r = 3
    the field must be an eigenvector of the squared Milnor map.
    """
    arr = _unit_triple(sigma)
    if r == 1:
        nu = _EYE3
    elif r == 2:
        nu = vertical_newton_1(md, arr) + 2.0 * _EYE3
    elif r == 3:
        nu = vertical_newton_2(md, arr) + vertical_newton_1(md, arr) + _EYE3
    else:
        raise ValueError(f"order r must be 1, 2 or 3, got {r}")
    out = divergence_invariant_tensor(md, nu)
    for i in range(3):
        eta_i = covariant_derivative(md, nu[:, i], arr)
        out += _riemann(md, arr, eta_i, _EYE3[i])
    return out


# ---------------------------------------------------------------------------
# Predicates and classification of the harmonic loci
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateReport:
    """Harmonicity predicates of one unit field at one degree."""

    r: int
    coupling: float
    r_parallel: bool
    r_harmonic_unit: bool
    twisted_2_skyrmion: bool
    r_harmonic_map: bool
    vertical_tension: np.ndarray
    horizontal_tension: np.ndarray | None
    vertical_energy: float


def check_predicates(md: MilnorData, sigma, r: int, coupling: float = 0.5) -> PredicateReport:
    """Evaluate the harmonicity predicates of a unit invariant field.

    ``r_parallel`` tests vanishing of the degree-r bending density (degree 1:
    the covariant derivative itself, degree 2: Ric(sigma), i.e. :func:`in_z2`,
    degree 3: trivially true since the derivative has rank at most 2).
    ``r_harmonic_unit`` is membership in the harmonic locus H_r of
    :func:`classify_sets`: :func:`in_h1` for r = 1, :func:`in_h2` for r = 2,
    and every unit field qualifies at degree 3.  The vertical tension field is
    reported alongside.  ``twisted_2_skyrmion`` is :func:`in_skyrmion_locus`;
    ``coupling`` is the ratio c2/c1 of the degree-2 to degree-1 energy
    weights (default 0.5, the binomial weights (2, 1)), and the solution set
    does not depend on it.  ``r_harmonic_map`` is the classification of maps
    into the unit tangent bundle: a structure-map eigenvector for r = 1, 2 and
    a squared-Milnor-map eigenvector for r = 3.
    """
    arr = _unit_triple(sigma)
    if r not in (1, 2, 3):
        raise ValueError(f"order r must be 1, 2 or 3, got {r}")
    if not np.isfinite(coupling) or coupling <= 0.0:
        raise ValueError(f"coupling must be positive, got {coupling}")

    h1 = bool(in_h1(md, arr))

    # Vanishing is always thresholded on quantities linear in the offending
    # coefficients (|nabla sigma|, |Ric(sigma)|), so the decision boundary
    # has the same width as descriptor membership and eigenvector residuals.
    if r == 1:
        vertical = tension_t1(md, arr)
        parallel = _negligible(np.sqrt(grad_norm_sq(md, arr)), float(np.max(np.abs(md.mu))))
        harmonic_unit = h1
    elif r == 2:
        vertical = tension_t2(md, arr)
        parallel = in_z2(md, arr)
        harmonic_unit = in_h2(md, arr)
    else:
        # Degree-3 bending density vanishes identically: the covariant
        # derivative of a unit field takes values in a 2-plane.
        vertical = np.zeros(3)
        parallel = True
        harmonic_unit = True

    skyrmion = bool(in_skyrmion_locus(md, arr, coupling))
    if r == 3:
        harmonic_map = h1
        horizontal = horizontal_tension(md, arr, 3) if h1 else None
    else:
        harmonic_map = bool(is_eigendirection(md.lam, arr))
        horizontal = horizontal_tension(md, arr, r)

    return PredicateReport(
        r=r,
        coupling=coupling,
        r_parallel=bool(parallel),
        r_harmonic_unit=bool(harmonic_unit),
        twisted_2_skyrmion=skyrmion,
        r_harmonic_map=harmonic_map,
        vertical_tension=vertical,
        horizontal_tension=horizontal,
        vertical_energy=float(vertical_invariants(md, arr)[r]),
    )


_DESCRIPTOR_KINDS = ("Empty", "Sphere", "PolarSet", "PolarPair", "Circle", "Union")


@dataclass(frozen=True)
class SubsetDescriptor:
    """Symbolic subset of the unit sphere in the principal frame.

    Kinds: the empty set, the whole sphere, the polar set {+-e1, +-e2, +-e3},
    a polar pair {+-e_k}, the equatorial circle in the (e_i, e_j)-plane, or a
    union of the above.  Indices are 1-based.
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
        return SubsetDescriptor("Empty")

    @staticmethod
    def sphere() -> "SubsetDescriptor":
        return SubsetDescriptor("Sphere")

    @staticmethod
    def polar_set() -> "SubsetDescriptor":
        return SubsetDescriptor("PolarSet")

    @staticmethod
    def polar_pair(k: int) -> "SubsetDescriptor":
        return SubsetDescriptor("PolarPair", indices=(k,))

    @staticmethod
    def circle(i: int, j: int) -> "SubsetDescriptor":
        return SubsetDescriptor("Circle", indices=(i, j))

    @staticmethod
    def union(*members: "SubsetDescriptor") -> "SubsetDescriptor":
        return SubsetDescriptor("Union", members=tuple(members))

    # -- queries -------------------------------------------------------------

    def contains(self, sigma):
        """Membership of unit vector(s): the coefficients required to vanish
        must be negligible against 1.  Broadcasts over leading axes."""
        arr = np.asarray(sigma, dtype=float)
        if self.kind == "PolarPair":
            k = self.indices[0] - 1
            others = [i for i in range(3) if i != k]
            out = np.all(_negligible(np.abs(arr[..., others]), 1.0), axis=-1)
        elif self.kind == "Circle":
            k = ({1, 2, 3} - set(self.indices)).pop() - 1
            out = _negligible(np.abs(arr[..., k]), 1.0)
        else:  # Empty, Sphere, or the union of the members
            out = np.full(arr.shape[:-1], self.kind == "Sphere")
            members = self.members
            if self.kind == "PolarSet":
                members = tuple(SubsetDescriptor.polar_pair(k) for k in (1, 2, 3))
            for member in members:
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


def _eigendirection_descriptor(values: np.ndarray) -> SubsetDescriptor:
    # Unit eigenvectors of a diagonal map with non-negative entries `values`:
    # determined by which entries coincide (relative tolerance against the
    # largest).  Near-degenerate triples resolve by transitive closure.
    top = float(np.max(values))
    if top <= _TINY:
        return SubsetDescriptor.sphere()
    pairs = [(1, 2), (1, 3), (2, 3)]
    equal = [_negligible(abs(values[i - 1] - values[j - 1]), top) for i, j in pairs]
    count = sum(equal)
    if count >= 2:
        return SubsetDescriptor.sphere()
    if count == 1:
        i, j = pairs[equal.index(True)]
        k = ({1, 2, 3} - {i, j}).pop()
        return SubsetDescriptor.union(
            SubsetDescriptor.circle(i, j), SubsetDescriptor.polar_pair(k)
        )
    return SubsetDescriptor.polar_set()


def classify_sets(sc) -> dict[str, SubsetDescriptor]:
    """Classify the harmonic and minimizing loci of invariant unit fields.

    Returns descriptors keyed "H1", "H2", "H3", "Z1", "Z2", "Z3":

    * H1 -- unit eigenvectors of the squared Milnor map (harmonic unit
      fields), read off the multiplicities of mu_i^2;
    * H2 -- unit eigenvectors of the squared Ricci map, read off rho_i^2;
    * H3 = Z3 -- the whole sphere (degree-3 bending vanishes identically);
    * Z1 -- parallel fields: the sphere when all mu vanish, the polar pair
      of the only non-vanishing mu when exactly one survives, else empty;
    * Z2 -- the unit part of the Ricci kernel: sphere, a coordinate circle,
      or empty (kernel dimension 3, 2, 0).

    The loci satisfy H_r = H_{r-1} union Z_r for r = 2, 3.  Accepts what
    :func:`classify_algebra` accepts, including its :class:`MilnorData`.
    """
    md = classify_algebra(sc)

    mu_zero = _zero_mask(md.mu)
    if int(mu_zero.sum()) == 3:
        z1 = SubsetDescriptor.sphere()
    elif int(mu_zero.sum()) == 2:
        z1 = SubsetDescriptor.polar_pair(int(np.flatnonzero(~mu_zero)[0]) + 1)
    else:
        z1 = SubsetDescriptor.empty()

    if md.ricci_kernel_dim == 3:
        z2 = SubsetDescriptor.sphere()
    elif md.ricci_kernel_dim == 2:
        i, j = (int(k) + 1 for k in np.flatnonzero(_zero_mask(md.ricci)))
        z2 = SubsetDescriptor.circle(i, j)
    else:
        z2 = SubsetDescriptor.empty()

    return {
        "H1": _eigendirection_descriptor(md.mu**2),
        "H2": _eigendirection_descriptor(md.ricci**2),
        "H3": SubsetDescriptor.sphere(),
        "Z1": z1,
        "Z2": z2,
        "Z3": SubsetDescriptor.sphere(),
    }
