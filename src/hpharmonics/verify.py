"""Seeded verification battery shared by the command line and the test suite.

Every check draws its own inputs from an independent child of one seed
sequence, computes a worst-case residual over the requested number of
trials, and compares it against a fixed tolerance.  A residual check hands
its residual arrays to ``_within``, the one place the worst case is taken:
the largest entry, floored at 0, with a NaN anywhere counting as the worst,
so a NaN residual fails its check.  The battery is deterministic: the same
seed and trial count produce byte-identical results.

Checks draw one trial at a time, in RNG order, and keep the draws raw
(normal matrices, eigenvalues, unnormalised directions); then every numpy
operation runs once per stack of draws: QR, metric assembly, normalisation.
The invariant identities are read for every order r at once, so each
dimension's invariants and Newton chains are formed once, not once per r.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import invariants, lie3, mapenergy

#: One structure-constant triple per algebra class and degenerate branch.
CLASS_REPRESENTATIVES: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 0.0),  # abelian
    (1.0, 0.0, 0.0),  # nil
    (1.0, 0.0, -1.0),  # e11, l1 = -l3 (degenerate Ricci)
    (2.0, 0.0, -1.0),  # e11 generic
    (1.0, 1.0, 0.0),  # e2, flat
    (2.0, 1.0, 0.0),  # e2 generic
    (1.0, 1.0, -1.0),  # sl2, l1 = l2
    (2.0, 1.0, -1.0),  # sl2, l1 = l2 - l3
    (3.0, 1.0, -1.0),  # sl2 generic
    (1.0, 1.0, 1.0),  # su2 round
    (2.0, 1.0, 1.0),  # su2, l2 = l3 = l1/2
    (3.0, 1.0, 1.0),  # su2, l2 = l3
    (2.0, 2.0, 1.0),  # su2, l1 = l2
    (4.0, 1.0, 1.0),  # su2, l2 = l3, wider gap
)

# Read-only arrays that the draw helpers index.
_REPRESENTATIVES, _EYE3 = np.array(CLASS_REPRESENTATIVES), np.eye(3)
_POLES = np.concatenate([_EYE3, -_EYE3])
_REPRESENTATIVES.flags.writeable = _EYE3.flags.writeable = _POLES.flags.writeable = False

#: Exactly one generic representative per algebra class.
ONE_PER_CLASS: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (2.0, 0.0, -1.0),
    (2.0, 1.0, 0.0),
    (3.0, 1.0, -1.0),
    (1.0, 1.0, 1.0),
)
_ONE_PER_CLASS = np.array(ONE_PER_CLASS)  # read-only rows that check_tension_oracles scales
_ONE_PER_CLASS.flags.writeable = False


def golden_classification() -> dict[tuple[float, float, float], dict]:
    """Expected classification of every representative, keyed by the triple.

    Read from the packaged ``data/classification_golden.json``; each value
    holds ``algebra_class``, ``flat`` and the ``to_json()`` form of the
    descriptors H1..H3 and Z1..Z3.
    """
    path = resources.files(__package__) / "data" / "classification_golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(float(v) for v in key.split(",")): entry for key, entry in golden.items()}


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one verification property."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            text += f" [{self.detail}]"
        return text


def _within(name: str, residuals: list, tolerance: float, detail: str = "", ok: bool = True):
    # A residual property: its worst residual is the largest entry of all the
    # residual arrays, floored at 0, and NaN when any entry is NaN; it passes
    # when ``ok`` and that worst residual is within tolerance.
    tops = [float(np.max(part)) for part in residuals]
    worst = math.nan if any(map(math.isnan, tops)) else max([0.0, *tops])
    return PropertyResult(name, ok and worst <= tolerance, worst, tolerance, detail)


def _none(name: str, bad: int, detail: str = "") -> PropertyResult:
    # A counting property: passes when no case is bad.
    return PropertyResult(name, bad == 0, float(bad), 0.0, detail)


def _rel(a, b):
    # |a - b| relative to max(1, |a|, |b|), elementwise.
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _norms(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    # The norms of the last axis: np.linalg.norm's own sum, bit for bit, without its dispatch.
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    # n unit vectors; the whole block is drawn again while a norm is < 1e-8.
    v = rng.normal(size=(n, 3))
    while np.any((norms := _norms(v, keepdims=True)) < 1e-8):
        v = rng.normal(size=(n, 3))
    return v / norms


def _direction(rng: np.random.Generator) -> np.ndarray:
    # One raw normal triple, drawn again while its norm is < 1e-8.
    v = rng.normal(size=3)
    while _norms(v) < 1e-8:
        v = rng.normal(size=3)
    return v


def _unit(v: np.ndarray) -> np.ndarray:
    # Each direction of a (..., 3) stack divided by its norm.
    return v / _norms(v, keepdims=True)


def _random_spd(rng: np.random.Generator, m: int) -> tuple:
    # Well-scaled metric, drawn raw for _spd: normal matrix, eigenvalues in [0.5, 2].
    return rng.normal(size=(m, m)), rng.uniform(0.5, 2.0, size=m)


def _spd(normal: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    # Q diag(w) Q^T for a stack of _random_spd draws, one QR for all.
    q = np.linalg.qr(normal)[0]
    g = (q * eigenvalues[..., None, :]) @ q.mT
    return 0.5 * (g + g.mT)


def _conformal(normal: np.ndarray, c: np.ndarray) -> np.ndarray:
    # c Q for a stack of _conformal_point draws, one QR for all.
    return c[:, None, None] * np.linalg.qr(normal)[0]


def _random_point(rng: np.random.Generator, m: int, n: int) -> tuple:
    # The 1/sqrt(n) shrink of J and cond(G), cond(H) <= 4 keep alpha O(1) for
    # the Newton-Girard oracle of check_cauchy_green_gram alone, whose power-trace
    # sums lose relative accuracy with its norm; every seed's draws depend on
    # them, so they stay.  G and H are drawn raw, for _stacks.
    return (
        rng.uniform(-1.0, 1.0, size=(n, m)) / math.sqrt(n),
        *_random_spd(rng, m),
        *_random_spd(rng, n),
    )


def _stacks(draws: list[tuple]):
    """Group draws (J, *raw G, *raw H, *extra) by the shape of J, in first-seen
    order, and yield each group as (PointData stack, *extra arrays)."""
    groups: dict[tuple, list[tuple]] = {}
    for draw in draws:
        groups.setdefault(draw[0].shape, []).append(draw)
    for rows in groups.values():
        jac, dom, dom_eig, cod, cod_eig, *extra = (np.array(column) for column in zip(*rows))
        yield (mapenergy.PointData(jac, _spd(dom, dom_eig), _spd(cod, cod_eig)), *extra)


def _random_lambda(rng: np.random.Generator) -> np.ndarray:
    # Mix generic draws with every listed representative (scaled) so the
    # degenerate branches are exercised.
    if rng.random() < 0.5:  # rng.uniform() is 0 + 1 * rng.random(), bit for bit
        return rng.uniform(-1.5, 1.5, size=3)
    return _REPRESENTATIVES[rng.integers(len(_REPRESENTATIVES))] * rng.uniform(0.4, 1.4)


def _row_gap(reference: np.ndarray, value: np.ndarray) -> np.ndarray:
    # max |value - reference| of each row of two stacks, relative to
    # max(1, max |reference|) of its row.
    scale = np.maximum(1.0, np.abs(reference).max(-1))
    return np.abs(value - reference).max(-1) / scale


def _field_samples(rng: np.random.Generator, n: int, structured: int) -> np.ndarray:
    # n unit fields: random ones followed by `structured` descriptor samples.
    return np.concatenate(
        [_random_unit(rng, max(n - structured, 1)), _descriptor_samples(rng, structured)]
    )[:n]


def _descriptor_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    # Structured unit vectors: poles and coordinate-circle points, the
    # boundary cases of every descriptor.
    chunks = [_POLES]
    count = max(n - 6, 0)
    per_circle = count // 3 + 1
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(3, per_circle))  # one circle a row
    for (i, j), t in zip(((0, 1), (0, 2), (1, 2)), angles):
        pts = np.zeros((per_circle, 3))
        pts[:, i] = np.cos(t)
        pts[:, j] = np.sin(t)
        chunks.append(pts)
    return np.concatenate(chunks)[:n]


# ---------------------------------------------------------------------------
# invariants checks
# ---------------------------------------------------------------------------


def check_invariant_oracles(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Principal-minor sums against the Newton-Girard recursion, dims 2..6."""
    parts = []
    for m in range(2, 7):
        a = rng.uniform(-1.0, 1.0, size=(trials, m, m))
        minors = invariants.elementary_invariants_minors(a)
        parts.append(_rel(minors, invariants.elementary_invariants_newton(a)))
    return _within("invariant_oracle_equivalence", parts, 1e-10)


def check_cayley_hamilton(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Vanishing of the top Newton endomorphism, dims 2..6."""
    parts = [
        invariants.cayley_hamilton_residual(rng.uniform(-1.0, 1.0, size=(trials, m, m)))
        for m in range(2, 7)
    ]
    return _within("cayley_hamilton", parts, 1e-9)


def check_newton_trace(rng: np.random.Generator, trials: int) -> PropertyResult:
    """trace(A chi_{r-1}) = r e_r for all r, dims 2..6."""
    parts = []
    for m in range(2, 7):
        a = rng.uniform(-1.0, 1.0, size=(trials, m, m))
        eps = invariants.elementary_invariants_newton(a)
        chis = invariants.newton_endomorphisms(a)
        for r in range(1, m + 1):
            lhs = np.trace(a @ chis[:, r - 1], axis1=-2, axis2=-1)
            parts.append(_rel(lhs, r * eps[:, r]))
    return _within("newton_trace_identity", parts, 1e-10)


def check_shift_scaling(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Shift identities under A -> I + A and homogeneity under A -> cA."""
    parts = []
    for m in range(2, 7):
        # Each trial draws A, then c: one row of m*m + 1 uniforms on [-1, 1).
        # Doubling is exact, so 2 * uniform(-1, 1) is bitwise uniform(-2, 2).
        draws = rng.uniform(-1.0, 1.0, size=(trials, m * m + 1))
        a = draws[:, :-1].reshape(trials, m, m)
        c = 2.0 * draws[:, -1]
        scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))[:, None]
        parts.append(invariants.check_shift_identity(a) / scale)  # every order r at once
        parts.append(invariants.check_scaling_identity(a, c) / scale)
    return _within("shift_scaling_identities", parts, 1e-9)


def check_derivative_fd(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Exact invariant derivative against central differences, h = 1e-5."""
    step = 1e-5
    parts = []
    for m in range(2, 7):
        # Each trial draws A, then the direction B.
        draws = rng.uniform(-1.0, 1.0, size=(trials, 2, m, m))
        a, b = draws[:, 0], draws[:, 1]
        plus = invariants.elementary_invariants_newton(a + step * b)
        minus = invariants.elementary_invariants_newton(a - step * b)
        fd = (plus - minus) / (2.0 * step)
        exact = invariants.invariant_derivative(a, b)  # every order r at once
        parts.append(np.abs(exact - fd))
    return _within("derivative_finite_difference", parts, 1e-6)


# ---------------------------------------------------------------------------
# map-energy checks
# ---------------------------------------------------------------------------


def check_cauchy_green_gram(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Invariants of the distortion operator, by Newton-Girard and by the
    production path of :func:`mapenergy.density_report`, against whitened
    Gram minors, plus positive semi-definiteness of the stretch spectrum."""
    draws = []
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, m + 4))
        draws.append(_random_point(rng, m, n))
    parts = []
    for (point,) in _stacks(draws):
        oracle = mapenergy.gram_invariants(point)
        for eps in (
            invariants.elementary_invariants_newton(mapenergy.cauchy_green(point)),
            mapenergy.density_report(point).eps,
        ):
            parts.append(_rel(eps, oracle))
        parts.append(-1e2 * mapenergy.stretch_eigenvalues(point))  # eigenvalues >= -1e-12
    return _within("cauchy_green_gram_oracle", parts, 1e-10)


def check_metric_homogeneity(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Scaling the codomain metric by c^2 scales degree-r density by c^(2r),
    on the invariants of :func:`mapenergy.density_report`.

    Residuals are measured relative to the largest invariant in play: the
    distortion operator is positive semi-definite, so a single invariant
    (typically the determinant) can be far below the vector's scale on
    near-rank-deficient draws without any loss of accuracy elsewhere.
    """
    draws = []
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        point = _random_point(rng, m, m + 1)
        c = rng.uniform(0.5, 2.0)
        # c**2 in Python float arithmetic (C pow), as one draw alone took
        # it: numpy's array power can differ from it in the last bit.
        draws.append((*point, c, c**2))
    parts = []
    for point, c, c_sq in _stacks(draws):
        codomain = c_sq[:, None, None] * point.codomain_metric
        scaled = mapenergy.PointData(point.jacobian, point.domain_metric, codomain)
        expected = mapenergy.density_report(point).eps * c[:, None] ** (2 * np.arange(point.m + 1))
        parts.append(_row_gap(expected, mapenergy.density_report(scaled).eps))
    return _within("codomain_homogeneity", parts, 1e-12)


def check_conformal_invariance(rng: np.random.Generator, trials: int) -> PropertyResult:
    """For m = 4, r = 2 the combination e_2 * rho^4 is invariant under
    G -> rho^2 G, relative to the density itself."""
    draws = []
    for _ in range(trials):
        draws.append((*_random_point(rng, 4, int(rng.integers(4, 7))), rng.uniform(0.5, 2.0)))
    parts = []
    for point, rho in _stacks(draws):
        base = mapenergy.density_report(point).eps[:, 2]
        residual = mapenergy.conformal_scaling_residual(point, rho, 2)
        parts.append(residual / np.maximum(base, 1e-300))
    return _within("conformal_invariance", parts, 1e-10)


def _conformal_point(rng: np.random.Generator, m: int) -> tuple:
    # J = c * (orthonormal columns), G = H = I, drawn raw as (normal matrix, c).
    return rng.normal(size=(m, m)), rng.uniform(0.5, 1.5)


def _deficient_point(rng: np.random.Generator, m: int, rank: int) -> tuple:
    left = rng.uniform(-1.0, 1.0, size=(m, rank))
    right = rng.uniform(-1.0, 1.0, size=(rank, m))
    return left @ right, *_random_spd(rng, m), *_random_spd(rng, m)


def check_majorisation(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Degree-(m/2) density majorises binom(m, m/2) times the volume density,
    with equality exactly at conformal points."""
    m, r = 4, 2
    conformal = [_conformal_point(rng, m) for _ in range(trials)]
    generic = [_random_point(rng, m, int(rng.integers(4, 7))) for _ in range(trials)]
    parts = []
    mismatches = 0
    normal, c = (np.array(column) for column in zip(*conformal))
    eye = np.broadcast_to(np.eye(m), normal.shape)
    stacks = [(mapenergy.PointData(_conformal(normal, c), eye, eye), True)]
    stacks += [(point, False) for (point,) in _stacks(generic)]
    for point, at_conformal in stacks:
        gap = mapenergy.majorisation_gap(point)
        eps_r = mapenergy.density_report(point).eps[:, r]
        parts.append(-gap / np.maximum(eps_r, 1e-300))
        verdict = mapenergy.r_conformal_check(point, r)
        if at_conformal:
            mismatches += int(np.sum(~((gap <= 1e-9) & verdict)))
        else:
            mismatches += int(np.sum((gap <= 1e-9) != verdict))
    detail = f"{mismatches} verdict mismatches"
    return _within("majorisation", parts, 1e-10, detail, ok=mismatches == 0)


def check_rank_zeroes(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Degree-r density vanishes exactly when the differential rank is < r."""
    draws = []
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        rank = int(rng.integers(1, m))
        draws.append((*_deficient_point(rng, m, rank), rank))
    bad = 0
    for point, rank in _stacks(draws):
        eps = mapenergy.density_report(point).eps
        scale = np.maximum(1.0, np.max(np.abs(eps), axis=-1))
        vanishes = np.abs(eps[:, 1:]) <= 1e-9 * scale[:, None]
        bad += int(np.sum(vanishes != (rank[:, None] < np.arange(1, point.m + 1))))
    return _none("rank_vanishing", bad)


# ---------------------------------------------------------------------------
# Lie group checks
# ---------------------------------------------------------------------------


def check_wedge_gram(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Closed-form squared wedge against e_2 of the engine's Gram matrix (no mu)."""
    draws = [(_random_lambda(rng), rng.uniform(-1.5, 1.5, size=3)) for _ in range(trials)]
    lam, sigma = (np.array(column) for column in zip(*draws))
    md = lie3.MilnorData.normalize(lam)
    oracle = invariants.elementary_invariants_minors(lie3.vertical_cauchy_green(md, sigma))[:, 2]
    return _within("wedge_gram_oracle", [_rel(lie3.wedge_norm_sq(md, sigma), oracle)], 1e-11)


def check_divergence_oracles(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Divergence closed forms of both vertical Newton tensors against the
    connection engine's frame sum sum_a A_a T e_a, which reads no mu."""
    draws = [(_random_lambda(rng), _direction(rng)) for _ in range(trials)]
    lam, sigma = (np.array(column) for column in zip(*draws))
    md, sigma = lie3.MilnorData.normalize(lam), _unit(sigma)
    s1 = md.mu * sigma
    closed1 = np.cross(md.mu * s1, s1)
    div1 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_1(md, sigma))
    parts = [_row_gap(closed1, div1)]
    # The degree-2 closed form holds on H1 only.
    on = lie3.in_h1(md, sigma)
    if on.any():
        md, sigma, s1 = lie3.MilnorData.normalize(lam[on]), sigma[on], s1[on]
        div2 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_2(md, sigma))
        closed2 = (lie3.grad_norm_sq(md, sigma) - np.vecdot(s1, s1))[:, None] * closed1[on]
        parts.append(_row_gap(closed2, div2))
    return _within("divergence_oracles", parts, 1e-12)


def check_tension_oracles(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Closed-form tension fields against the connection-engine oracle, per class."""
    draws = [
        (rep * rng.uniform(0.4, 1.4), _direction(rng))
        for rep in _ONE_PER_CLASS
        for _ in range(trials)
    ]
    lam, sigma = (np.array(column) for column in zip(*draws))
    md, sigma = lie3.MilnorData.normalize(lam), _unit(sigma)
    parts = [
        _row_gap(closed_fn(md, sigma), lie3.tension_assembled(md, sigma, r))
        for r, closed_fn in ((1, lie3.tension_t1), (2, lie3.tension_t2))
    ]
    return _within("tension_oracles", parts, 1e-10)


def check_horizontal_oracle(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Closed-form horizontal tension against the connection engine in a random
    frame Q in SO(3): general fields at r = 1, 2, H1 members at r = 3."""
    draws = []
    for _ in range(trials):
        lam = _random_lambda(rng)
        normal, direction = rng.normal(size=(3, 3)), _direction(rng)
        h1 = lie3.classify_sets(lam)["H1"]
        draws.append((lam, normal, direction, _sample_descriptor_member(rng, h1)))
    lam, normal, sigma, member = (np.array(column) for column in zip(*draws))
    md, sigma = lie3.MilnorData.normalize(lam), _unit(sigma)
    q, upper = np.linalg.qr(normal)
    q = q * np.copysign(1.0, np.diagonal(upper, axis1=-2, axis2=-1))[:, None, :]
    q = q * np.sign(np.linalg.det(q))[:, None, None]  # det 1: the frame keeps its orientation
    structure = q.mT @ (md.lam[:, :, None] * q)  # L = Q^T diag(lam) Q
    parts = []
    for r, field in ((1, sigma), (2, sigma), (3, member)):
        oracle = lie3._frame_horizontal(structure, np.vecdot(q.mT, field[:, None, :]), r)
        closed = lie3.horizontal_tension(md, field, r)
        parts.append(_row_gap(closed, np.vecdot(q, oracle[:, None, :])))
    return _within("horizontal_tension_oracle", parts, 1e-10)


def check_sphere_multiplier(rng: np.random.Generator, trials: int) -> PropertyResult:
    """<T_r(sigma), sigma> = -r * (degree-r bending density) on the harmonic loci."""
    draws: dict[int, list] = {1: [], 2: []}
    for _ in range(trials):
        lam = _random_lambda(rng)
        sets = lie3.classify_sets(lam)
        for r in (1, 2):
            sigma = _sample_descriptor_member(rng, sets[f"H{r}"])
            if sigma is not None:
                draws[r].append((lam, sigma))
    parts = []
    for r, tension_fn in ((1, lie3.tension_t1), (2, lie3.tension_t2)):
        if not draws[r]:
            continue
        lam, sigma = (np.array(column) for column in zip(*draws[r]))
        md = lie3.MilnorData.normalize(lam)
        eps_r = lie3.vertical_invariants(md, sigma)[:, r]
        parts.append(np.abs(np.vecdot(tension_fn(md, sigma), sigma) + r * eps_r))
    return _within("sphere_bundle_multiplier", parts, 1e-10)


def _sample_descriptor_member(
    rng: np.random.Generator, desc: lie3.SubsetDescriptor
) -> np.ndarray | None:
    if desc.kind == "Empty":
        return None
    if desc.kind == "Sphere":  # normalised alone: stacked with poles and circle points
        return _unit(_direction(rng))
    if desc.kind == "PolarPair":
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * _EYE3[desc.indices[0] - 1]
    if desc.kind == "PolarSet":
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * _EYE3[rng.integers(3)]
    if desc.kind == "Circle":
        t = rng.uniform(0.0, 2.0 * np.pi)
        i, j = desc.indices
        out = np.zeros(3)
        out[i - 1] = np.cos(t)
        out[j - 1] = np.sin(t)
        return out
    member = desc.members[rng.integers(len(desc.members))]
    return _sample_descriptor_member(rng, member)


def check_first_variation(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Tension fields against finite differences of the bending densities
    along sphere-constrained variations."""
    draws = [(_random_lambda(rng), _direction(rng), rng.normal(size=3)) for _ in range(trials)]
    lam, sigma, zeta = (np.array(column) for column in zip(*draws))
    sigma = _unit(sigma)
    # Structure constants rescaled so max |mu| <= 1 (unit-scale inputs for
    # finite-difference comparisons).
    md = lie3.MilnorData.normalize(lam)
    md = lie3.MilnorData.normalize(md.lam / np.maximum(np.abs(md.mu).max(-1, keepdims=True), 1.0))
    zeta -= np.vecdot(zeta, sigma)[:, None] * sigma
    parts = [lie3.first_variation_fd(md, sigma, zeta, r) for r in (1, 2)]
    return _within("first_variation_fd", parts, 1e-6)


def check_classification_golden(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Emitted class, flatness and descriptors of every representative
    against :func:`golden_classification`.  Deterministic: ``rng`` and
    ``trials`` are accepted for the common battery signature and ignored."""
    bad = []
    for rep, expected in golden_classification().items():
        md = lie3.classify_algebra(rep)
        emitted = {"algebra_class": md.algebra_class, "flat": md.flat}
        emitted.update((name, desc.to_json()) for name, desc in lie3.classify_sets(md).items())
        if emitted != expected:
            bad.append(rep)
    return _none("classification_golden", len(bad), f"{len(bad)} mismatched representatives")


def check_union_consistency(rng: np.random.Generator, trials: int) -> PropertyResult:
    """H_r = H_{r-1} union Z_r for r = 2, 3 on sampled unit fields, through the
    descriptors, and through the predicates against the eigenvectors of diag(rho^2)."""
    bad = 0
    for rep in CLASS_REPRESENTATIVES:
        md = lie3.classify_algebra(rep)
        sets = lie3.classify_sets(md)
        samples = _field_samples(rng, trials, trials // 5)
        h1_m = sets["H1"].contains(samples)
        h2_m = sets["H2"].contains(samples)
        z2_m = sets["Z2"].contains(samples)
        bad += int(np.sum(h2_m != (h1_m | z2_m)))
        # H3 is everything, so r = 3 reduces to H2 | Z3 == all.
        bad += int(np.sum(~(h2_m | sets["Z3"].contains(samples))))
        # Same law at the predicate level.
        p2 = lie3.is_eigendirection(md.ricci**2, samples)
        bad += int(np.sum(p2 != (lie3.in_h1(md, samples) | lie3.in_z2(md, samples))))
    return _none("harmonic_union_consistency", bad, f"{bad} counterexamples")


def check_predicate_membership(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Residual predicates agree with descriptor membership on sampled fields."""
    bad = 0
    for rep in CLASS_REPRESENTATIVES:
        md = lie3.classify_algebra(rep)
        sets = lie3.classify_sets(md)
        samples = _field_samples(rng, trials, trials // 5)
        bad += int(np.sum(lie3.in_h1(md, samples) != sets["H1"].contains(samples)))
        bad += int(np.sum(lie3.in_h2(md, samples) != sets["H2"].contains(samples)))
    return _none("predicate_membership", bad, f"{bad} disagreements")


def check_skyrmion_coincidence(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Twisted-2-skyrmion locus coincides with the harmonic locus for every
    positive coupling, on 10^3 sampled fields per draw: the locus, decided
    through H1, against the direct eigenvector test of
    diag(mu^2 - (coupling/4) rho^2) on these unit-scale draws."""
    samples_per = 1000
    bad = 0
    # Ten draws per stack: 10^4 fields keep the arrays small (one stack of
    # all draws raised the battery's peak memory by a quarter).
    for start in range(0, trials, 10):
        draws = [
            (
                _random_lambda(rng),
                float(np.exp(rng.uniform(np.log(0.05), np.log(20.0)))),
                _field_samples(rng, samples_per, samples_per // 4),
            )
            for _ in range(min(10, trials - start))
        ]
        lam, coupling, samples = (np.array(column) for column in zip(*draws))
        # One geometry and one coupling per draw, broadcast over its samples.
        md = lie3.MilnorData.normalize(lam[:, None, :])
        coupling = coupling[:, None]
        d = md.mu**2 - 0.25 * coupling[..., None] * md.ricci**2
        direct = lie3.is_eigendirection(d, samples)
        bad += int(np.sum(lie3.in_skyrmion_locus(md, samples, coupling) != direct))
    return _none("skyrmion_h1_coincidence", bad, f"{bad} counterexamples")


def check_harmonic_map_cases(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Horizontal tension behavior: principal directions are harmonic maps
    at every degree; in the subalgebra circle of the e11 geometry with
    l1 = -l3 the degree-1 and degree-2 horizontal tensions are nonzero
    while degree 3 vanishes identically."""
    # Each representative normalized once, (14, 1, 3), broadcast over the six poles.
    md = lie3.MilnorData.normalize(_REPRESENTATIVES[:, None, :])
    parts = [_norms(lie3.horizontal_tension(md, _POLES, r)) for r in (1, 2, 3)]
    md = lie3.classify_algebra((1.0, 0.0, -1.0))
    t = [rng.uniform(0.05, np.pi / 2 - 0.05) for _ in range(trials)]
    sigma = np.array([[np.cos(x), 0.0, np.sin(x)] for x in t])
    h1, h2, h3 = (lie3.horizontal_tension(md, sigma, r) for r in (1, 2, 3))
    expected = (2.0 * sigma[:, 0] * sigma[:, 2])[:, None] * np.array([0.0, 1.0, 0.0])
    parts += [np.abs(h1 - expected), np.abs(h2 - expected), _norms(h3)]
    nonzero_ok = bool(np.all((_norms(h1) > 1e-3) & (_norms(h2) > 1e-3)))
    detail = "nonzero checks ok" if nonzero_ok else "expected nonzero tension vanished"
    return _within("harmonic_map_horizontal", parts, 1e-10, detail, ok=nonzero_ok)


def check_flip_invariance(rng: np.random.Generator, trials: int) -> PropertyResult:
    """Predicates are invariant under sigma -> -sigma and under the
    orientation flip of the structure constants, after normalization."""
    draws = [
        (rng.uniform(-1.5, 1.5, size=3), _direction(rng), int(rng.integers(1, 4)))
        for _ in range(trials)
    ]
    raw, sigma_raw, degree = (np.array(column) for column in zip(*draws))
    sigma_raw = _unit(sigma_raw)
    keys = ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")
    verdicts = []
    md_raw = lie3.MilnorData.normalize(raw)  # once for both signs of sigma
    for md, s_sign in ((md_raw, 1.0), (md_raw, -1.0), (lie3.MilnorData.normalize(-raw), 1.0)):
        sigma = s_sign * md.permute(sigma_raw)
        # Every degree on every field, then each field's own degree.
        reports = [lie3.check_predicates(md, sigma, r) for r in (1, 2, 3)]
        by_degree = np.array([[getattr(rep, key) for key in keys] for rep in reports])
        verdicts.append(by_degree[degree - 1, :, np.arange(trials)])
    bad = sum(int(np.sum(np.any(other != verdicts[0], axis=-1))) for other in verdicts[1:])
    return _none("predicate_flip_invariance", bad, f"{bad} flips disagreed")


#: Battery entries: (callable, default trial count).
BATTERY: tuple[tuple, ...] = (
    (check_invariant_oracles, 200),
    (check_cayley_hamilton, 200),
    (check_newton_trace, 200),
    (check_shift_scaling, 50),
    (check_derivative_fd, 50),
    (check_cauchy_green_gram, 100),
    (check_metric_homogeneity, 100),
    (check_conformal_invariance, 100),
    (check_majorisation, 200),
    (check_rank_zeroes, 100),
    (check_wedge_gram, 500),
    (check_divergence_oracles, 500),
    (check_tension_oracles, 100),
    (check_sphere_multiplier, 200),
    (check_first_variation, 200),
    (check_classification_golden, 0),
    (check_union_consistency, 2000),
    (check_predicate_membership, 2000),
    (check_skyrmion_coincidence, 100),
    (check_harmonic_map_cases, 50),
    (check_flip_invariance, 100),
    (check_horizontal_oracle, 100),
)


def run_battery(seed: int = 42, trials: int | None = None) -> list[PropertyResult]:
    """Run every verification property with independent child generators.

    ``trials`` overrides each check's default count (its meaning is
    per-dimension, per-class, or total depending on the check; see the
    individual docstrings).  Deterministic for a fixed (seed, trials).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    children = np.random.SeedSequence(seed).spawn(len(BATTERY))
    results = []
    for (fn, default), child in zip(BATTERY, children):
        rng = np.random.default_rng(child)
        count = default if trials is None else trials
        results.append(fn(rng, max(count, 1)))
    return results
