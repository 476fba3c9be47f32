import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hpharmonics import lie3
from hpharmonics.invariants import elementary_invariants_newton
from hpharmonics.lie3 import (
    MilnorData,
    PreconditionError,
    StructureConstants,
    check_predicates,
    classify_algebra,
    classify_sets,
    divergence_invariant_tensor,
    first_variation_fd,
    grad_norm_sq,
    horizontal_tension,
    in_h1,
    in_z1,
    is_eigendirection,
    tension_assembled,
    tension_t1,
    tension_t2,
    vertical_cauchy_green,
    vertical_invariants,
    vertical_newton_1,
    vertical_newton_2,
    wedge_norm_sq,
)
from hpharmonics.verify import CLASS_REPRESENTATIVES as REPRESENTATIVES

E = np.eye(3)


def milnor_iterate(md, v, r: int) -> np.ndarray:
    """r-th iterate of the diagonal map a_i -> mu_i * a_i applied to ``v``."""
    if r < 0:
        raise ValueError(f"iterate order must be >= 0, got {r}")
    return md.mu**r * np.asarray(v, dtype=float)


def riemann_action(md, i: int, j: int, sigma) -> np.ndarray:
    """Curvature operator R(e_i, e_j) applied to ``sigma`` (1-based indices),
    K_ij (a_j e_i - a_i e_j); in general R(u, w) z = z x (K o (u x w))."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"frame indices must be in 1..3, got ({i}, {j})")
    return np.cross(np.asarray(sigma, dtype=float), md.sectional * np.cross(E[i - 1], E[j - 1]))


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# normalization and classification
# ---------------------------------------------------------------------------


def test_normalize_sorts_descending():
    sc = StructureConstants.normalize((0.0, 1.0, -1.0))
    assert tuple(sc.lam) == (1.0, 0.0, -1.0)
    np.testing.assert_allclose(sc.permute((10.0, 20.0, 30.0)), [20.0, 10.0, 30.0])


def test_normalize_flips_sign_when_negatives_dominate():
    sc = StructureConstants.normalize((1.0, -1.0, -1.0))
    assert tuple(sc.lam) == (1.0, 1.0, -1.0)
    assert sc.sign_flipped
    sc = StructureConstants.normalize((0.0, 0.0, -1.0))
    assert tuple(sc.lam) == (1.0, 0.0, 0.0)
    assert classify_algebra(sc).algebra_class == "nil"


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        StructureConstants.normalize((1.0, np.nan, 0.0))
    with pytest.raises(ValueError):
        StructureConstants.normalize((1.0, 2.0))


def test_check_op_derives_geometry_once(monkeypatch):
    # The library work of one `check`: normalize, classify, loci, permute,
    # predicates; the normalized structure is derived once and passed on.
    assert StructureConstants is lie3.MilnorData
    calls = []
    true_normalize = lie3.MilnorData.normalize.__func__

    def counting(cls, raw):
        calls.append(raw)
        return true_normalize(cls, raw)

    monkeypatch.setattr(lie3.MilnorData, "normalize", classmethod(counting))
    for lam, sigma, r in (
        ((0.0, -1.0, -1.0), (0.0, 1.0, 0.0), 1),
        ((2.0, 1.0, -1.0), (0.6, 0.0, 0.8), 2),
        ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0), 3),
    ):
        calls.clear()
        sc = StructureConstants.normalize(lam)
        md = classify_algebra(sc)
        classify_sets(sc)
        unit = sc.permute(sigma) / float(np.linalg.norm(sigma))
        check_predicates(md, unit, r)
        assert md is sc
        assert len(calls) == 1, lam


def test_classify_flat_e2():
    md = classify_algebra((1.0, 1.0, 0.0))
    assert md.algebra_class == "e2"
    np.testing.assert_allclose(md.mu, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(md.ricci, [0.0, 0.0, 0.0])
    assert md.flat
    assert md.ricci_kernel_dim == 3


def test_classify_nil():
    md = classify_algebra((1.0, 0.0, 0.0))
    assert md.algebra_class == "nil"
    np.testing.assert_allclose(md.mu, [-0.5, 0.5, 0.5])
    np.testing.assert_allclose(md.ricci, [0.5, -0.5, -0.5])
    assert not md.flat
    assert md.ricci_kernel_dim == 0


def test_classify_sl2_degenerate_ricci():
    md = classify_algebra((2.0, 1.0, -1.0))
    assert md.algebra_class == "sl2"
    np.testing.assert_allclose(md.mu, [-1.0, 0.0, 2.0])
    np.testing.assert_allclose(md.ricci, [0.0, -4.0, 0.0])
    assert md.ricci_kernel_dim == 2


@pytest.mark.parametrize(
    "lam,label",
    [
        ((0.0, 0.0, 0.0), "abelian"),
        ((1.0, 0.0, 0.0), "nil"),
        ((1.0, 0.0, -1.0), "e11"),
        ((2.0, 1.0, 0.0), "e2"),
        ((3.0, 1.0, -1.0), "sl2"),
        ((1.0, 1.0, 1.0), "su2"),
    ],
)
def test_classify_all_classes(lam, label):
    assert classify_algebra(lam).algebra_class == label


def test_milnor_identities_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        lam, mu, rho = md.lam, md.mu, md.ricci
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = rho[i] ** 2 - rho[j] ** 2
            rhs = 4.0 * (mu[j] ** 2 - mu[i] ** 2) * mu[k] ** 2
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            lhs = mu[i] ** 2 - mu[j] ** 2
            rhs = (lam[j] - lam[i]) * lam[k]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # sectional curvature two ways
        for idx, (i, j, k) in enumerate(((1, 2, 0), (0, 2, 1), (0, 1, 2))):
            alt = (mu[i] + mu[j]) * mu[k] - mu[i] * mu[j]
            assert md.sectional[idx] == pytest.approx(alt, abs=1e-12)


def test_ricci_kernel_never_one_dimensional():
    rng = np.random.default_rng(43)
    for _ in range(500):
        md = classify_algebra(rng.uniform(-2.0, 2.0, size=3))
        assert md.ricci_kernel_dim in (0, 2, 3)


def test_near_flat_triple_has_a_kernel_dimension():
    # mu = (-1.7e-13, 1.7e-13, 1): two mu are negligible, so the metric is
    # flat within the tolerance.  Thresholding rho against its own largest
    # entry left exactly one negligible entry and tripped an assertion.
    md = classify_algebra((0.0, 1.0, 1.000000000000341))
    assert md.flat and md.ricci_kernel_dim == 3
    assert classify_sets(md)["Z2"].kind == "Sphere"


def test_flat_iff_two_vanishing_mu():
    rng = np.random.default_rng(47)
    for _ in range(200):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        two_mu_zero = int(np.sum(np.abs(md.mu) <= 1e-9 * max(np.max(np.abs(md.mu)), 1e-300))) >= 2
        assert md.flat == two_mu_zero
    assert classify_algebra((0.0, 0.0, 0.0)).flat
    assert classify_algebra((2.0, 2.0, 0.0)).flat
    assert not classify_algebra((2.0, 1.0, 0.0)).flat


# ---------------------------------------------------------------------------
# connection-level operations
# ---------------------------------------------------------------------------


def test_milnor_iterate():
    md = classify_algebra((2.0, 1.0, -1.0))  # mu = (-1, 0, 2)
    v = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(milnor_iterate(md, v, 0), v)
    np.testing.assert_allclose(milnor_iterate(md, v, 2), [1.0, 0.0, 4.0])
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(milnor_iterate(round_su2, E[0], 2), [0.25, 0.0, 0.0])
    with pytest.raises(ValueError):
        milnor_iterate(md, v, -1)


def _connection_rows(md, sigma):
    # The engine's rows nabla_{e_a} sigma = A_a sigma in the principal frame, L = diag(lam).
    return lie3._connection(np.diag(md.lam), np.asarray(sigma, dtype=float))[1]


def _connection_matrices(structure, sigma):
    # The engine's connection matrices A_a, indexed [a, c, b] = <nabla_{f_a} f_b, f_c>.
    return np.moveaxis(lie3._connection(structure, np.asarray(sigma, dtype=float))[0], 1, 0)


def _rotation(rng):
    # A random rotation: the frame it gives keeps its orientation.
    q, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.copysign(1.0, np.diag(upper))
    return q * np.sign(np.linalg.det(q))


def test_connection_principal_frame():
    # In the principal frame the engine's A_a sigma is (mu_a e_a) x sigma.
    md = classify_algebra((2.0, 1.0, -1.0))  # mu = (-1, 0, 2)
    np.testing.assert_allclose(_connection_rows(md, E[1])[0], [0.0, 0.0, -1.0])
    rng = np.random.default_rng(51)
    for _ in range(20):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        conn = _connection_matrices(np.diag(md.lam), E[0])
        for i in range(3):
            # frame fields are geodesic
            np.testing.assert_allclose(conn[i] @ E[i], np.zeros(3), atol=1e-15)
            for j in range(3):
                np.testing.assert_allclose(conn[i] @ E[j], np.cross(md.mu[i] * E[i], E[j]))
        sigma = rng.uniform(-2.0, 2.0, size=3)
        expected = [np.cross(md.mu[a] * E[a], sigma) for a in range(3)]
        np.testing.assert_allclose(_connection_rows(md, sigma), expected, atol=1e-15)


def test_connection_frame_sums():
    abelian = classify_algebra((0.0, 0.0, 0.0))
    rng = np.random.default_rng(61)
    np.testing.assert_allclose(_connection_matrices(np.diag(abelian.lam), _unit(rng)), 0.0)
    for _ in range(50):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = rng.uniform(-1.5, 1.5, size=3)
        # Unimodular: sum_a A_a f_a = sum_a nabla_{f_a} f_a = 0 in any oriented frame.
        q = _rotation(rng)
        conn = _connection_matrices(q.T @ np.diag(md.lam) @ q, sigma)
        np.testing.assert_allclose(sum(conn[a][:, a] for a in range(3)), np.zeros(3), atol=1e-14)
        # A_i^2 sigma in the principal frame, and its frame sum the rough Laplacian tau_1.
        conn, rows = _connection_matrices(np.diag(md.lam), sigma), _connection_rows(md, sigma)
        for i in range(3):
            expected = md.mu[i] ** 2 * sigma[i] * E[i] - md.mu[i] ** 2 * sigma
            np.testing.assert_allclose(conn[i] @ rows[i], expected, atol=1e-13)
        trace = sum(conn[a] @ rows[a] for a in range(3))
        np.testing.assert_allclose(trace, tension_t1(md, sigma), atol=1e-12)
        expected = milnor_iterate(md, sigma, 2) - float(np.sum(md.mu**2)) * sigma
        np.testing.assert_allclose(trace, expected, atol=1e-12)


def test_cross_is_bitwise_numpy_cross():
    rng = np.random.default_rng(50)
    a = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-150, 151, size=(200, 3))
    b = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-150, 151, size=(200, 3))
    zeros = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0], [1e150, -0.0, 1e-150]])
    a = np.concatenate([a, zeros, -zeros])
    b = np.concatenate([b, zeros[::-1], zeros])
    for x, y in ((a, b), (a[0], b[0]), (E, b[1]), (a[2], E), (zeros, -zeros)):
        got, want = lie3._cross(x, y), np.cross(x, y)
        assert got.shape == want.shape
        # Bitwise, signed zeros included.
        assert got.tobytes() == want.tobytes()


def test_grad_norm_sq():
    md = classify_algebra((2.0, 1.0, -1.0))
    assert grad_norm_sq(md, E[2]) == pytest.approx(1.0)
    flat = classify_algebra((1.0, 1.0, 0.0))
    assert grad_norm_sq(flat, E[2]) == pytest.approx(0.0)
    rng = np.random.default_rng(53)
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = rng.uniform(-2.0, 2.0, size=3)
        oracle = sum(float(np.dot(d, d)) for d in _connection_rows(md, sigma))
        assert grad_norm_sq(md, sigma) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_wedge_norm_sq():
    # Ricci-flat field: vanishes
    md = classify_algebra((1.0, 0.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert wedge_norm_sq(md, sigma) == pytest.approx(0.0)
    # round sphere: 1/16 at a pole
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    assert wedge_norm_sq(round_su2, E[0]) == pytest.approx(1.0 / 16.0)
    rng = np.random.default_rng(59)
    for _ in range(200):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = rng.uniform(-1.5, 1.5, size=3)
        rows = _connection_rows(md, sigma)
        oracle = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                oracle += np.dot(rows[i], rows[i]) * np.dot(rows[j], rows[j]) - np.dot(
                    rows[i], rows[j]
                ) ** 2
        closed = wedge_norm_sq(md, sigma)
        assert closed == pytest.approx(oracle, rel=1e-11, abs=1e-13)


def test_riemann_action():
    flat = classify_algebra((1.0, 1.0, 0.0))
    rng = np.random.default_rng(67)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            np.testing.assert_allclose(
                riemann_action(flat, i, j, _unit(rng)), np.zeros(3), atol=1e-14
            )
    md = classify_algebra((2.0, 1.0, -1.0))
    np.testing.assert_allclose(riemann_action(md, 1, 2, E[2]), np.zeros(3))
    np.testing.assert_allclose(riemann_action(md, 2, 2, _unit(rng)), np.zeros(3))
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(riemann_action(round_su2, 1, 2, E[1]), 0.25 * E[0])
    with pytest.raises(ValueError):
        riemann_action(md, 0, 1, E[0])


def test_vertical_cauchy_green():
    flat = classify_algebra((1.0, 1.0, 0.0))
    np.testing.assert_allclose(vertical_cauchy_green(flat, E[2]), np.zeros((3, 3)))
    rng = np.random.default_rng(71)
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        alpha = vertical_cauchy_green(md, sigma)
        # closed form for unit fields
        s1 = md.mu * sigma
        closed = np.diag(md.mu**2) - np.outer(s1, s1)
        np.testing.assert_allclose(alpha, closed, atol=1e-12)
        assert np.trace(alpha) == pytest.approx(grad_norm_sq(md, sigma), rel=1e-12, abs=1e-14)


def test_vertical_newton_1():
    abelian = classify_algebra((0.0, 0.0, 0.0))
    rng = np.random.default_rng(73)
    np.testing.assert_allclose(vertical_newton_1(abelian, _unit(rng)), np.zeros((3, 3)))
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(vertical_newton_1(round_su2, E[0]) @ E[0], 0.5 * E[0])
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        alpha = vertical_cauchy_green(md, sigma)
        recursion = float(np.trace(alpha)) * E - alpha
        np.testing.assert_allclose(vertical_newton_1(md, sigma), recursion, atol=1e-12)
    with pytest.raises(ValueError):
        vertical_newton_1(round_su2, np.array([1.0, 1.0, 0.0]))


def _exact_newton_1(mu, sigma) -> list:
    # trace(C) I - C in rationals, for the Gram matrix C_ij = <nabla_{e_i}
    # sigma, nabla_{e_j} sigma> = mu_i mu_j (|sigma|^2 delta_ij - a_i a_j).
    mu, a = [Fraction(x) for x in mu], [Fraction(x) for x in sigma]
    norm_sq = sum(x * x for x in a)
    gram = [[mu[i] * mu[j] * (norm_sq * (i == j) - a[i] * a[j]) for j in range(3)] for i in range(3)]
    trace = gram[0][0] + gram[1][1] + gram[2][2]
    return [[trace * (i == j) - gram[i][j] for j in range(3)] for i in range(3)]


def test_vertical_newton_1_is_exact_at_wide_mu_spreads():
    # Every entry within 8 units in the last place of the exact tensor of
    # the float mu and sigma, where e1 - mu_k^2 + mu_k^2 a_k^2 cancels.
    md = classify_algebra((3e8 + 1, 3e8 + 1, 2.0))  # mu = (1, 1, 3e8)
    assert vertical_newton_1(md, E[2]).tolist() == np.diag([1.0, 1.0, 2.0]).tolist()
    md = classify_algebra((1e8 + 1, 1e8 + 1, 2.0))
    t1 = vertical_newton_1(md, np.array([0.6, 0.0, 0.8]))
    assert abs(t1[2, 2] - 1.64) <= 1e-15
    rng = np.random.default_rng(74)
    cases = [(md, np.array([0.6, 0.0, 0.8]))]
    for spread in 10.0 ** np.arange(0, 13):
        lam = np.array([spread + 1.0, spread + rng.uniform(-1.0, 1.0), 2.0]) * rng.choice([-1.0, 1.0])
        for sigma in (_unit(rng), E[0], E[2], np.array([0.6, 0.0, 0.8])):
            cases.append((classify_algebra(lam[rng.permutation(3)]), sigma))
    for md, sigma in cases:
        got, exact = vertical_newton_1(md, sigma), _exact_newton_1(md.mu.tolist(), sigma.tolist())
        for i in range(3):
            for j in range(3):
                assert abs(Fraction(got[i, j]) - exact[i][j]) <= abs(exact[i][j]) / 2**50, (md.lam, sigma, i, j)


def test_divergence_invariant_tensor():
    rng = np.random.default_rng(79)
    md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
    np.testing.assert_allclose(
        divergence_invariant_tensor(md, 3.7 * np.eye(3)), np.zeros(3)
    )
    with pytest.raises(ValueError):
        divergence_invariant_tensor(md, np.eye(2))
    # div nu_1 = sigma^(2) x sigma^(1)
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        div = divergence_invariant_tensor(md, vertical_newton_1(md, sigma))
        s1 = milnor_iterate(md, sigma, 1)
        s2 = milnor_iterate(md, sigma, 2)
        np.testing.assert_allclose(div, np.cross(s2, s1), atol=1e-13)
    md = classify_algebra((2.0, 1.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(
        divergence_invariant_tensor(md, vertical_newton_1(md, sigma)),
        [0.0, -3.0, 0.0],
        atol=1e-12,
    )


def _h1_samples(rng, md, count=20):
    # eigenvectors of the squared Milnor map: poles plus equal-mu^2 circles
    samples = [E[0], E[1], E[2], -E[0]]
    mu_sq = md.mu**2
    tol = 1e-12 * max(float(np.max(mu_sq)), 1e-300)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if abs(mu_sq[i] - mu_sq[j]) <= tol:
            for _ in range(count):
                t = rng.uniform(0.0, 2.0 * np.pi)
                v = np.zeros(3)
                v[i], v[j] = np.cos(t), np.sin(t)
                samples.append(v)
    if np.max(mu_sq) - np.min(mu_sq) <= tol:
        samples.extend(_unit(rng) for _ in range(count))
    return samples


def test_vertical_newton_2_matches_recursion():
    rng = np.random.default_rng(83)
    for rep in REPRESENTATIVES:
        md = classify_algebra(rep)
        for sigma in _h1_samples(rng, md):
            nu2 = vertical_newton_2(md, sigma)
            alpha = vertical_cauchy_green(md, sigma)
            eps = elementary_invariants_newton(alpha)
            recursion = eps[2] * E - eps[1] * alpha + alpha @ alpha
            np.testing.assert_allclose(nu2, recursion, atol=1e-12)
            # divergence identity
            div2 = divergence_invariant_tensor(md, nu2)
            div1 = divergence_invariant_tensor(md, vertical_newton_1(md, sigma))
            s1 = milnor_iterate(md, sigma, 1)
            factor = grad_norm_sq(md, sigma) - float(s1 @ s1)
            np.testing.assert_allclose(div2, factor * div1, atol=1e-12)


def test_vertical_newton_2_examples_and_refusal():
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(
        vertical_newton_2(round_su2, E[0]) @ E[0], (1.0 / 16.0) * E[0]
    )
    flat = classify_algebra((1.0, 1.0, 0.0))
    np.testing.assert_allclose(vertical_newton_2(flat, E[0]), np.zeros((3, 3)), atol=1e-15)
    md = classify_algebra((2.0, 1.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert not in_h1(md, sigma)
    with pytest.raises(PreconditionError):
        vertical_newton_2(md, sigma)


def _divergence_loop(md, t):
    # Frame sum sum_i mu_i e_i x (T e_i).
    return sum(md.mu[i] * np.cross(E[i], t[:, i]) for i in range(3))


def _horizontal_loop(md, sigma, r):
    # div(nu) + sum_i R(sigma, nabla_{nu e_i} sigma) e_i over the frame, with
    # nabla_phi sigma = (mu*phi) x sigma and R(u, w) z summed over frame pairs.
    if r == 1:
        nu = E
    elif r == 2:
        nu = vertical_newton_1(md, sigma) + 2.0 * E
    else:
        nu = vertical_newton_2(md, sigma) + vertical_newton_1(md, sigma) + E
    out = _divergence_loop(md, nu)
    for i in range(3):
        eta = np.cross(md.mu * nu[:, i], sigma)
        for p, q in ((0, 1), (0, 2), (1, 2)):
            coeff = (sigma[p] * eta[q] - sigma[q] * eta[p]) * md.sectional[3 - p - q]
            out[p] += coeff * E[i][q]
            out[q] -= coeff * E[i][p]
    return out


def test_closed_forms_match_frame_loops():
    rng = np.random.default_rng(81)
    for rep in REPRESENTATIVES:
        md = classify_algebra(rep)
        generic = [_unit(rng) for _ in range(6)]
        for t in [rng.normal(size=(3, 3)) for _ in range(4)] + [vertical_newton_1(md, generic[0])]:
            np.testing.assert_allclose(
                divergence_invariant_tensor(md, t), _divergence_loop(md, t), rtol=1e-12, atol=1e-15
            )
        for sigma in _h1_samples(rng, md, count=4) + generic:
            for r in (1, 2, 3) if bool(in_h1(md, sigma)) else (1, 2):
                loop = _horizontal_loop(md, sigma, r)
                scale = max(1.0, float(np.abs(loop).max()))
                np.testing.assert_allclose(
                    horizontal_tension(md, sigma, r), loop, rtol=1e-12, atol=1e-12 * scale
                )


# ---------------------------------------------------------------------------
# tension fields
# ---------------------------------------------------------------------------


def test_tension_t1_examples():
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(tension_t1(round_su2, E[0]), -0.5 * E[0])
    flat = classify_algebra((1.0, 1.0, 0.0))
    np.testing.assert_allclose(tension_t1(flat, E[2]), np.zeros(3))
    md = classify_algebra((2.0, 1.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    expected = np.array([-4.0, 0.0, -1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(tension_t1(md, sigma), expected)
    # not proportional to sigma: not harmonic
    t = tension_t1(md, sigma)
    assert np.linalg.norm(t - (t @ sigma) * sigma) > 0.1


def test_tension_t2_examples():
    md = classify_algebra((1.0, 0.0, -1.0))
    ricci_flat = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(tension_t2(md, ricci_flat), np.zeros(3))
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    np.testing.assert_allclose(tension_t2(round_su2, E[0]), -0.125 * E[0])
    # cross-check through the sphere-bundle multiplier: -2 * wedge * sigma
    expected = -2.0 * wedge_norm_sq(round_su2, E[0]) * E[0]
    np.testing.assert_allclose(tension_t2(round_su2, E[0]), expected)
    with pytest.raises(ValueError):
        tension_t2(round_su2, np.array([1.0, 1.0, 0.0]))


def test_tension_closed_forms_match_assembly():
    rng = np.random.default_rng(89)
    for rep in REPRESENTATIVES:
        md = classify_algebra(rep)
        for _ in range(25):
            sigma = _unit(rng)
            for r, closed_fn in ((1, tension_t1), (2, tension_t2)):
                closed = closed_fn(md, sigma)
                assembled = tension_assembled(md, sigma, r)
                np.testing.assert_allclose(closed, assembled, atol=1e-11)
    with pytest.raises(ValueError):
        tension_assembled(md, E[0], 3)


def test_oracles_read_no_mu():
    # Every oracle of a closed form is the connection engine on lam alone: with
    # mu and every quantity derived from it set to NaN, each returns the same
    # bits as on the genuine geometry, stacked and for one triple.
    rng = np.random.default_rng(90)
    lam = np.concatenate([np.array(REPRESENTATIVES), rng.uniform(-1.5, 1.5, size=(20, 3))])
    raw = rng.normal(size=(len(lam), 3))
    sigma = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    tensor = rng.normal(size=(len(lam), 3, 3))
    for md, rows in ((MilnorData.normalize(lam), slice(None)), (classify_algebra(lam[3]), 3)):
        blind = dataclasses.replace(
            md, **{name: np.full_like(getattr(md, name), np.nan)
                   for name in ("mu", "ricci", "sectional", "scaled")}
        )
        s, t = sigma[rows], tensor[rows]
        for oracle, args in (
            (tension_assembled, (s, 1)),
            (tension_assembled, (s, 2)),
            (vertical_cauchy_green, (s,)),
            (divergence_invariant_tensor, (t,)),
        ):
            assert oracle(blind, *args).tobytes() == oracle(md, *args).tobytes(), oracle


def test_sphere_bundle_multiplier_general():
    rng = np.random.default_rng(97)
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        eps = vertical_invariants(md, sigma)
        for r, fn in ((1, tension_t1), (2, tension_t2)):
            assert float(fn(md, sigma) @ sigma) == pytest.approx(
                -r * eps[r], rel=1e-10, abs=1e-10
            )


def test_first_variation():
    round_su2 = classify_algebra((1.0, 1.0, 1.0))
    assert first_variation_fd(round_su2, E[0], np.zeros(3), 1) == pytest.approx(0.0)
    assert first_variation_fd(round_su2, E[0], E[1], 1) <= 1e-10
    rng = np.random.default_rng(101)
    for _ in range(50):
        lam = rng.uniform(-1.5, 1.5, size=3)
        md = classify_algebra(lam)
        if float(np.max(np.abs(md.mu))) > 1.0:
            md = classify_algebra(lam / float(np.max(np.abs(md.mu))))
        sigma = _unit(rng)
        zeta = rng.normal(size=3)
        zeta -= (zeta @ sigma) * sigma
        for r in (1, 2):
            assert first_variation_fd(md, sigma, zeta, r) <= 1e-6
    with pytest.raises(ValueError):
        first_variation_fd(round_su2, E[0], E[0], 1)  # not orthogonal
    with pytest.raises(ValueError):
        first_variation_fd(round_su2, E[0], E[1], 3)


def test_first_variation_broadcasts_one_field_over_stacked_algebras():
    # One sigma and zeta against md stacks of 2 and 3 rows: each row is what
    # that algebra alone gives, bit for bit (a 2-row md must not pair its
    # rows with the two displaced fields).
    sigma, zeta = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.0, -0.6])
    lams = [(2.0, 1.0, -1.0), (1.0, 1.0, 0.0), (0.5, -1.5, 1.0)]
    for rows in (2, 3):
        md = MilnorData.normalize(np.array(lams[:rows]))
        for r in (1, 2):
            stacked = first_variation_fd(md, sigma, zeta, r)
            alone = [first_variation_fd(classify_algebra(lam), sigma, zeta, r) for lam in lams[:rows]]
            assert stacked.shape == (rows,)
            assert stacked.tobytes() == np.array(alone).tobytes()


def test_first_variation_refusal_names_the_caller_row():
    # A refusal names no row for one field, and the caller's row for a
    # stacked md, with one sigma or with a sigma stack of md's rows.
    sigma, zeta = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.0, -0.6])
    cases = (
        # The degree-1 density and the tension overflow; the tension refuses first.
        ((2e155, 1e155, -1e155), 1, "the degree-1 vertical tension{} overflows the float range"),
        # The degree-2 tension overflows and refuses first.
        ((2e80, 1e80, -1e80), 2, "the degree-2 vertical tension{} overflows the float range"),
    )
    for huge, r, message in cases:
        with pytest.raises(ValueError, match=f"^{message.format('')}$"):
            first_variation_fd(classify_algebra(huge), sigma, zeta, r)
        for rows in (2, 3):
            md = MilnorData.normalize(np.array([(2.0, 1.0, -1.0)] + [huge] * (rows - 1)))
            for s, z in ((sigma, zeta), (np.tile(sigma, (rows, 1)), np.tile(zeta, (rows, 1)))):
                with pytest.raises(ValueError, match=f"^{message.format(' row 1')}$"):
                    first_variation_fd(md, s, z, r)


def test_first_variation_reads_its_own_degree_alone():
    # Only e_3 of the vertical Gram matrix overflows here: the degree-1
    # variation is a finite float, as tension_t1 of the same field is.
    sigma, zeta = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.0, -0.6])
    md = classify_algebra((2e60, 1e60, -1e60))
    assert np.isfinite(tension_t1(md, sigma)).all()
    value = first_variation_fd(md, sigma, zeta, 1)
    assert type(value) is float and np.isfinite(value)
    # Flat, so e_2 of a vertical Gram matrix of about 1e300 is exactly 0: its
    # power traces stay finite because the recursion scales the matrix first.
    assert first_variation_fd(classify_algebra((1e150, 1e150, 0.0)), sigma, zeta, 2) == 0.0


def test_horizontal_tension_principal_directions():
    for rep in REPRESENTATIVES:
        md = classify_algebra(rep)
        for k in range(3):
            for r in (1, 2, 3):
                h = horizontal_tension(md, E[k], r)
                assert np.linalg.norm(h) <= 1e-12


def test_horizontal_tension_subalgebra_circle():
    # e11 with l1 = -l3: the plane orthogonal to the vanishing constant is a
    # subalgebra; on its unit circle the degree-1 and degree-2 horizontal
    # tensions equal 2*a1*a3*e2 and the degree-3 one vanishes identically.
    md = classify_algebra((1.0, 0.0, -1.0))
    rng = np.random.default_rng(103)
    for _ in range(25):
        t = rng.uniform(0.1, np.pi / 2 - 0.1)
        sigma = np.array([np.cos(t), 0.0, np.sin(t)])
        expected = 2.0 * sigma[0] * sigma[2] * E[1]
        h1 = horizontal_tension(md, sigma, 1)
        h2 = horizontal_tension(md, sigma, 2)
        h3 = horizontal_tension(md, sigma, 3)
        np.testing.assert_allclose(h1, expected, atol=1e-13)
        np.testing.assert_allclose(h2, expected, atol=1e-13)
        assert np.linalg.norm(h1) > 0.1
        assert np.linalg.norm(h3) <= 1e-13


def test_horizontal_tension_refuses_off_locus():
    md = classify_algebra((2.0, 1.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(PreconditionError):
        horizontal_tension(md, sigma, 3)
    with pytest.raises(ValueError):
        horizontal_tension(md, sigma, 4)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_predicates_nil_principal_direction():
    md = classify_algebra((1.0, 0.0, 0.0))
    for r in (1, 2):
        report = check_predicates(md, E[1], r)
        assert report.r_harmonic_unit
        assert report.twisted_2_skyrmion
        assert report.r_harmonic_map
    # rho_2 = -1/2 != 0: not a degree-2 minimizer
    assert not check_predicates(md, E[1], 2).r_parallel
    assert not check_predicates(md, E[1], 1).r_parallel


def test_predicates_e11_ricci_flat_circle():
    md = classify_algebra((1.0, 0.0, -1.0))
    sigma = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    report = check_predicates(md, sigma, 2)
    assert report.r_parallel  # Ricci-flat
    assert report.r_harmonic_unit
    np.testing.assert_allclose(report.vertical_tension, np.zeros(3), atol=1e-14)
    # but not a harmonic map (not a structure eigenvector)
    assert not report.r_harmonic_map
    # degree 3: map classification only needs the squared-Milnor eigenspace
    assert check_predicates(md, sigma, 3).r_harmonic_map


def test_predicates_degree3_always_unit_harmonic():
    rng = np.random.default_rng(107)
    for _ in range(25):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        report = check_predicates(md, _unit(rng), 3)
        assert report.r_parallel
        assert report.r_harmonic_unit
        assert report.vertical_energy == 0.0


def test_predicates_cross_validated_with_eigen_tests():
    # r_harmonic_unit is H_r membership and the skyrmion locus is H1 at every
    # scale of lambda; on (2e5, 1e5, -1e5) the skyrmion operator's mu^2
    # differences fall below the tolerance against its rho^2 entries.
    rng = np.random.default_rng(109)
    scaled = [(1e50, 0.0, 0.0), (1e50, 1e50, 1e50), (2e50, 2e50, 1e50), (2e5, 1e5, -1e5)]
    for rep in list(REPRESENTATIVES) + scaled:
        md = classify_algebra(rep)
        samples = [_unit(rng) for _ in range(20)] + [E[0], E[2]]
        samples += [np.array([np.cos(0.3), 0.0, np.sin(0.3)])]
        samples += [np.array([np.cos(0.3), np.sin(0.3), 0.0])]
        for sigma in samples:
            r2 = check_predicates(md, sigma, 2)
            assert r2.r_harmonic_unit == bool(is_eigendirection(md.ricci**2, sigma))
            r1 = check_predicates(md, sigma, 1)
            assert r1.r_harmonic_unit == bool(is_eigendirection(md.mu**2, sigma))
            assert r1.twisted_2_skyrmion == bool(in_h1(md, sigma))
    # Near the ends of the float range for mu^2 (r = 1) and rho^2 (r = 2),
    # whose squared eigenvector residuals used to overflow or underflow.
    # At 1e+-100 rho^2 itself leaves the range; the loci read mu of
    # lam / 2^e, so both degrees are pinned there too.
    bases = [
        (1.0, 0.0, 0.0),
        (1.0, 0.0, -1.0),
        (2.0, 1.0, 0.0),
        (2.0, 1.0, -1.0),
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (2.0, 2.0, 1.0),
    ]
    samples = [_unit(rng) for _ in range(8)] + [E[0], E[1], E[2], -E[1]]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for t in (0.3, 2.0):
            v = np.zeros(3)
            v[i], v[j] = np.cos(t), np.sin(t)
            samples.append(v)
    for base in bases:
        for scale in (1e50, 1e-50, 1e100, 1e-100):
            lam = np.asarray(base) * scale
            md = classify_algebra(lam)
            sets = classify_sets(lam)
            for sigma in samples:
                for r in (1, 2):
                    report = check_predicates(md, sigma, r)
                    where = (base, scale, r)
                    assert report.r_harmonic_unit == sets[f"H{r}"].contains(sigma), where
                    assert report.twisted_2_skyrmion == sets["H1"].contains(sigma), where


def test_parallel_test_is_scale_safe():
    # Z1 membership is read off the zero mask of mu at unit scale, so it
    # matches the descriptor where mu^2 underflows or overflows.
    rng = np.random.default_rng(111)
    samples = np.array([E[0], E[1], E[2], [0.0, 0.6, 0.8], [0.6, 0.8, 0.0], _unit(rng)])
    bases = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0), (1.0, 0.0, -1.0)]
    for base in bases + [(1.0, 1.0, 1.0)]:
        for scale in (1e-170, 1.0, 1e170):
            md = classify_algebra(np.asarray(base) * scale)
            z1 = classify_sets(md)["Z1"]
            np.testing.assert_array_equal(in_z1(md, samples), z1.contains(samples), (base, scale))
    # mu^2 = 1e-340 underflows to 0: the residual used to call this parallel.
    md = classify_algebra((1e-170, 0.0, 0.0))
    assert not check_predicates(md, np.array([0.0, 0.6, 0.8]), 1).r_parallel


def test_verdicts_are_invariant_under_power_of_two_scaling():
    # lambda -> 2^k lambda is exact wherever it round-trips, so the class,
    # flatness, kernel, every descriptor and every predicate verdict must be
    # bit-equal to those at scale 1, on generic, representative and
    # near-degenerate triples (near-flat, and a small mu whose rho^2 entries
    # tie inside the tolerance band).
    rng = np.random.default_rng(116)
    near = [
        (0.0, 1.0, 1.000000000000341),
        (1.1001336551940688, 0.14421341896135775, -0.9559467023566952),
        (2.0, 1.0, -1.0000001),
        (1.0, 1.0 + 1e-12, -1.0),
        (1e-12, 1.0, 1.0),
        (1.000001e-6, 1.000000000001, 1.000001),
    ]
    bases = list(REPRESENTATIVES) + near + [tuple(rng.uniform(-1.5, 1.5, size=3)) for _ in range(8)]
    samples = np.concatenate([rng.normal(size=(24, 3)), E, [[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]])
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)

    def verdicts(lam):
        md = classify_algebra(lam)
        out = [md.algebra_class, md.flat, md.ricci_kernel_dim, classify_sets(md)]
        for r in (1, 2, 3):
            report = check_predicates(md, samples, r)
            out += [
                report.r_parallel.tolist(),
                report.r_harmonic_unit.tolist(),
                report.twisted_2_skyrmion.tolist(),
                report.r_harmonic_map.tolist(),
            ]
        return out

    checked = 0
    for base in bases:
        lam = np.asarray(base, dtype=float)
        expected = verdicts(lam)
        for k in (-1000, -600, -300, -100, -60, -1, 1, 60, 100, 300, 600, 900):
            scaled = np.ldexp(lam, k)
            if not np.array_equal(np.ldexp(scaled, -k), lam):
                continue
            assert verdicts(scaled) == expected, (base, k)
            checked += 1
    assert checked >= 11 * len(bases)


@pytest.mark.parametrize(
    "lam, h2, residual_z2",
    [
        # Two mu negligible: flat, though max |rho| is ~3e-13 of max mu^2.
        ((0.0, 1.0, 1.000000000000341), "Sphere", False),
        ((2.0, 1.0, -1.0000001), "PolarSet", True),  # two rho^2 tie within TOL, no mu^2 do
        ((1.0, 0.0, -1.0), "Circle(1,3) U PolarPair(2)", True),
        # mu = (5e-13, 5e-7, 0.5): mu_1 is negligible, and mu_1^2, mu_2^2 tie
        # within TOL, so H1 pairs e3 with the (e1, e2)-circle.
        ((1.000001e-6, 1.000000000001, 1.000001), "Circle(2,3) U Circle(1,2)", False),
    ],
)
def test_h2_descriptor_is_the_union_of_h1_and_z2(lam, h2, residual_z2):
    # Membership in the emitted H2 is membership in H1 or Z2, and in_h2
    # agrees in every row.  residual_z2 says whether |Ric sigma| against
    # max |rho|, a second Z2 rule, would agree too: it does not where two mu
    # are small, so max |rho| is itself small, and the rows pin that case.
    md = classify_algebra(lam)
    sets = classify_sets(md)
    assert str(sets["H2"]) == h2
    rng = np.random.default_rng(117)
    t = rng.uniform(0.0, 2.0 * np.pi, size=20)
    circle = np.stack([np.cos(t), np.sin(t), 0.0 * t], -1)  # in the (e1, e2)-plane
    circles = [np.roll(circle, k, -1) for k in range(3)]
    samples = np.concatenate([E, -E, rng.normal(size=(20, 3))] + circles)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    union = sets["H1"].contains(samples) | sets["Z2"].contains(samples)
    np.testing.assert_array_equal(sets["H2"].contains(samples), union)
    np.testing.assert_array_equal(lie3.in_h2(md, samples), union)
    ricci = np.linalg.norm(samples * (md.ricci / np.abs(md.ricci).max()), axis=-1)
    residual = sets["H1"].contains(samples) | (ricci <= lie3.TOL)
    assert np.array_equal(residual, union) == residual_z2


def test_check_predicates_validates_once(monkeypatch):
    # One validation of sigma and one membership test per call (every verdict
    # read from one gather of the verdict table), no numpy cross products, and
    # no Newton-Girard recursion: the energy is a closed form.
    calls = {"cross": 0, "triple": 0, "member": 0, "newton": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "cross", counting("cross", np.cross))
    monkeypatch.setattr(lie3, "_triple", counting("triple", lie3._triple))
    monkeypatch.setattr(lie3, "_member", counting("member", lie3._member))
    monkeypatch.setattr(
        lie3,
        "elementary_invariants_newton",
        counting("newton", lie3.elementary_invariants_newton),
    )
    rng = np.random.default_rng(112)
    for rep in REPRESENTATIVES:
        md = classify_algebra(rep)
        for sigma in (E[0], np.array([0.6, 0.0, 0.8]), _unit(rng)):
            for r in (1, 2, 3):
                calls.update(cross=0, triple=0, member=0, newton=0)
                check_predicates(md, sigma, r)
                assert calls["cross"] == 0
                assert calls["triple"] <= 1
                assert calls["member"] == 1, (rep, sigma, r)
                assert calls["newton"] == 0


def test_reported_energy_matches_gram_invariants():
    # The closed forms e1 = |nabla sigma|^2 and e2 = |Ric(sigma)|^2 / 4 agree
    # with the elementary invariants of the vertical Gram matrix.
    rng = np.random.default_rng(114)
    for _ in range(200):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        oracle = vertical_invariants(md, sigma)
        for r in (1, 2):
            energy = check_predicates(md, sigma, r).vertical_energy
            assert energy == pytest.approx(oracle[r], rel=1e-12), (md.lam, sigma, r)


def test_reported_degree2_energy_is_exact_near_frame():
    # Near a frame vector e2 is small against e1^2, where Newton-Girard on
    # the Gram matrix cancels (relative error ~6e-12 on these draws); the
    # closed form stays within a few rounding errors of the exact value.
    rng = np.random.default_rng(115)
    worst = 0.0
    for _ in range(200):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = E[rng.integers(3)] + 10.0 ** rng.uniform(-7, -3) * rng.normal(size=3)
        sigma = sigma / np.linalg.norm(sigma)
        mu = [Fraction(m) for m in md.mu.tolist()]
        a = [Fraction(x) for x in sigma.tolist()]
        norm_sq = sum(x * x for x in a)
        # Vertical Gram matrix [i, j] = mu_i mu_j (delta_ij |sigma|^2 - a_i a_j).
        gram = [
            [mu[i] * mu[j] * (norm_sq * (i == j) - a[i] * a[j]) for j in range(3)] for i in range(3)
        ]
        exact = sum(gram[i][i] * gram[j][j] - gram[i][j] ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
        energy = check_predicates(md, sigma, 2).vertical_energy
        worst = max(worst, float(abs(Fraction(energy) - exact) / exact))
    assert worst <= 1e-15


def test_horizontal_tension_refuses_overflow():
    # |lambda| ~ 4e99: mu^4 in the degree-2 Newton tensor leaves the float
    # range, so the degree-3 tension cannot be represented.
    sc = StructureConstants.normalize((4.1587337981970593e99, 0.0, -2.0793668990985297e99))
    md = classify_algebra(sc)
    sigma = sc.permute((-0.9957791567572211, 0.0, 0.09178164831750239))
    sigma = sigma / np.linalg.norm(sigma)
    assert in_h1(md, sigma)
    big = classify_algebra(np.array([2.0, 1.0, -1.0]) * 1e120)
    generic = np.array([0.6, 0.48, 0.64])
    with pytest.raises(ValueError, match="degree-3 horizontal tension overflows"):
        horizontal_tension(md, sigma, 3)
    report = check_predicates(md, sigma, 3)
    for r in (1, 2):
        with pytest.raises(ValueError, match=f"degree-{r} horizontal tension overflows"):
            horizontal_tension(big, generic, r)
        assert check_predicates(big, generic, r).horizontal_tension is None
    assert report.horizontal_tension is None
    assert report.r_harmonic_map
    # A zero tension stays zero where its terms would overflow: flat e2.
    flat = classify_algebra((3e111, 3e111, 0.0))
    np.testing.assert_array_equal(horizontal_tension(flat, generic, 2), np.zeros(3))


def test_predicates_sign_invariance():
    rng = np.random.default_rng(113)
    for _ in range(50):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = _unit(rng)
        r = int(rng.integers(1, 4))
        a = check_predicates(md, sigma, r)
        b = check_predicates(md, -sigma, r)
        assert (a.r_parallel, a.r_harmonic_unit, a.twisted_2_skyrmion, a.r_harmonic_map) == (
            b.r_parallel,
            b.r_harmonic_unit,
            b.twisted_2_skyrmion,
            b.r_harmonic_map,
        )


def test_predicates_validation():
    md = classify_algebra((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        check_predicates(md, np.array([1.0, 1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        check_predicates(md, E[0], 4)
    for coupling in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            check_predicates(md, E[0], 2, coupling=coupling)
