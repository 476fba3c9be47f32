import numpy as np
import pytest

from hpharmonics.invariants import elementary_invariants_newton
from hpharmonics.lie3 import (
    PreconditionError,
    StructureConstants,
    check_predicates,
    classify_algebra,
    classify_sets,
    covariant_derivative,
    divergence_invariant_tensor,
    first_variation_fd,
    grad_norm_sq,
    horizontal_tension,
    in_h1,
    is_eigendirection,
    milnor_iterate,
    riemann_action,
    second_covariant,
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


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# normalization and classification
# ---------------------------------------------------------------------------


def test_normalize_sorts_descending():
    sc = StructureConstants.normalize((0.0, 1.0, -1.0))
    assert sc.values == (1.0, 0.0, -1.0)
    np.testing.assert_allclose(sc.permute((10.0, 20.0, 30.0)), [20.0, 10.0, 30.0])


def test_normalize_flips_sign_when_negatives_dominate():
    sc = StructureConstants.normalize((1.0, -1.0, -1.0))
    assert sc.values == (1.0, 1.0, -1.0)
    assert sc.sign_flipped
    sc = StructureConstants.normalize((0.0, 0.0, -1.0))
    assert sc.values == (1.0, 0.0, 0.0)
    assert classify_algebra(sc).algebra_class == "nil"


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        StructureConstants.normalize((1.0, np.nan, 0.0))
    with pytest.raises(ValueError):
        StructureConstants.normalize((1.0, 2.0))


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


def test_covariant_derivative_frame_relations():
    md = classify_algebra((2.0, 1.0, -1.0))  # mu = (-1, 0, 2)
    np.testing.assert_allclose(covariant_derivative(md, E[0], E[1]), [0.0, 0.0, -1.0])
    rng = np.random.default_rng(51)
    for _ in range(20):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        for i in range(3):
            # frame fields are geodesic
            np.testing.assert_allclose(covariant_derivative(md, E[i], E[i]), np.zeros(3))
            for j in range(3):
                expected = np.cross(md.mu[i] * E[i], E[j])
                np.testing.assert_allclose(covariant_derivative(md, E[i], E[j]), expected)


def test_grad_norm_sq():
    md = classify_algebra((2.0, 1.0, -1.0))
    assert grad_norm_sq(md, E[2]) == pytest.approx(1.0)
    flat = classify_algebra((1.0, 1.0, 0.0))
    assert grad_norm_sq(flat, E[2]) == pytest.approx(0.0)
    rng = np.random.default_rng(53)
    for _ in range(100):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = rng.uniform(-2.0, 2.0, size=3)
        oracle = sum(
            float(np.dot(d, d))
            for d in (covariant_derivative(md, E[i], sigma) for i in range(3))
        )
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
        rows = [covariant_derivative(md, E[i], sigma) for i in range(3)]
        oracle = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                oracle += np.dot(rows[i], rows[i]) * np.dot(rows[j], rows[j]) - np.dot(
                    rows[i], rows[j]
                ) ** 2
        closed = wedge_norm_sq(md, sigma)
        assert closed == pytest.approx(oracle, rel=1e-11, abs=1e-13)


def test_second_covariant():
    abelian = classify_algebra((0.0, 0.0, 0.0))
    rng = np.random.default_rng(61)
    np.testing.assert_allclose(
        second_covariant(abelian, _unit(rng), _unit(rng), _unit(rng)), np.zeros(3)
    )
    for _ in range(50):
        md = classify_algebra(rng.uniform(-1.5, 1.5, size=3))
        sigma = rng.uniform(-1.5, 1.5, size=3)
        for i in range(3):
            expected = md.mu[i] ** 2 * sigma[i] * E[i] - md.mu[i] ** 2 * sigma
            np.testing.assert_allclose(
                second_covariant(md, E[i], E[i], sigma), expected, atol=1e-13
            )
        # trace over the frame is the rough Laplacian
        trace = sum(second_covariant(md, E[i], E[i], sigma) for i in range(3))
        expected = milnor_iterate(md, sigma, 2) - float(np.sum(md.mu**2)) * sigma
        np.testing.assert_allclose(trace, expected, atol=1e-12)


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
        assert report.vertical_energy == pytest.approx(0.0, abs=1e-12)


def test_predicates_cross_validated_with_eigen_tests():
    # r_harmonic_unit is H_r membership at every scale of lambda.  The
    # skyrmion locus mixes degrees 2 and 4 in lambda, so it is compared at
    # unit scale only.
    rng = np.random.default_rng(109)
    scaled = [(1e50, 0.0, 0.0), (1e50, 1e50, 1e50), (2e50, 2e50, 1e50)]
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
            if rep not in scaled:
                assert r1.twisted_2_skyrmion == bool(in_h1(md, sigma))
    # Near the ends of the float range for mu^2 (r = 1) and rho^2 (r = 2),
    # whose squared eigenvector residuals used to overflow or underflow.
    # At 1e+-100 rho^2 itself leaves the range, so only r = 1 is pinned
    # there, and the skyrmion operator's overflow is expected.
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
        for scale, degrees in ((1e50, (1, 2)), (1e-50, (1, 2)), (1e100, (1,)), (1e-100, (1,))):
            lam = np.asarray(base) * scale
            md = classify_algebra(lam)
            with np.errstate(over="ignore", invalid="ignore"):
                sets = classify_sets(lam)
                for sigma in samples:
                    for r in degrees:
                        verdict = check_predicates(md, sigma, r).r_harmonic_unit
                        assert verdict == sets[f"H{r}"].contains(sigma), (base, scale, r)


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
    with pytest.raises(ValueError):
        check_predicates(md, E[0], 2, coupling=-1.0)
