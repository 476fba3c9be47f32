from math import comb

import numpy as np
import pytest

from hpharmonics.invariants import elementary_invariants_newton
from hpharmonics.mapenergy import (
    InvalidMetricError,
    PointData,
    UnsupportedDimensionError,
    cauchy_green,
    conformal_scaling_residual,
    density_report,
    gram_invariants,
    majorisation_gap,
    r_conformal_check,
    stretch_eigenvalues,
)


def _point(jac, dom=None, cod=None):
    jac = np.asarray(jac, dtype=float)
    n, m = jac.shape
    return PointData(
        jacobian=jac,
        domain_metric=np.eye(m) if dom is None else dom,
        codomain_metric=np.eye(n) if cod is None else cod,
    )


def _random_spd(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    g = (q * rng.uniform(0.5, 2.0, size=m)) @ q.T
    return 0.5 * (g + g.T)


def _random_point(rng, m, n):
    return PointData(
        jacobian=rng.uniform(-1.0, 1.0, size=(n, m)),
        domain_metric=_random_spd(rng, m),
        codomain_metric=_random_spd(rng, n),
    )


def test_isometry():
    point = _point(np.eye(3))
    np.testing.assert_allclose(cauchy_green(point), np.eye(3))
    report = density_report(point)
    np.testing.assert_allclose(report.eps, [1.0, 3.0, 3.0, 1.0])
    assert report.volume_density == pytest.approx(1.0)


def test_diagonal_stretches():
    # J = diag(r_i) padded: alpha = diag(r_i^2)
    jac = np.zeros((5, 3))
    jac[0, 0], jac[1, 1], jac[2, 2] = 1.0, 2.0, 3.0
    point = _point(jac)
    np.testing.assert_allclose(cauchy_green(point), np.diag([1.0, 4.0, 9.0]))
    np.testing.assert_allclose(stretch_eigenvalues(point), [1.0, 4.0, 9.0])

    # Rotated, ill-conditioned metric: G = Q diag(g) Q^T with cond(g) = 1e6,
    # J = Q^T and H = diag(p), so P = Q diag(p) Q^T and the stretches are p/g.
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    g = np.array([1e-3, 1.0, 1e3])
    p = np.array([2e-3, 0.5, 7e3])
    point = _point(q.T, dom=(q * g) @ q.T, cod=np.diag(p))
    np.testing.assert_allclose(stretch_eigenvalues(point), np.sort(p / g), rtol=1e-9)


def test_rank_zero_map():
    report = density_report(_point(np.zeros((4, 3))))
    np.testing.assert_allclose(report.eps, [1.0, 0.0, 0.0, 0.0])
    assert report.volume_density == 0.0
    assert all(r_conformal_check(_point(np.zeros((4, 3))), r) for r in (1, 2, 3))


def test_two_dim_eigenvalues():
    report = density_report(_point(np.diag([1.0, 2.0])))
    np.testing.assert_allclose(report.eps, [1.0, 5.0, 4.0])
    assert report.volume_density == pytest.approx(2.0)


def test_orthogonal_jacobian_binomials():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    report = density_report(_point(q))
    np.testing.assert_allclose(report.eps, [comb(4, r) for r in range(5)], atol=1e-12)
    assert report.volume_density == pytest.approx(1.0)


def test_invariants_match_gram_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        point = _random_point(rng, 3, 5)
        eps = elementary_invariants_newton(cauchy_green(point))
        oracle = gram_invariants(point)
        np.testing.assert_allclose(eps, oracle, rtol=1e-10, atol=1e-10)


def test_report_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        point = _random_point(rng, m, m + 2)
        report = density_report(point)
        # self-adjoint with respect to the domain metric
        ga = point.domain_metric @ report.alpha
        assert np.max(np.abs(ga - ga.T)) <= 1e-10
        assert np.all(report.eps >= -1e-12)
        assert report.volume_density**2 == pytest.approx(
            max(report.eps[m], 0.0), rel=1e-10, abs=1e-12
        )
        assert float(np.min(stretch_eigenvalues(point))) >= -1e-12


def test_conformal_check_conformal_point():
    for c in (0.5, 1.0, 2.0):
        point = _point(c * np.eye(4))
        for r in (1, 2, 3, 4):
            assert r_conformal_check(point, r)


def test_conformal_check_rank_two():
    point = _point(np.diag([1.0, 1.0, 0.0, 0.0]))
    assert not r_conformal_check(point, 2)  # rank 2 >= r and not conformal
    assert r_conformal_check(point, 3)


def test_majorisation_equality_iff_conformal():
    # equality case: conformal
    assert majorisation_gap(_point(np.eye(4))) == pytest.approx(0.0, abs=1e-12)
    # eigenvalues (1, 1, 1, 4): e_2 = 15, v = 2, gap = 3
    point = _point(np.diag([1.0, 1.0, 1.0, 2.0]))
    assert majorisation_gap(point) == pytest.approx(3.0)
    assert not r_conformal_check(point, 2)
    # eigenvalues (1, 1, 0, 0): rank 2 = r, gap = 1
    point = _point(np.diag([1.0, 1.0, 0.0, 0.0]))
    assert majorisation_gap(point) == pytest.approx(1.0)


def test_majorisation_gap_nonnegative_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        point = _random_point(rng, 4, int(rng.integers(4, 7)))
        eps2 = elementary_invariants_newton(cauchy_green(point))[2]
        assert majorisation_gap(point) >= -1e-10 * eps2


def test_majorisation_rejects_odd_dimension():
    with pytest.raises(UnsupportedDimensionError):
        majorisation_gap(_point(np.eye(3)))


def test_scaling_residual_trivial_and_exact():
    rng = np.random.default_rng(23)
    point = _random_point(rng, 4, 5)
    assert conformal_scaling_residual(point, 1.0, 2) == 0.0
    eps2 = elementary_invariants_newton(cauchy_green(point))[2]
    assert conformal_scaling_residual(point, 1.7, 2) <= 1e-10 * eps2


def test_scaling_degree_one():
    rng = np.random.default_rng(27)
    point = _random_point(rng, 3, 4)
    base = elementary_invariants_newton(cauchy_green(point))[1]
    scaled = PointData(
        jacobian=point.jacobian,
        domain_metric=4.0 * point.domain_metric,
        codomain_metric=point.codomain_metric,
    )
    value = elementary_invariants_newton(cauchy_green(scaled))[1]
    assert value == pytest.approx(base / 4.0, rel=1e-12)


def test_codomain_homogeneity():
    rng = np.random.default_rng(29)
    point = _random_point(rng, 4, 5)
    c = 1.3
    scaled = PointData(
        jacobian=point.jacobian,
        domain_metric=point.domain_metric,
        codomain_metric=c**2 * point.codomain_metric,
    )
    eps = elementary_invariants_newton(cauchy_green(point))
    eps_scaled = elementary_invariants_newton(cauchy_green(scaled))
    expected = eps * c ** (2 * np.arange(5))
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(eps_scaled - expected))) <= 1e-12 * scale


def test_density_vanishes_exactly_below_rank():
    rng = np.random.default_rng(31)
    for rank in (1, 2, 3):
        left = rng.uniform(-1.0, 1.0, size=(4, rank))
        right = rng.uniform(-1.0, 1.0, size=(rank, 4))
        point = PointData(
            jacobian=left @ right,
            domain_metric=_random_spd(rng, 4),
            codomain_metric=_random_spd(rng, 4),
        )
        eps = elementary_invariants_newton(cauchy_green(point))
        scale = max(1.0, float(np.max(np.abs(eps))))
        for r in range(1, 5):
            assert (abs(eps[r]) <= 1e-9 * scale) == (rank < r)


def test_invalid_inputs():
    with pytest.raises(InvalidMetricError):
        _point(np.eye(2), dom=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(InvalidMetricError):
        _point(np.eye(2), dom=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidMetricError):
        _point(np.eye(2), dom=np.ones((2, 3)))
    with pytest.raises(InvalidMetricError):
        _point(np.eye(2), dom=np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(ValueError):
        PointData(jacobian=np.ones(2), domain_metric=np.eye(2), codomain_metric=np.eye(1))
    with pytest.raises(ValueError):
        _point(np.eye(2), cod=np.eye(3))
    with pytest.raises(ValueError):
        _point(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        _point(np.eye(2), dom=np.eye(3))
    with pytest.raises(ValueError):
        PointData(
            jacobian=np.zeros((3, 9)),
            domain_metric=np.eye(9),
            codomain_metric=np.eye(3),
        )
    rng = np.random.default_rng(1)
    point = _random_point(rng, 3, 3)
    with pytest.raises(ValueError):
        conformal_scaling_residual(point, 0.0, 1)
    with pytest.raises(ValueError):
        conformal_scaling_residual(point, -1.0, 1)
    for r in (0, 4):
        with pytest.raises(ValueError):
            conformal_scaling_residual(point, 1.0, r)
    with pytest.raises(ValueError):
        r_conformal_check(point, 0)
