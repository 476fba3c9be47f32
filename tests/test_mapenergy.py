from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from hpharmonics.invariants import elementary_invariants_newton, newton_endomorphisms
from hpharmonics.mapenergy import (
    InvalidMetricError,
    PointData,
    UnsupportedDimensionError,
    cauchy_green,
    conformal_scaling_residual,
    density_report,
    gram_invariants,
    majorisation_gap,
    pullback_metric,
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


def test_domain_metric_factored_once(monkeypatch):
    # PointData factors each metric once; the whitening reuses the domain
    # factor instead of factoring G again on every call.
    point = _random_point(np.random.default_rng(6), 4, 5)
    factored = []
    true_cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        factored.append(a)
        return true_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    point = PointData(point.jacobian, point.domain_metric, point.codomain_metric)
    assert len(factored) == 2
    stretch_eigenvalues(point)
    gram_invariants(point)
    r_conformal_check(point, 2)
    assert len(factored) == 2


def test_ill_conditioned_metric_exact_invariants():
    # G = Q diag(g) Q^T with cond(G) = 1e8, J = Q^T and H = diag(p): the
    # squared stretches are exactly p/g, so e_r(alpha) = e_r(p/g), summed in
    # rationals from the same floats.  Newton-Girard on G^{-1} P gets e_4
    # wrong by about its own size here.
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4)))
    g = np.array([1e-4, 3e-2, 5e1, 1e4])
    p = np.array([0.5, 0.25, 4.0, 2.0])
    eps = density_report(_point(q.T, dom=(q * g) @ q.T, cod=np.diag(p))).eps
    stretches = [Fraction(a) / Fraction(b) for a, b in zip(p, g)]
    for r in range(5):
        exact = sum((prod(c) for c in combinations(stretches, r)), Fraction(0))
        assert abs(Fraction(eps[r]) - exact) <= Fraction(1, 10**7) * exact


def test_one_eigendecomposition_per_point(monkeypatch):
    # Every density quantity of a point reads one cached diagonalisation of
    # the whitened pullback; only the rho^2 G point of the scaling residual
    # diagonalises again.
    point = _random_point(np.random.default_rng(7), 4, 5)
    calls = []
    true_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return true_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    point = PointData(point.jacobian, point.domain_metric, point.codomain_metric)
    density_report(point)
    r_conformal_check(point, 2)
    majorisation_gap(point)
    stretch_eigenvalues(point)
    gram_invariants(point)
    assert len(calls) == 1
    conformal_scaling_residual(point, 1.7, 2)
    assert len(calls) == 2
    # The cached arrays are shared by every caller, so none may be written.
    with pytest.raises(ValueError):
        stretch_eigenvalues(point)[0] = 1.0


def test_report_newton_tensors():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        point = _random_point(rng, m, m + 1)
        report = density_report(point)
        chi = report.newton
        assert chi.shape == (m + 1, m, m)
        np.testing.assert_array_equal(chi[0], np.eye(m))
        assert not chi[m].any()
        scale = max(1.0, float(np.max(report.eps)))
        for r in range(1, m + 1):
            trace = np.trace(report.alpha @ chi[r - 1])
            assert abs(trace - r * report.eps[r]) <= 1e-10 * scale
        oracle = newton_endomorphisms(cauchy_green(point))
        assert float(np.max(np.abs(chi - oracle))) <= 1e-10 * scale


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
    for r in range(1, 5):
        assert conformal_scaling_residual(point, 1.0, r) == 0.0
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
    # J^T H J overflows: every density quantity refuses instead of
    # returning nan.
    huge = _point(np.diag([1e200, 1.0]))
    for call in (density_report, stretch_eigenvalues, lambda pt: r_conformal_check(pt, 1)):
        with pytest.raises(ValueError, match="overflows"), np.errstate(all="ignore"):
            call(huge)
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


def test_complex_input_is_refused():
    # A complex Jacobian or metric used to be cast to its real part, after
    # a ComplexWarning, and return plausible-looking invariants.
    eye = np.eye(2)
    for args in ((np.ones((2, 2)) + 1j, eye, eye), (eye, eye + 0j, eye), (eye, eye, eye * 1j)):
        with pytest.raises(ValueError, match="complex entries"):
            PointData(*args)
    with pytest.raises(ValueError, match="complex entries"):
        conformal_scaling_residual(_point(eye), 1.5 + 0.5j, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [1e160, 1e200, np.float64(1e200), 1e-200])
def test_extreme_scale_factor_is_refused_by_name(rho):
    point = _point(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match=r"^scale factor .* is out of range: rho\^2 and rho\^4"):
        conformal_scaling_residual(point, rho, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "jac, dom", [(1e200 * np.eye(2), np.eye(2)), (np.eye(2), 1e-320 * np.eye(2))]
)
def test_overflowing_whitened_pullback_refuses_without_warning(jac, dom):
    point = PointData(jac, dom, np.eye(2))
    calls = (
        density_report,
        stretch_eigenvalues,
        gram_invariants,
        majorisation_gap,
        lambda pt: r_conformal_check(pt, 1),
        lambda pt: conformal_scaling_residual(pt, 1.5, 1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^the whitened pullback .* overflows the float range$"):
            call(point)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_direct_paths_refuse_overflow_by_row():
    # P = J^T H J overflows in row 1 of the stack, and G^-1 P also in row 2
    # (G = 1e-320 I): the direct paths refuse, naming the first bad row.
    jac = np.array([np.eye(2), 1e200 * np.eye(2), np.eye(2)])
    dom = np.array([np.eye(2), np.eye(2), 1e-320 * np.eye(2)])
    stack = PointData(jac, dom, np.array([np.eye(2)] * 3))
    with pytest.raises(ValueError, match=r"^the pullback metric J\^T H J row 1 overflows"):
        pullback_metric(stack)
    with pytest.raises(ValueError, match=r"^the distortion operator .* row 1 overflows"):
        cauchy_green(stack)
    with pytest.raises(ValueError, match=r"^the distortion operator G\^-1 J\^T H J overflows"):
        cauchy_green(PointData(np.eye(2), 1e-320 * np.eye(2), np.eye(2)))
    np.testing.assert_array_equal(pullback_metric(PointData(jac[2], dom[2], np.eye(2))), np.eye(2))
