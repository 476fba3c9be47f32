import re
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from hpharmonics import mapenergy
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
    true_cholesky = mapenergy._cholesky

    def counting(a, *args, **kwargs):
        factored.append(a)
        return true_cholesky(a, *args, **kwargs)

    # mapenergy calls the LAPACK gufunc behind np.linalg.cholesky directly.
    monkeypatch.setattr(mapenergy, "_cholesky", counting)
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
    true_eigh = mapenergy._eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return true_eigh(a, *args, **kwargs)

    # mapenergy calls the LAPACK gufunc behind np.linalg.eigh directly.
    monkeypatch.setattr(mapenergy, "_eigh", counting)
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


def test_report_forms_alpha_and_newton_on_first_read():
    # The report costs the diagonalisation alone; alpha and the Newton
    # tensors are formed when first read and the same arrays are kept.
    point = _random_point(np.random.default_rng(13), 4, 5)
    report = density_report(point)
    assert "alpha" not in vars(report) and "newton" not in vars(report)
    newton = report.newton
    assert "newton" in vars(report) and "alpha" not in vars(report)
    alpha = report.alpha
    assert report.newton is newton and report.alpha is alpha
    assert "leave_one_out" not in mapenergy._Spectrum._fields


@pytest.mark.parametrize("dom", [[[1e308, 0.0], [0.0, 1.0]], [[1e308, 1.0], [1.0 + 1e-10, 1.0]]])
def test_metric_entries_near_the_float_maximum(dom):
    # det G is 1e308 up to 1 part in 1e308, so e_2 = det P / det G is 1e-308.
    # Symmetrizing as 0.5 (g + g^T) overflowed to inf here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = density_report(_point(np.eye(2), dom=np.array(dom)))
        assert np.isfinite(report.alpha).all() and np.isfinite(report.newton).all()
    assert report.eps[0] == 1.0 and report.eps[1] == pytest.approx(1.0, rel=1e-15)
    assert report.eps[2] == pytest.approx(1e-308, rel=1e-12)
    assert report.volume_density == pytest.approx(1e-154, rel=1e-12)


def test_symmetrization_keeps_the_bits_of_the_summed_form():
    # Halving before the sum changes no bits unless a term overflows or
    # goes subnormal; an exactly symmetric metric is kept as it is.
    rng = np.random.default_rng(14)
    for m in range(2, 7):
        g = _random_spd(rng, m) * 10.0 ** rng.uniform(-100, 100)
        assert mapenergy._check_metric(g, "g")[0] is g
        skew = g * (1.0 + rng.uniform(-1e-14, 1e-14, size=(m, m)))
        sym, _ = mapenergy._check_metric(skew, "g")
        assert sym is not skew
        assert sym.tobytes() == (0.5 * (skew + skew.T)).tobytes()


def _reference_check_metric(g, name):
    # The symmetry test of _check_metric with |g - g^T| formed for every
    # metric, exact or not; the Cholesky factor is left to the tested code.
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        ok = np.isfinite(g).all(axis=(-2, -1))
        raise InvalidMetricError(f"{name}{mapenergy._row(ok)} has non-finite entries")
    asym = np.abs(g - g.mT)
    if (worst := asym.max(initial=0.0)) > 1e-12:
        symmetric = asym.max(axis=(-2, -1)) <= 1e-12 * np.abs(g).max(axis=(-2, -1), initial=1.0)
        if not symmetric.all():
            raise InvalidMetricError(f"{name}{mapenergy._row(symmetric)} is not symmetric")
    return g if worst == 0.0 else 0.5 * g + 0.5 * g.mT


def _near_symmetric_stack():
    g = np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]), (4, 1, 1))
    g[2, 0, 1] += 4e-13
    return g


def _asymmetric_stack():
    g = _near_symmetric_stack()
    g[1, 1, 0] += 1e-6
    g[3, 0, 1] -= 1e-3
    return g


@pytest.mark.parametrize(
    "g",
    [
        np.array([[2.0, 1.0], [1.0, 2.0]]),
        np.array([[2.0, 0.0, 1.0], [-0.0, 2.0, 0.5], [1.0, 0.5, 3.0]]),
        np.array([[1e8, 1.0], [1.0 + 1e-12, 1.0]]),
        _near_symmetric_stack(),
        _asymmetric_stack(),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 5.0], [-np.inf, 1.0]]]),
    ],
    ids=["exact", "signed-zero-pair", "within-tolerance", "stack-within-tolerance",
         "stack-beyond-tolerance", "nan", "stack-inf-and-asymmetric"],
)
def test_byte_symmetry_test_keeps_the_bits_and_messages_of_the_arithmetic_one(g):
    # Only a metric whose bytes differ from its transpose forms |g - g^T|;
    # every metric gets what forming it for all gave: the same array (g
    # itself when exactly symmetric, +-0.0 included), factor and refusal.
    try:
        expected = _reference_check_metric(g, "domain metric")
    except InvalidMetricError as exc:
        with pytest.raises(InvalidMetricError, match=f"^{re.escape(str(exc))}$"):
            mapenergy._check_metric(g, "domain metric")
        return
    sym, low = mapenergy._check_metric(g, "domain metric")
    assert (sym is g) == (expected is g)
    assert sym.tobytes() == expected.tobytes()
    assert low.tobytes() == np.linalg.cholesky(expected).tobytes()


def test_point_keeps_read_only_copies_of_its_inputs():
    # The spectrum is cached on the point, so the point owns its arrays:
    # writing to the caller's arrays afterwards changes nothing, and its own
    # arrays refuse writes.
    jac = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]])
    dom, cod = np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(3)
    point = PointData(jac, dom, cod)
    before = density_report(point).eps.copy()
    dom[0, 0], jac[1, 1], cod[2, 2] = 4.0, 3.0, 5.0
    np.testing.assert_array_equal(point.domain_metric, [[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(point.jacobian[1], [0.0, 2.0])
    assert point.codomain_metric[2, 2] == 1.0
    np.testing.assert_array_equal(density_report(point).eps, before)
    fresh = PointData([[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]], [[2.0, 1.0], [1.0, 2.0]], np.eye(3))
    np.testing.assert_array_equal(density_report(fresh).eps, before)
    for arr in (point.jacobian, point.domain_metric, point.codomain_metric):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 7.0


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
    # (G = 1e-320 I): the direct path refuses, naming the first bad row.
    jac = np.array([np.eye(2), 1e200 * np.eye(2), np.eye(2)])
    dom = np.array([np.eye(2), np.eye(2), 1e-320 * np.eye(2)])
    stack = PointData(jac, dom, np.array([np.eye(2)] * 3))
    with pytest.raises(ValueError, match=r"^the distortion operator .* row 1 overflows"):
        cauchy_green(stack)
    with pytest.raises(ValueError, match=r"^the distortion operator G\^-1 J\^T H J overflows"):
        cauchy_green(PointData(np.eye(2), 1e-320 * np.eye(2), np.eye(2)))
