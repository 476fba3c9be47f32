import re
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from hpharmonics import cli, mapenergy
from hpharmonics.invariants import MAX_DIM, elementary_invariants_newton, newton_endomorphisms
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


@pytest.mark.parametrize("m", range(1, MAX_DIM + 1))
def test_dyadic_stretches_give_exact_invariants(m):
    # A diagonal J with entries in {0, 1/2, 1, 2} and G = H = I: W = J, and
    # LAPACK returns its singular values exactly, since they differ by powers
    # of two.  Every product and sum of the recursion is then exact too (each
    # e_r needs fewer than 53 bits), so one point's eps, run on Python floats,
    # and each row of a stack, run on arrays, equal the rational e_r, with
    # m - n zero stretches when n < m.
    dyadic = (0.5, 1.0, 2.0, 0.0)
    for n in (m - 1, m):
        jacobians = np.zeros((3, n, m))
        for k, jac in enumerate(jacobians):
            jac[range(n), range(n)] = [dyadic[(i * (k + 1) + k) % 4] for i in range(n)]
        rows = density_report(PointData(jacobians, _eyes(3, m), _eyes(3, n))).eps
        for k, jac in enumerate(jacobians):
            stretches = [Fraction(x) ** 2 for x in np.diagonal(jac)] + [Fraction(0)] * (m - n)
            exact = [sum(map(prod, combinations(stretches, r)), Fraction(0)) for r in range(m + 1)]
            alone = density_report(PointData(jac, np.eye(m), np.eye(n))).eps
            assert [Fraction(x) for x in alone] == exact, (n, k)
            assert [Fraction(x) for x in rows[k]] == exact, (n, k)


def _eyes(rows, m):
    return np.tile(np.eye(m), (rows, 1, 1))


def _full_width_products(values):
    # Reference: each factor updates every e_r at once, e[1:] += v_j * e[:-1],
    # also the terms v_j * 0.0 above the triangle that _product_invariants skips.
    e = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1]))
    e[..., 0, :] = 1.0
    for j in range(values.shape[-2]):
        e[..., 1:, :] = e[..., 1:, :] + values[..., j, None, :] * e[..., :-1, :]
    return e


@pytest.mark.parametrize("m", range(1, MAX_DIM + 1))
def test_product_invariants_match_the_full_width_recursion_bitwise(m):
    # The triangular recursion, on one point's Python floats and on a stack's
    # arrays, gives the bits of the full-width one for the stretches (a column)
    # and for Newton's leave-one-out columns (w_i set to 0 in column i; one
    # point shares their prefixes), with padded zeros first.
    rng = np.random.default_rng(m)
    w = np.sort(rng.uniform(0.0, 2.0, size=(2, 3, m)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, 3, m)))
    w[0, 1, : (m + 1) // 2] = 0.0
    forms = [
        (lambda w: mapenergy._product_invariants(w)[..., None], w[..., None]),
        (mapenergy._leave_one_out, np.where(np.eye(m, dtype=bool), 0.0, w[..., None])),
    ]
    for form, values in forms:
        grid = np.ascontiguousarray(form(w))
        assert grid.tobytes() == _full_width_products(values).tobytes()
        for index in np.ndindex(w.shape[:-1]):
            assert np.ascontiguousarray(form(w[index])).tobytes() == grid[index].tobytes()


def _exact(a):
    # The float matrix ``a`` as exact rationals, a list of rows.
    return [[Fraction(float(x)) for x in row] for row in np.asarray(a)]


def _exact_det(a):
    # Determinant of a rational matrix by elimination; exact, so no pivoting
    # is needed beyond skipping a zero pivot.
    a, det = [row[:] for row in a], Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            factor = a[r][c] / a[c][c]
            a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return det


def _exact_invariants(jac, dom, cod):
    # e_r(A), A = G^{-1} J^T H J, as the sums of the principal r x r minors
    # of A, all in rationals formed from the float inputs.  G^{-1} P is
    # solved column by column with Cramer's rule.
    j, g, h = _exact(jac), _exact(dom), _exact(cod)
    m, n = len(g), len(h)
    p = [[sum(j[a][i] * h[a][b] * j[b][k] for a in range(n) for b in range(n))
          for k in range(m)] for i in range(m)]
    det_g = _exact_det(g)
    a = [[_exact_det([[p[r][k] if c == i else g[r][c] for c in range(m)] for r in range(m)]) / det_g
          for k in range(m)] for i in range(m)]
    minors = [[_exact_det([[a[i][k] for k in sub] for i in sub]) for sub in combinations(range(m), r)]
              for r in range(m + 1)]
    return [sum(row, Fraction(0)) for row in minors]


def _wide_span_point(seed, m, n, log_span, log_cond):
    # J = U diag(s) V^T with s spanning 10^(-log_span/2)..1, G with cond(G)
    # 10^log_cond and H with cond(H) up to 10; the squared stretches of the
    # pair then span about 10^(log_span + log_cond).
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(m, m)))
    jac = (u[:, :m] * 10.0 ** np.linspace(0.0, -log_span / 2, m)) @ v.T
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    dom = (q * 10.0 ** np.linspace(0.0, log_cond, m)) @ q.T
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    cod = (q * 10.0 ** rng.uniform(0.0, 1.0, size=n)) @ q.T
    return PointData(jac, 0.5 * (dom + dom.T), 0.5 * (cod + cod.T))


@pytest.mark.parametrize(
    "seed, m, n, log_span, log_cond",
    [(2, 3, 4, 6, 6), (0, 4, 4, 6, 5.5), (0, 4, 4, 6, 6), (1, 4, 4, 8, 6), (1, 5, 6, 8, 6)],
)
def test_invariants_match_exact_rationals_at_wide_stretch_spans(seed, m, n, log_span, log_cond):
    # Squared stretches spanning 1e11 to 2e13, with cond(G) >= 3e5: every
    # e_r of the shipped path is within 1e-9 of the exact rational value.
    # Eigenvalues of the whitened pullback got e_m off by 1e-5 to 3e-3 here.
    point = _wide_span_point(seed, m, n, log_span, log_cond)
    assert np.linalg.cond(point.domain_metric) >= 1e5
    w = stretch_eigenvalues(point)
    assert w[-1] >= 1e10 * w[0] > 0.0
    exact = _exact_invariants(point.jacobian, point.domain_metric, point.codomain_metric)
    for r, (got, want) in enumerate(zip(density_report(point).eps, exact, strict=True)):
        error = abs(Fraction(float(got)) - want) / want
        assert error <= Fraction(1, 10**9), (r, float(error))


def test_rank_one_point_below_the_domain_dimension_has_exact_zeros():
    # n = 1 < m = 3: W has one singular value, sqrt(3), and the two missing
    # stretches are exact zeros, so e_2, e_3 and the volume density are 0.0
    # bit for bit (the eigenvalues of J^T J gave -1.4e-15 and 2.2e-32).
    point = PointData(np.ones((1, 3)), np.eye(3), np.eye(1))
    report = density_report(point)
    assert report.eps[1] == pytest.approx(3.0, rel=1e-15)
    assert report.eps[0] == 1.0 and report.eps[2] == 0.0 and report.eps[3] == 0.0
    assert report.volume_density == 0.0
    np.testing.assert_array_equal(stretch_eigenvalues(point)[:2], [0.0, 0.0])
    assert stretch_eigenvalues(point)[2] == pytest.approx(3.0, rel=1e-15)
    exact = _exact_invariants(point.jacobian, point.domain_metric, point.codomain_metric)
    assert exact == [1, 3, 0, 0]
    # The right singular vectors fill out Q over the null space too.
    oracle = newton_endomorphisms(cauchy_green(point))
    assert float(np.max(np.abs(report.newton - oracle))) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_invariants_refuse_the_gap_and_newton_tensors_by_name():
    # G = 1e-300 I: the squared stretches are 1e300, so e_1 is finite and e_2
    # overflows.  The gap and the Newton tensors are refused by name, not
    # returned as -inf and inf/nan, and the CLI reports each as null.
    point = PointData(np.eye(2), 1e-300 * np.eye(2), np.eye(2))
    report = density_report(point)
    assert report.eps[1] == pytest.approx(2e300) and report.eps[2] == np.inf
    with pytest.raises(ValueError, match="^the majorisation gap overflows the float range$"):
        majorisation_gap(point)
    with pytest.raises(ValueError, match="^the stack of Newton tensors overflows the float range$"):
        report.newton
    stack = PointData(np.array([np.eye(2)] * 2), np.array([np.eye(2), 1e-300 * np.eye(2)]),
                      np.array([np.eye(2)] * 2))
    with pytest.raises(ValueError, match="^the majorisation gap row 1 overflows the float range$"):
        majorisation_gap(stack)
    with pytest.raises(ValueError, match="^the stack of Newton tensors row 1 overflows"):
        density_report(stack).newton
    doc = cli._density_doc((np.eye(2), 1e-300 * np.eye(2), np.eye(2)), 1)
    assert doc["majorisation_gap"] is None and doc["newton"] is None
    assert doc["eps"][:2] == [1.0, report.eps[1]] and doc["volume_density"] == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m, scale, first_inf", [(4, 1e60, 3), (8, 1e40, 4)])
def test_overflowing_top_invariant_is_inf_on_one_point(m, scale, first_inf):
    # J = scale * I: the squared stretches are finite, but e_r overflows from
    # r = first_inf on.  One point's recursion runs on Python floats, whose
    # product gives inf without raising, so its eps holds inf where a stack
    # row does, bit for bit; the gap and the Newton tensors (whose
    # leave-one-out e_{m-1} overflows too) are still refused by name.
    eye = np.eye(m)
    point = PointData(scale * eye, eye, eye)
    eps = density_report(point).eps
    assert np.isinf(eps).tolist() == [r >= first_inf for r in range(m + 1)]
    assert eps[1] == pytest.approx(m * scale**2)
    stack = PointData(np.array([eye, scale * eye]), _eyes(2, m), _eyes(2, m))
    assert density_report(stack).eps[1].tobytes() == eps.tobytes()
    with pytest.raises(ValueError, match="^the majorisation gap overflows the float range$"):
        majorisation_gap(point)
    with pytest.raises(ValueError, match="^the stack of Newton tensors overflows the float range$"):
        density_report(point).newton
    with pytest.raises(ValueError, match="^the majorisation gap row 1 overflows the float range$"):
        majorisation_gap(stack)
    with pytest.raises(ValueError, match="^the stack of Newton tensors row 1 overflows"):
        density_report(stack).newton


def test_one_eigendecomposition_per_point(monkeypatch):
    # Every density quantity of a point reads one cached values-only SVD of
    # the whitened Jacobian; only the rho^2 G point of the scaling residual
    # takes another, the singular vectors wait for the Newton tensors, and
    # no eigendecomposition runs.
    point = _random_point(np.random.default_rng(7), 4, 5)
    calls = {"_svd": [], "_svd_full": []}

    def counting(name):
        true = getattr(mapenergy, name)

        def call(a, *args, **kwargs):
            calls[name].append(a)
            return true(a, *args, **kwargs)

        return call

    # mapenergy calls the LAPACK gufuncs behind np.linalg.svd directly.
    for name in calls:
        monkeypatch.setattr(mapenergy, name, counting(name))
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, None)
    eigen = [getattr(_umath_linalg, n) for n in dir(_umath_linalg) if n.startswith("eig")]
    assert not [v for v in vars(mapenergy).values() if any(v is e for e in eigen)]
    point = PointData(point.jacobian, point.domain_metric, point.codomain_metric)
    report = density_report(point)
    r_conformal_check(point, 2)
    majorisation_gap(point)
    stretch_eigenvalues(point)
    gram_invariants(point)
    report.alpha
    assert (len(calls["_svd"]), len(calls["_svd_full"])) == (1, 0)
    conformal_scaling_residual(point, 1.7, 2)
    assert (len(calls["_svd"]), len(calls["_svd_full"])) == (2, 0)
    report.newton
    assert (len(calls["_svd"]), len(calls["_svd_full"])) == (2, 1)
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


def test_zero_dimensional_domain_gives_empty_newton_tensors():
    # A domain of dimension m = 0 has the one invariant e_0 = 1 and the one
    # Newton tensor chi_0, a 0 x 0 matrix, at one point and in each row of a stack.
    for lead in ((), (4,)):
        point = PointData(np.zeros(lead + (2, 0)), np.zeros(lead + (0, 0)), np.zeros(lead + (2, 2)) + np.eye(2))
        report = density_report(point)
        assert report.eps.tolist() == np.ones(lead + (1,)).tolist()
        assert report.newton.shape == lead + (1, 0, 0)


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


def test_conformal_check_band_edges_are_the_tolerance_policy():
    # Stretches whose squares are exact floats, and the SVD of a diagonal
    # Jacobian returns them exactly: a spread, or an r-th largest stretch, of
    # exactly TOL * top counts as zero, and one ulp more does not.
    top, low = 1.0013580322265625, 1.0013580317258834
    assert top * top - low * low == 1e-9 * (top * top)
    for s, conformal in ((low, True), (np.nextafter(low, 0.0), False)):
        point = _point(np.diag([s, top]))
        assert stretch_eigenvalues(point).tolist() == [s * s, top * top]
        assert r_conformal_check(point, 1) is conformal
    rth = 3.1622776601683795e-05  # rth^2 is exactly 1e-9
    for s, low_rank in ((rth, True), (np.nextafter(rth, 1.0), False)):
        point = _point(np.diag([s, 1.0]))
        assert stretch_eigenvalues(point).tolist() == [s * s, 1.0]
        assert r_conformal_check(point, 2) is low_rank


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
        # The oracle path and the shipped path alike.
        for eps in (elementary_invariants_newton(cauchy_green(point)), density_report(point).eps):
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
    # The squared stretches overflow: every density quantity refuses instead
    # of returning inf.
    huge = _point(np.diag([1e200, 1.0]))
    for call in (density_report, stretch_eigenvalues, lambda pt: r_conformal_check(pt, 1)):
        with pytest.raises(ValueError, match="overflow the float range"), np.errstate(all="ignore"):
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
    # W = L_H^T J L_G^-T is finite (1e200 and 1e160 I), but its squared
    # singular values are not; the gram_invariants oracle forms B = W^T W.
    point = PointData(jac, dom, np.eye(2))
    calls = (
        density_report,
        stretch_eigenvalues,
        majorisation_gap,
        lambda pt: r_conformal_check(pt, 1),
        lambda pt: conformal_scaling_residual(pt, 1.5, 1),
    )
    message = "^the squared stretches of the whitened Jacobian overflow the float range$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call(point)
    with pytest.raises(ValueError, match="^the whitened pullback .* overflows the float range$"):
        gram_invariants(point)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_whitened_jacobian_is_refused_by_name():
    # L_H^T J itself leaves the float range (1e300 * 1e10): W is refused
    # before its singular values are read.
    point = PointData(1e300 * np.eye(2), np.eye(2), 1e20 * np.eye(2))
    message = r"^the whitened Jacobian L_H\^T J L_G\^-T overflows the float range$"
    for call in (density_report, stretch_eigenvalues):
        with pytest.raises(ValueError, match=message):
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
