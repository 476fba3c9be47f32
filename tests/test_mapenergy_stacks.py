"""Stacks of points in mapenergy: every function broadcasts over leading
axes and must give, row by row, exactly what a call on that row alone
gives; a refusal names the first offending row."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpharmonics import mapenergy
from hpharmonics.invariants import MAX_DIM
from hpharmonics.mapenergy import InvalidMetricError, PointData


def _bits(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _spd(rng, m, log_cond):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    g = (q * 10.0 ** rng.uniform(0.0, log_cond, size=m)) @ q.T
    return 0.5 * (g + g.T)


def _stack(seed, m, n, rows, log_cond, deficient):
    # Rows with cond(G) up to 10^log_cond, cond(H) up to 1e2 and, when
    # ``deficient``, Jacobians of rank below m.
    rng = np.random.default_rng(seed)
    jac, dom, cod = [], [], []
    for _ in range(rows):
        if deficient:
            rank = int(rng.integers(0, m))
            j = rng.uniform(-1.0, 1.0, size=(n, rank)) @ rng.uniform(-1.0, 1.0, size=(rank, m))
        else:
            j = rng.uniform(-1.0, 1.0, size=(n, m)) * 10.0 ** rng.uniform(-1.0, 1.0)
        jac.append(j)
        dom.append(_spd(rng, m, log_cond))
        cod.append(_spd(rng, n, 2.0))
    rho = rng.uniform(0.5, 2.0, size=rows)
    return np.array(jac), np.array(dom), np.array(cod), rho


def _report_fields(point):
    report = mapenergy.density_report(point)
    return [report.alpha, report.eps, report.volume_density, report.newton]


# m runs over every domain dimension, so each length of the product
# recursion on one point's Python floats is pinned against its stack row.
@settings(max_examples=40)
@given(
    m=st.integers(1, MAX_DIM),
    extra=st.integers(-1, 3),  # n = m - 1 pads the stretches with a zero
    rows=st.integers(1, 6),
    log_cond=st.floats(0.0, 6.0),
    deficient=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_calls_match_row_by_row(m, extra, rows, log_cond, deficient, seed):
    jac, dom, cod, rho = _stack(seed, m, m + extra, rows, log_cond, deficient)
    stacked = PointData(jac, dom, cod)
    singles = [PointData(jac[k], dom[k], cod[k]) for k in range(rows)]
    calls = [
        mapenergy.cauchy_green,
        mapenergy.stretch_eigenvalues,
        mapenergy.gram_invariants,
        _report_fields,
        *(lambda pt, r=r: mapenergy.r_conformal_check(pt, r) for r in range(1, m + 1)),
        *(lambda pt, r=r: mapenergy.conformal_scaling_residual(pt, 1.7, r) for r in (1, m)),
    ]
    if m % 2 == 0:
        calls.append(mapenergy.majorisation_gap)
    for fn in calls:
        whole = _outcome(fn, stacked)
        parts = [_outcome(fn, single) for single in singles]
        assert (whole is ValueError) == any(part is ValueError for part in parts)
        if whole is not ValueError:
            if fn is _report_fields:
                for k, field in enumerate(whole):
                    assert _bits(field) == _bits([part[k] for part in parts])
            else:
                assert _bits(whole) == _bits(parts)
    # One scale factor per row, and a two-axis stack of the same rows.
    r = max(m // 2, 1)
    per_row = mapenergy.conformal_scaling_residual(stacked, rho, r)
    alone = [mapenergy.conformal_scaling_residual(s, x, r) for s, x in zip(singles, rho)]
    assert _bits(per_row) == _bits(alone)
    grid = PointData(jac[None], dom[None], cod[None])
    assert _bits(mapenergy.density_report(grid).eps[0]) == _bits(
        [mapenergy.density_report(single).eps for single in singles]
    )


def test_single_point_returns_python_scalars():
    point = PointData(np.diag([1.0, 2.0, 1.0, 1.0]), np.eye(4), np.eye(4))
    assert type(mapenergy.density_report(point).volume_density) is float
    assert type(mapenergy.r_conformal_check(point, 2)) is bool
    assert type(mapenergy.majorisation_gap(point)) is float
    assert type(mapenergy.conformal_scaling_residual(point, 1.7, 2)) is float
    stack = PointData(*(np.stack([a, a]) for a in (point.jacobian, np.eye(4), np.eye(4))))
    for value in (
        mapenergy.r_conformal_check(stack, 2),
        mapenergy.density_report(stack).volume_density,
        mapenergy.majorisation_gap(stack),
        mapenergy.conformal_scaling_residual(stack, 1.7, 2),
    ):
        assert type(value) is np.ndarray and value.shape == (2,)


def _eyes(rows, m):
    return np.tile(np.eye(m), (rows, 1, 1))


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("domain_metric", np.diag([1.0, -1.0]), "domain metric row 3 is not positive-definite"),
        ("domain_metric", np.array([[1.0, 0.5], [0.0, 1.0]]), "domain metric row 3 is not symmetric"),
        ("codomain_metric", np.diag([1.0, np.inf]), "codomain metric row 3 has non-finite entries"),
        ("jacobian", np.diag([1.0, np.nan]), "jacobian row 3 has non-finite entries"),
    ],
)
def test_refusal_names_first_bad_row(field, bad, message):
    arrays = {"jacobian": _eyes(6, 2), "domain_metric": _eyes(6, 2), "codomain_metric": _eyes(6, 2)}
    arrays[field][3] = bad
    arrays[field][5] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        PointData(**arrays)
    # A single point names no row; a two-axis stack names the index pair.
    with pytest.raises(ValueError, match="^" + message.replace(" row 3", "") + "$"):
        PointData(**{key: value[3] for key, value in arrays.items()})
    with pytest.raises(ValueError, match=message.replace("row 3", r"row \(1, 1\)")):
        PointData(**{key: value.reshape(3, 2, 2, 2) for key, value in arrays.items()})


def test_overflow_and_scale_refusals_name_the_row():
    jac = _eyes(4, 2)
    jac[2] *= 1e200
    point = PointData(jac, _eyes(4, 2), _eyes(4, 2))
    with pytest.raises(ValueError, match="^the squared stretches .* row 2 overflow the float range$"):
        mapenergy.density_report(point)
    point = PointData(_eyes(4, 2), _eyes(4, 2), _eyes(4, 2))
    with pytest.raises(ValueError, match="^scale factor row 1 must be positive, got -1.0$"):
        mapenergy.conformal_scaling_residual(point, [1.0, -1.0, 2.0, -3.0], 1)
    with pytest.raises(ValueError, match="^scale factor row 2 1e-200 is out of range"):
        mapenergy.conformal_scaling_residual(point, [1.0, 2.0, 1e-200, 1e200], 1)
    # A complex row makes the whole stack complex: it is refused, not cast.
    with pytest.raises(InvalidMetricError, match="^domain metric has complex entries$"):
        PointData(_eyes(2, 2), _eyes(2, 2) + np.array([0.0, 1j])[:, None, None], _eyes(2, 2))


# ---------------------------------------------------------------------------
# the LAPACK gufuncs behind np.linalg, called without their wrappers
# (numpy.linalg._umath_linalg is private: these tests guard it across numpy
# versions, from the numpy 2.0 floor up)


def _graded_spd(rng, m, log_cond):
    # cond(G) exactly 10^log_cond, eigenvalues spread evenly in log scale.
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    g = (q * 10.0 ** np.linspace(0.0, log_cond, m)) @ q.T
    return 0.5 * (g + g.T)


@pytest.mark.parametrize("m", range(1, 9))
def test_lapack_calls_match_np_linalg_bitwise(m):
    # The factors, the inverse factor and the singular values and right
    # singular vectors of every point's whitened Jacobian are what
    # np.linalg.cholesky, inv and svd return, on one point and on stacks
    # with one and two leading axes, for cond(G) up to 1e8.
    rng = np.random.default_rng(40 + m)
    jac = rng.uniform(-1.0, 1.0, size=(6, m + 1, m))
    dom = np.array([_graded_spd(rng, m, 8.0 * k / 5) for k in range(6)])
    cod = np.array([_spd(rng, m + 1, 2.0) for _ in range(6)])
    for lead in ((), (6,), (2, 3)):
        arrays = (a[-1] if not lead else a.reshape(lead + a.shape[1:]) for a in (jac, dom, cod))
        point = PointData(*arrays)
        low, cod_low = point._domain_factor, point._codomain_factor
        assert _bits(low) == _bits(np.linalg.cholesky(point.domain_metric))
        assert _bits(cod_low) == _bits(np.linalg.cholesky(point.codomain_metric))
        inv_low = np.linalg.inv(low)
        assert _bits(point._inv_domain_factor) == _bits(inv_low)
        whitened = cod_low.mT @ point.jacobian @ inv_low.mT
        spec = point._spectrum
        assert _bits(spec.whitened) == _bits(whitened)
        s = np.linalg.svd(whitened, compute_uv=False)
        assert _bits(spec.w) == _bits(s[..., ::-1] ** 2)
        vt = np.linalg.svd(whitened)[2]
        assert _bits(mapenergy._right_vectors(spec.whitened)) == _bits(vt[..., ::-1, :].mT)


def test_metric_that_does_not_factor_is_refused_by_row():
    # A row whose factor LAPACK fills with NaN is refused by name, the first
    # such row of the stack, and numpy's invalid flag raises no RuntimeWarning.
    bad = _eyes(12, 3).reshape(3, 4, 3, 3)
    bad[1, 2] = np.diag([1.0, 0.0, 1.0])
    bad[2, 0] = -np.eye(3)
    eyes = _eyes(12, 3).reshape(3, 4, 3, 3)
    tiny = np.array([np.eye(2), 1e-300 * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, arrays in (("domain", (eyes, bad, eyes)), ("codomain", (eyes, eyes, bad))):
            message = f"{name} metric row (1, 2) is not positive-definite"
            with pytest.raises(InvalidMetricError, match=f"^{re.escape(message)}$"):
                PointData(*arrays)
            with pytest.raises(InvalidMetricError, match=f"^{name} metric is not positive-definite$"):
                PointData(*(a[1, 2] for a in arrays))
        # rho^2 G underflows to the zero matrix in row 1.
        point = PointData(_eyes(2, 2), tiny, _eyes(2, 2))
        message = "scale factor takes rho^2 G out of the float range: domain metric row 1 is not"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} positive-definite$"):
            mapenergy.conformal_scaling_residual(point, [1.0, 1e-20], 1)


def test_unconverged_eigendecomposition_is_refused(monkeypatch):
    # LAPACK fills the singular values, or the singular vectors, of a row
    # that does not converge with NaN.
    true_svd, true_svd_full = mapenergy._svd, mapenergy._svd_full

    def values_unconverged(w, signature):
        s = true_svd(w, signature=signature)
        s[(1,) if s.ndim > 1 else ()] = np.nan
        return s

    def vectors_unconverged(w, signature):
        u, s, vt = true_svd_full(w, signature=signature)
        vt[(1,) if vt.ndim > 2 else ()] = np.nan
        return u, s, vt

    single = (np.eye(2), np.eye(2), np.eye(2))
    stack = (_eyes(3, 2), _eyes(3, 2), _eyes(3, 2))
    monkeypatch.setattr(mapenergy, "_svd", values_unconverged)
    name = "the singular values of the whitened Jacobian"
    with pytest.raises(ValueError, match=f"^{name} did not converge$"):
        mapenergy.density_report(PointData(*single))
    with pytest.raises(ValueError, match=f"^{name} row 1 did not converge$"):
        mapenergy.stretch_eigenvalues(PointData(*stack))
    monkeypatch.setattr(mapenergy, "_svd", true_svd)
    monkeypatch.setattr(mapenergy, "_svd_full", vectors_unconverged)
    name = "the singular vectors of the whitened Jacobian"
    with pytest.raises(ValueError, match=f"^{name} did not converge$"):
        mapenergy.density_report(PointData(*single)).newton
    with pytest.raises(ValueError, match=f"^{name} row 1 did not converge$"):
        mapenergy.density_report(PointData(*stack)).newton
