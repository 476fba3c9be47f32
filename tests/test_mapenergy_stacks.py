"""Stacks of points in mapenergy: every function broadcasts over leading
axes and must give, row by row, exactly what a call on that row alone
gives; a refusal names the first offending row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpharmonics import mapenergy
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


@settings(max_examples=40)
@given(
    m=st.integers(2, 6),
    extra=st.integers(0, 3),
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
        mapenergy.pullback_metric,
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
    per_row = mapenergy.conformal_scaling_residual(stacked, rho, m // 2)
    alone = [mapenergy.conformal_scaling_residual(s, x, m // 2) for s, x in zip(singles, rho)]
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
    assert mapenergy.r_conformal_check(stack, 2).shape == (2,)
    assert mapenergy.density_report(stack).volume_density.shape == (2,)


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
    with pytest.raises(ValueError, match=r"L\^-T row 2 overflows the float range"):
        mapenergy.density_report(point)
    point = PointData(_eyes(4, 2), _eyes(4, 2), _eyes(4, 2))
    with pytest.raises(ValueError, match="^scale factor row 1 must be positive, got -1.0$"):
        mapenergy.conformal_scaling_residual(point, [1.0, -1.0, 2.0, -3.0], 1)
    with pytest.raises(ValueError, match="^scale factor row 2 1e-200 is out of range"):
        mapenergy.conformal_scaling_residual(point, [1.0, 2.0, 1e-200, 1e200], 1)
    # A complex row makes the whole stack complex: it is refused, not cast.
    with pytest.raises(InvalidMetricError, match="^domain metric has complex entries$"):
        PointData(_eyes(2, 2), _eyes(2, 2) + np.array([0.0, 1j])[:, None, None], _eyes(2, 2))
