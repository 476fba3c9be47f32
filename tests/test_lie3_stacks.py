"""Stacks of triples in lie3: every function broadcasts over leading axes
and must give, row by row, exactly what a call on that row alone gives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpharmonics import invariants, lie3, mapenergy, verify
from hpharmonics.lie3 import MilnorData, SubsetDescriptor

E = np.eye(3)


# ---------------------------------------------------------------------------
# stacked calls against row-by-row calls
# ---------------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # PreconditionError included
        return type(exc)


def _assert_rows_match(fn, stacked_args, row_args):
    """fn on the stack equals fn on each row, bit for bit; a stack refuses
    exactly when some row refuses."""
    stacked = _outcome(fn, *stacked_args)
    rows = [_outcome(fn, *args) for args in row_args]
    refused = [row for row in rows if isinstance(row, type)]
    if isinstance(stacked, type):
        assert refused, (fn.__name__, stacked)
        return
    assert not refused, (fn.__name__, refused)
    assert _bits(stacked) == _bits(rows), fn.__name__


_SCALES = st.one_of(
    st.just(1.0),
    st.integers(-60, 60).map(lambda k: 2.0**k),
    st.floats(-120.0, 120.0).map(lambda u: 10.0**u),
)
# Generic draws, and class representatives scaled, permuted and flipped.
_LAMBDAS = st.one_of(
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    st.tuples(
        st.sampled_from(verify.CLASS_REPRESENTATIVES),
        _SCALES,
        st.permutations(range(3)),
        st.sampled_from([1.0, -1.0]),
    ).map(lambda t: tuple(np.asarray(t[0])[list(t[2])] * (t[1] * t[3]))),
)
_SIGMAS = st.one_of(
    st.sampled_from([tuple(s * E[k]) for k in range(3) for s in (1.0, -1.0)]),
    st.tuples(st.integers(0, 2), st.floats(0.0, 6.283)).map(
        lambda t: tuple(np.roll([np.cos(t[1]), np.sin(t[1]), 0.0], t[0]))
    ),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)


_DRAWS = st.lists(
    st.tuples(_LAMBDAS, _SIGMAS, st.sampled_from([0.05, 0.5, 20.0])), min_size=1, max_size=6
)
_PER_FIELD = (
    lie3.grad_norm_sq,
    lie3.wedge_norm_sq,
    lie3.tension_t1,
    lie3.tension_t2,
    lie3.vertical_cauchy_green,
    lie3.vertical_invariants,
    lie3.vertical_newton_1,
    lie3.vertical_newton_2,
    lie3.in_h1,
    lie3.in_h2,
    lie3.in_z1,
    lie3.in_z2,
)


# A fixed rotation, det 1, for the engine's frame.
_Q = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
_Q = _Q * np.sign(np.linalg.det(_Q))


@settings(max_examples=40)
@given(_DRAWS)
def test_stacked_calls_match_row_calls_bitwise(draws):
    lam = np.array([d[0] for d in draws])
    raw_sigma = np.array([d[1] for d in draws])
    sigma = raw_sigma / np.sqrt(np.vecdot(raw_sigma, raw_sigma))[:, None]
    coupling = np.array([d[2] for d in draws])
    with np.errstate(all="ignore"):
        md = MilnorData.normalize(lam)
        rows = [MilnorData.normalize(row) for row in lam]

        # normalize: every field, row by row, and mu, rho of lam / 2^e.
        for name in ("lam", "mu", "ricci", "sectional", "scaled"):
            assert _bits(getattr(md, name)) == _bits([getattr(r, name) for r in rows]), name
        unit, unit_rows = _unit_geometry(md), [_unit_geometry(r) for r in rows]
        for name in ("mu", "ricci"):
            assert _bits(getattr(unit, name)) == _bits([getattr(u, name) for u in unit_rows]), name
        for name in ("algebra_class", "flat", "ricci_kernel_dim", "sign_flipped", "mu_pattern"):
            assert getattr(md, name).tolist() == [getattr(r, name) for r in rows], name
        assert [tuple(p) for p in md.permutation.tolist()] == [r.permutation for r in rows]
        permuted = md.permute(raw_sigma)
        assert _bits(permuted) == _bits([r.permute(s) for r, s in zip(rows, raw_sigma)])

        # Each case is a function and its stacked arguments; the call on row
        # k takes row k of the geometry and of every array.
        zeta = raw_sigma[::-1] - np.vecdot(raw_sigma[::-1], sigma)[:, None] * sigma
        tensors = np.broadcast_to(np.outer(raw_sigma[0], sigma[-1]), (len(rows), 3, 3))
        # The connection engine in one rotated frame: L = Q^T diag(lam) Q.
        structure = _Q.T @ (md.lam[:, :, None] * _Q)
        cases = [(fn, (md, sigma)) for fn in _PER_FIELD] + [
            (lie3.is_eigendirection, (md.lam, sigma)),
            (lie3.in_skyrmion_locus, (md, sigma, coupling)),
            (lie3.divergence_invariant_tensor, (md, tensors)),
        ]
        cases += [(lie3.tension_assembled, (md, sigma, r)) for r in (1, 2)]
        cases += [(lie3._frame_vertical, (structure, sigma, r)) for r in (1, 2)]
        cases += [(lie3._frame_horizontal, (structure, sigma, r)) for r in (1, 2)]
        cases += [(lie3.first_variation_fd, (md, sigma, zeta, r)) for r in (1, 2)]
        cases += [(lie3.horizontal_tension, (md, sigma, r)) for r in (1, 2, 3)]
        for fn, args in cases:
            row_args = [
                [rows[k] if a is md else a[k] if isinstance(a, np.ndarray) else a for a in args]
                for k in range(len(rows))
            ]
            _assert_rows_match(fn, args, row_args)
        # The degree-3 horizontal engine on the rows in H1.
        on = np.flatnonzero(lie3.in_h1(md, sigma))
        row_args = [(structure[k], sigma[k], 3) for k in on]
        _assert_rows_match(lie3._frame_horizontal, (structure[on], sigma[on], 3), row_args)

        # check_predicates: a row reported as None is nan in the stack.
        verdicts = ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")
        values = (("vertical_tension", [np.nan] * 3), ("horizontal_tension", [np.nan] * 3))
        values += (("vertical_energy", np.nan),)
        for r in (1, 2, 3):
            report = lie3.check_predicates(md, sigma, r, coupling=0.5)
            singles = [lie3.check_predicates(rw, s, r, coupling=0.5) for rw, s in zip(rows, sigma)]
            for name in verdicts:
                assert getattr(report, name).tolist() == [getattr(x, name) for x in singles]
            for name, nan in values:
                expected = [nan if getattr(x, name) is None else getattr(x, name) for x in singles]
                assert _bits(getattr(report, name)) == _bits(expected), (name, r)


# ---------------------------------------------------------------------------
# the row kernel of MilnorData.normalize against its list-based form
# ---------------------------------------------------------------------------


def _int_bits(values) -> list:
    return np.array(values, dtype=float).view(np.int64).tolist()


def _unit_geometry(md):
    # The geometry of lam / 2^e, 2^e ~ max |lam_i|, on which the kernel
    # decides every verdict: its mu and rho bit for bit.
    e = np.frexp(np.abs(md.lam).max(-1, keepdims=True))[1]
    return MilnorData.normalize(np.ldexp(md.lam, -e))


def _reference_tie_mask(values):
    # Entry k: the two entries other than k coincide against the largest |entry|.
    vals = np.asarray(values).tolist()
    top = max(map(abs, vals))
    return [abs(vals[i] - vals[j]) <= lie3.TOL * top for i, j in ((1, 2), (0, 2), (0, 1))]


def _reference_zero_mask(values):
    mags = [abs(v) for v in values]
    top = max(mags)
    return [m <= lie3.TOL * top for m in mags]


def _reference_geometry(lam):
    half_sum = 0.5 * sum(lam)
    m0, m1, m2 = (half_sum - v for v in lam)
    r0, r1, r2 = 2.0 * (m1 * m2), 2.0 * (m0 * m2), 2.0 * (m0 * m1)
    k23, k13, k12 = 0.5 * (r1 + r2 - r0), 0.5 * (r0 + r2 - r1), 0.5 * (r0 + r1 - r2)
    return [*lam, m0, m1, m2, r0, r1, r2, k23, k13, k12]


def _reference_normalize_row(vals):
    # The list-based row kernel that the straight-line one replaced, kept
    # frozen as its oracle.
    e = math.frexp(max(map(abs, vals)))[1]
    unit = [math.ldexp(v, -e) for v in vals]
    kept = [v for v, zero in zip(unit, _reference_zero_mask(unit)) if not zero]
    npos, nneg = sum(v > 0 for v in kept), sum(v < 0 for v in kept)
    sign = -1.0 if nneg > npos else 1.0
    order = sorted(range(3), key=lambda i: -sign * vals[i])
    numbers = _reference_geometry([sign * vals[i] for i in order])
    unit_lam = [sign * unit[i] for i in order]
    unit_mu = _reference_geometry(unit_lam)[3:6]
    kernel = lie3._KERNEL_BY_ZERO_MU[sum(_reference_zero_mask(unit_mu))]
    label = lie3._CLASS_BY_SIGNS[max(npos, nneg), min(npos, nneg)]
    return numbers, label, kernel, tuple(order), sign < 0.0, unit_lam, unit_mu


_SIGNED = st.sampled_from([1.0, -1.0])
_MAGNITUDES = st.tuples(st.floats(-300.0, 300.0), _SIGNED).map(lambda t: t[1] * 10.0 ** t[0])
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5), _MAGNITUDES)
_ROWS = st.one_of(
    _LAMBDAS,
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES),
    # Exact ties: three entries out of two values.
    st.tuples(_ENTRIES, _ENTRIES).flatmap(lambda ab: st.tuples(*[st.sampled_from(ab)] * 3)),
    # An entry, or a mu = (a + b - c) / 2, within a few TOL of zero.
    st.tuples(_MAGNITUDES, st.floats(-1.5, 1.5), st.floats(-3.0, 3.0)).flatmap(
        lambda t: st.permutations(
            [t[0], t[0] * t[1], t[0] * t[2] * lie3.TOL]
            if t[1] < 0.0
            else [t[0], t[0] * t[1], t[0] * (1.0 + t[1]) * (1.0 + t[2] * lie3.TOL)]
        )
    ),
    # The near-flat triple, scaled, permuted and flipped.
    st.tuples(st.integers(-300, 300), st.permutations([0.0, 1.0, 1.000000000000341]), _SIGNED).map(
        lambda t: [t[2] * 10.0 ** t[0] * v for v in t[1]]
    ),
)


@settings(max_examples=600)
@given(_ROWS)
@example([0.0, 1.0, 1.000000000000341])
@example([-0.0, 0.0, -0.0])
@example([0.0, -0.0, -1e-300])
@example([1.0, 1.0, 1.0])
@example([-2.0, -2.0, 1.0])
@example([1.0, 1e-9, -1e-9])
@example([1e-300, -1e-300, 5e-301])
@example([1e155, 1e155, -1e155])
@example([1e300, -1e300, 3e299])
@example([1.000001e-6, 1.000000000001, 1.000001])
@example([1.0, -1e-10, -1.0])  # max |mu| = -mu_1 = 1 + 5e-11 > mu_3
@example([0.3, 1.0, 1.0000000001])  # lam ties within TOL, mu^2 do not
@example([-2.0, 1.0, -2.0])
def test_normalize_row_matches_the_list_form_bitwise(row):
    row = [float(v) for v in row]
    numbers, *facts = lie3._normalize_row(row)
    expected, *expected_facts, unit_lam, unit_mu = _reference_normalize_row(row)
    assert len(numbers) == 18 and len(facts) == 7
    # Bit patterns, so that signed zeros, inf and nan compare exactly.
    assert _int_bits(numbers[:12]) == _int_bits(expected)
    assert facts[:4] == expected_facts
    assert [type(fact) for fact in facts[:4]] == [type(fact) for fact in expected_facts]
    # The rest against the numpy forms the rules read before the kernel
    # decided them, evaluated on the reference numbers.
    _, mu, _, sectional = np.array(expected).reshape(4, 3)
    unit_mu = np.array(unit_mu)
    e = np.frexp(np.abs(mu).max(-1, keepdims=True))[1]
    replaced = [np.ldexp(mu, -e), np.ldexp(sectional, -2 * e)]
    assert _int_bits(numbers[12:]) == _int_bits(np.concatenate(replaced))
    assert facts[4] == e.item() and type(facts[4]) is int
    flags = _reference_zero_mask(unit_mu.tolist()) + _reference_tie_mask(unit_mu**2)
    assert facts[5] == sum(flag << (5 - k) for k, flag in enumerate(flags))
    # The tie mask of lam / 2^e, which fixes the harmonic-map locus.
    assert facts[6] == sum(flag << (2 - k) for k, flag in enumerate(_reference_tie_mask(unit_lam)))
    assert type(facts[5]) is int and type(facts[6]) is int


# ---------------------------------------------------------------------------
# the locus rules against frozen copies: membership in descriptors read off
# masks that numpy computes from the unit-scale geometry
# ---------------------------------------------------------------------------


def _frozen_eigendirections(values):
    # The unit eigenvectors of diag(values), read off its tie mask.
    equal = _reference_tie_mask(values)
    if sum(equal) >= 2:
        return SubsetDescriptor.sphere()
    if any(equal):
        return lie3._CIRCLES_AND_POLES[equal.index(True)]
    return SubsetDescriptor.polar_set()


def _frozen_loci(md):
    # The frozen classify_sets, with the harmonic-map locus of r = 1, 2 from
    # the ties of lam / 2^e.
    loci = _frozen_classify_sets(md)
    loci["map"] = _frozen_eigendirections(_unit_geometry(md).lam)
    return loci


def _frozen_contains(descriptor, arr):
    # Membership by member weights: for some member (PolarSet: its pairs),
    # every coefficient of weight 1, one it requires to vanish, is at most TOL.
    members = descriptor.members or (descriptor,)
    members = [p for m in members for p in (lie3._PAIRS if m.kind == "PolarSet" else (m,))]
    weights = [[m.kind != "Sphere" and k not in m.indices for k in (1, 2, 3)] for m in members]
    weights = np.array([w for w, m in zip(weights, members) if m.kind != "Empty"], float)
    return np.bool_((np.abs(arr) * weights.reshape(-1, 3) <= lie3.TOL).all(-1).any())


def _frozen_in(md, arr, key):
    # Membership in the frozen locus ``key``, row by row.
    if md.lam.ndim == 1:
        return _frozen_contains(_frozen_loci(md)[key], arr)
    rows = [MilnorData.normalize(lam) for lam in md.lam]
    return np.array([_frozen_contains(_frozen_loci(row)[key], a) for row, a in zip(rows, arr)])


def _frozen_horizontal(md, arr, r):
    # mu and K rescaled by np.frexp of max |mu| on every call.
    cross = lie3._cross
    e = np.frexp(np.abs(md.mu).max(-1, keepdims=True))[1]
    mu, sectional = np.ldexp(md.mu, -e), np.ldexp(md.sectional, -2 * e)
    s1 = mu * arr
    if r == 1:
        return np.ldexp(cross(sectional * arr, s1), 3 * e)
    (delta, c), *second = lie3._newton_parts(md, arr, r - 1)
    delta = delta + (2.0 if r == 2 else 1.0)
    for delta2, c2 in second:
        delta, c = delta + delta2, c + c2
    c = np.asarray(c)[..., None]
    out = cross(sectional * arr, delta * s1)
    s2 = mu * s1
    bend = cross(s1, sectional * cross(arr, cross(s2, arr)))
    bent = out + c * (cross(s2, s1) + np.ldexp(bend, 2 * e))
    if r == 3:
        bent = np.where(c == 0.0, out, bent)
    return np.ldexp(bent, 3 * e)


def _frozen_report(md, arr, r):
    h1 = _frozen_in(md, arr, "H1")
    with np.errstate(over="ignore", invalid="ignore"):
        if r < 3:
            vertical, energy = lie3._vertical(md, arr, r)
            parallel = _frozen_in(md, arr, f"Z{r}")
            harmonic_unit = h1 if r == 1 else h1 | parallel
            harmonic_map = _frozen_in(md, arr, "map")
            horizontal = _frozen_horizontal(md, arr, r)
        else:
            energy = np.zeros(np.shape(h1))
            vertical = np.zeros(energy.shape + (3,))
            parallel = harmonic_unit = h1 | True
            harmonic_map, horizontal = h1, vertical + np.nan
            if np.count_nonzero(h1):
                on = np.asarray(h1)[..., None]
                horizontal = np.where(on, _frozen_horizontal(md, arr * on, 3), horizontal)
    scalar = invariants._scalars
    return (
        scalar(parallel),
        scalar(harmonic_unit),
        scalar(h1),
        scalar(harmonic_map),
        lie3._reported(vertical, True),
        lie3._reported(horizontal, True),
        lie3._reported(energy, False),
    )


def _frozen_classify_sets(md):
    unit_mu = _unit_geometry(md).mu
    mu_zero = _reference_zero_mask(unit_mu.tolist())
    zeros = sum(mu_zero)
    h1 = _frozen_eigendirections(unit_mu**2)
    empty, sphere = SubsetDescriptor.empty(), SubsetDescriptor.sphere()
    if zeros >= 2:
        z1, z2, h2 = (lie3._PAIRS[mu_zero.index(False)] if zeros == 2 else sphere), sphere, sphere
    elif zeros == 1:
        k = mu_zero.index(True)
        z1, z2, h2 = empty, lie3._CIRCLES[k], lie3._CIRCLES_AND_POLES[k]
        if h1 in lie3._CIRCLES_AND_POLES and h1 != h2:
            members = sorted((z2, h1.members[0]), key=lie3._CIRCLES.index)
            h2 = SubsetDescriptor.union(*members)
    else:
        z1, z2, h2 = empty, empty, h1
    return {"H1": h1, "H2": h2, "H3": sphere, "Z1": z1, "Z2": z2, "Z3": sphere}


def _same(got, expected) -> bool:
    # Equal type and bits; None only for None.
    if got is None or expected is None:
        return got is expected
    if type(got) is not type(expected):
        return False
    if isinstance(got, np.ndarray):
        same_bits = _bits(got) == _bits(expected)
        return got.shape == expected.shape and got.dtype == expected.dtype and same_bits
    return _int_bits([got]) == _int_bits([expected])


_CORNERS = ((1.000001e-6, 1.000000000001, 1.000001), (0.0, 1.0, 1.000000000000341))
_CORNER_SIGMAS = ((0.6, 0.8, 0.0), (0.0, 0.6, 0.8), (0.6, 0.0, 0.8), (0.0, 0.0, 1.0))


@settings(max_examples=150)
@given(st.lists(st.tuples(_ROWS, _SIGMAS), min_size=1, max_size=5))
@example([(lam, sigma) for lam in _CORNERS for sigma in _CORNER_SIGMAS])
@example([(tuple(1e-170 * v for v in _CORNERS[1]), (0.6, 0.8, 0.0))])
def test_rules_match_their_frozen_numpy_forms(draws):
    lam = np.array([d[0] for d in draws], dtype=float)
    raw_sigma = np.array([d[1] for d in draws], dtype=float)
    sigma = raw_sigma / np.sqrt(np.vecdot(raw_sigma, raw_sigma))[:, None]
    md = MilnorData.normalize(lam)
    rows = [MilnorData.normalize(row) for row in lam]
    cases = [(md, sigma)] + list(zip(rows, sigma))
    for geometry, arr in cases:
        for rule, frozen in (
            (lie3.in_h1, lambda g, a: _frozen_in(g, a, "H1")),
            (lie3.in_z1, lambda g, a: _frozen_in(g, a, "Z1")),
            (lie3.in_z2, lambda g, a: _frozen_in(g, a, "Z2")),
            (lambda g, a: lie3.in_skyrmion_locus(g, a, 0.5), lambda g, a: _frozen_in(g, a, "H1")),
        ):
            assert _same(rule(geometry, arr), frozen(geometry, arr)), (rule, geometry.lam, arr)
        for r in (1, 2, 3):
            report = lie3.check_predicates(geometry, arr, r)
            got = (report.r_parallel, report.r_harmonic_unit, report.twisted_2_skyrmion)
            got += (report.r_harmonic_map, report.vertical_tension, report.horizontal_tension)
            got += (report.vertical_energy,)
            expected = _frozen_report(geometry, arr, r)
            assert all(map(_same, got, expected)), (r, geometry.lam, arr, got, expected)
    for row in rows:
        assert lie3.classify_sets(row) == _frozen_classify_sets(row), row.lam


# lam_i = mu_j + mu_k from mu with two, or one, entries small against the
# third (down to exact zeros), and the near-flat triple (0, 1, 1 + delta);
# each permuted, flipped and scaled by 2^k or 10^u.
_SMALL = st.one_of(
    st.just(0.0), st.tuples(st.floats(-15.0, -4.0), _SIGNED).map(lambda t: t[1] * 10.0 ** t[0])
)
_NEAR_ZERO_MU = st.one_of(
    st.tuples(_SMALL, _SMALL, st.floats(0.5, 2.0)),
    st.tuples(_SMALL, st.floats(-2.0, 2.0), st.floats(0.5, 2.0)),
).map(lambda mu: (mu[1] + mu[2], mu[0] + mu[2], mu[0] + mu[1]))
_NEAR_FLAT = _SMALL.map(lambda d: (0.0, 1.0, 1.0 + d))
# Two entries of lam within a few TOL of each other, or tied exactly.
_NEAR_TIE = st.tuples(
    st.floats(0.5, 2.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.floats(-2.0, 2.0)
).map(lambda t: (t[0], t[0] * (1.0 + t[1] * lie3.TOL), t[2]))
_ZERO_LOCUS_SCALES = st.one_of(
    st.integers(-1000, 1000).map(lambda k: 2.0**k),
    st.integers(-300, 300).map(lambda u: 10.0**u),
)
_ZERO_LOCUS_LAMBDAS = st.tuples(
    st.one_of(_NEAR_ZERO_MU, _NEAR_FLAT, _NEAR_TIE),
    _ZERO_LOCUS_SCALES,
    st.permutations(range(3)),
    _SIGNED,
).map(lambda t: tuple(t[3] * t[1] * np.asarray(t[0])[list(t[2])]))
# Unit fields whose small coordinates fall in the TOL band, or vanish.
_BAND = st.one_of(
    st.just(0.0), st.tuples(st.floats(-12.0, -7.0), _SIGNED).map(lambda t: t[1] * 10.0 ** t[0])
)
_BAND_SIGMAS = st.one_of(
    st.tuples(st.floats(0.1, 1.0), _BAND, _BAND).flatmap(st.permutations),
    st.tuples(st.floats(0.1, 1.0), st.floats(-1.0, 1.0), _BAND).flatmap(st.permutations),
    _SIGMAS,
)
_ZERO_LOCUS_CORNERS = (
    (0.0, 1.0, 1.000000000000341),
    (1.0, 1.0, 1e-10),
    (1.0, 1.0000000001, 0.0),
    (1.000001e-6, 1.000000000001, 1.000001),
    (2.0, 1.0, -1.0),
    # Ties of lam, which fix the harmonic-map locus, and a generic triple.
    (2.0, 2.0, 1.0),
    (1.0, 1.0, 0.5),
    (1.0, 1.0 + 1e-10, 0.3),
    (3.0, 2.0, 0.5),
)
_ZERO_LOCUS_SIGMAS = (
    (1.0, 0.0, 0.0),
    (0.0, 0.6, 0.8),
    (0.6, 0.8, 0.0),
    (1.0, 1e-9, 0.0),
    (1.0, 3e-10, 2e-10),
    (1e-8, 1.0, 0.0),
)


def _map_locus(md):
    # The harmonic-map locus at r = 1, 2: the eigenvectors of diag(lam), read
    # off the ties of lam / 2^e, the exact rescaling to max |lam| ~ 1.
    return _frozen_eigendirections(_unit_geometry(md).lam)


@settings(max_examples=200)
@given(st.lists(st.tuples(_ZERO_LOCUS_LAMBDAS, _BAND_SIGMAS), min_size=1, max_size=6))
@example([(lam, sigma) for lam in _ZERO_LOCUS_CORNERS for sigma in _ZERO_LOCUS_SIGMAS])
@example(
    [
        (tuple(scale * v for v in lam), sigma)
        for lam in _ZERO_LOCUS_CORNERS
        for scale in (1e-300, 1e300)
        for sigma in ((1.0, 1e-9, 0.0), (1.0, 3e-10, 2e-10))
    ]
)
def test_zero_locus_rules_are_descriptor_membership(draws):
    # One rule per locus: every locus rule and every check_predicates verdict
    # is membership in its descriptor, on stacks and rows.  Z1, Z2 and H1, H2
    # are those of classify_sets; the map locus at r = 1, 2 is built here.
    lam = np.array([d[0] for d in draws], dtype=float)
    raw_sigma = np.array([d[1] for d in draws], dtype=float)
    sigma = raw_sigma / np.sqrt(np.vecdot(raw_sigma, raw_sigma))[:, None]
    with np.errstate(all="ignore"):
        md = MilnorData.normalize(lam)
        rows = [MilnorData.normalize(row) for row in lam]
        loci = [dict(lie3.classify_sets(row), map=_map_locus(row)) for row in rows]

        def members(key):
            return [locus[key].contains(s) for locus, s in zip(loci, sigma)]

        rules = [
            (lie3.in_z1, "Z1"),
            (lie3.in_z2, "Z2"),
            (lie3.in_h1, "H1"),
            (lie3.in_h2, "H2"),
            (lambda g, s: lie3.in_skyrmion_locus(g, s, 0.5), "H1"),
        ]
        for rule, key in rules:
            expected = members(key)
            assert rule(md, sigma).tolist() == expected, (key, lam, sigma)
            for row, s, want in zip(rows, sigma, expected):
                assert bool(rule(row, s)) is want, (key, row.lam, s)
        for r in (1, 2, 3):
            stacked = lie3.check_predicates(md, sigma, r)
            singles = [lie3.check_predicates(row, s, r) for row, s in zip(rows, sigma)]
            verdicts = {
                "r_parallel": f"Z{r}",
                "r_harmonic_unit": f"H{r}",
                "twisted_2_skyrmion": "H1",
                "r_harmonic_map": "map" if r < 3 else "H1",
            }
            for name, key in verdicts.items():
                expected = members(key)
                assert getattr(stacked, name).tolist() == expected, (name, r, lam, sigma)
                assert [getattr(x, name) for x in singles] == expected, (name, r, lam, sigma)


def test_single_triples_keep_python_scalars():
    md = MilnorData.normalize((2.0, 1.0, -1.0))
    assert type(md.algebra_class) is str and type(md.flat) is bool
    assert type(md.ricci_kernel_dim) is int and type(md.sign_flipped) is bool
    assert md.permutation == (0, 1, 2)
    report = lie3.check_predicates(md, E[1], 2)
    assert all(
        type(getattr(report, name)) is bool
        for name in ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")
    )
    assert type(report.vertical_energy) is float
    assert type(lie3.grad_norm_sq(md, E[0])) is float
    assert type(lie3.first_variation_fd(md, E[0], E[1], 1)) is float
    off_h1 = np.array([0.6, 0.0, 0.8])
    assert lie3.check_predicates(md, off_h1, 3).horizontal_tension is None

    # Every degree, on H1 and off it, and at a scale where the tensions and
    # the degree-2 density overflow: a single field gets Python bools, a
    # float or None, and (3,) arrays or None.
    verdicts = ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")
    huge = MilnorData.normalize((2e120, 1e120, -1e120))
    for geometry in (md, huge):
        for sigma in (E[1], off_h1):
            for r in (1, 2, 3):
                report = lie3.check_predicates(geometry, sigma, r)
                assert all(type(getattr(report, name)) is bool for name in verdicts)
                energy = report.vertical_energy
                assert energy is None or type(energy) is float
                for name in ("vertical_tension", "horizontal_tension"):
                    value = getattr(report, name)
                    assert value is None or (type(value) is np.ndarray and value.shape == (3,))
    overflow = lie3.check_predicates(huge, off_h1, 2)
    assert overflow.vertical_tension is None and overflow.vertical_energy is None
    assert overflow.horizontal_tension is None
    overflow = lie3.check_predicates(huge, off_h1, 1)
    assert type(overflow.vertical_tension) is np.ndarray and overflow.horizontal_tension is None
    assert lie3.check_predicates(huge, E[1], 3).horizontal_tension is None  # on H1

    # A stack of four rows gets bool arrays, a float array and (4, 3) arrays.
    stack = MilnorData.normalize([(2.0, 1.0, -1.0), (2e120, 1e120, -1e120), (1.0, 1.0, 1.0), (1.0, 0.0, -1.0)])
    sigmas = np.array([E[1], off_h1, off_h1, E[0]])
    for r in (1, 2, 3):
        report = lie3.check_predicates(stack, sigmas, r)
        for name in verdicts:
            value = getattr(report, name)
            assert type(value) is np.ndarray and value.dtype == bool and value.shape == (4,)
        assert report.vertical_energy.dtype == float and report.vertical_energy.shape == (4,)
        for name in ("vertical_tension", "horizontal_tension"):
            value = getattr(report, name)
            assert value.dtype == float and value.shape == (4, 3)


def test_normalize_and_check_build_frozen_dataclasses():
    # MilnorData, PredicateReport and DensityReport skip their generated
    # __init__; they stay frozen dataclasses with the same fields, equality and repr.
    md = MilnorData.normalize((2.0, 1.0, -1.0))
    stack = MilnorData.normalize([(2.0, 1.0, -1.0), (3.0, -1.0, 0.5)])
    names = {
        MilnorData: [
            "lam", "mu", "ricci", "sectional", "algebra_class", "flat", "ricci_kernel_dim",
            "permutation", "sign_flipped", "scaled", "mu_exponent", "mu_pattern", "lam_ties",
        ],
        lie3.PredicateReport: [
            "r", "coupling", "r_parallel", "r_harmonic_unit", "twisted_2_skyrmion",
            "r_harmonic_map", "vertical_tension", "horizontal_tension", "vertical_energy",
        ],
        mapenergy.DensityReport: ["eps", "volume_density", "_point"],
    }
    built = [md, stack] + [lie3.check_predicates(md, E[1], r) for r in (1, 2, 3)]
    built.append(lie3.check_predicates(stack, np.array([E[1], E[0]]), 2))
    jac = np.array([[[1.0, 0.5], [0.0, 2.0]], [[0.3, 0.0], [1.0, 1.0]]])
    dom = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]]])
    points = [mapenergy.PointData(jac, dom, dom), mapenergy.PointData(jac[1], dom[1], dom[0])]
    built += [mapenergy.density_report(point) for point in points]
    for obj in built:
        fields = dataclasses.fields(obj)
        assert [f.name for f in fields] == names[type(obj)]
        for field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, None)
        rebuilt = type(obj)(**{f.name: getattr(obj, f.name) for f in fields})
        assert rebuilt == obj and repr(rebuilt) == repr(obj)
        if isinstance(obj, mapenergy.DensityReport):
            # The lazily formed tensors read the same point either way.
            for name in ("alpha", "newton"):
                assert getattr(obj, name).tobytes() == getattr(rebuilt, name).tobytes()
    for geometry in (md, stack):
        for name in ("lam", "mu", "ricci", "sectional", "scaled"):
            array = getattr(geometry, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 0.0


def test_stacks_broadcast_against_single_geometry():
    # One geometry against many fields, and a (K, 1, 3) stack of geometries
    # against (K, N, 3) fields, as the battery's skyrmion property uses.
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(4, 5, 3))
    samples /= np.linalg.norm(samples, axis=-1, keepdims=True)
    lam = rng.uniform(-1.5, 1.5, size=(4, 3))
    md = MilnorData.normalize(lam[:, None, :])
    assert md.mu.shape == (4, 1, 3) and md.flat.shape == (4, 1)
    got = lie3.in_h1(md, samples)
    for k in range(4):
        single = MilnorData.normalize(lam[k])
        assert got[k].tolist() == [bool(lie3.in_h1(single, s)) for s in samples[k]]
        stacked = lie3.tension_t1(md, samples)[k]
        np.testing.assert_array_equal(lie3.tension_t1(single, samples[k]), stacked)


# ---------------------------------------------------------------------------
# interned descriptors
# ---------------------------------------------------------------------------


def test_classify_sets_builds_no_descriptor(monkeypatch):
    built = []
    true_post_init = SubsetDescriptor.__post_init__

    def counting(self):
        built.append(self)
        true_post_init(self)

    monkeypatch.setattr(SubsetDescriptor, "__post_init__", counting)
    for rep in verify.CLASS_REPRESENTATIVES + ((1e200, 1e200, -1e200), (2e-170, 1e-170, -1e-170)):
        sets = lie3.classify_sets(rep)
        assert not built, rep
        assert sets["H3"] is SubsetDescriptor.sphere()
    members = (SubsetDescriptor.circle(1, 3), SubsetDescriptor.polar_pair(2))
    assert SubsetDescriptor.union(*members) is SubsetDescriptor.union(*members)
    assert not built
    # Sets classify_sets never emits are still built and validated.
    SubsetDescriptor.union(SubsetDescriptor.circle(1, 2), SubsetDescriptor.polar_pair(1))
    assert len(built) == 1
    with pytest.raises(ValueError):
        SubsetDescriptor.polar_pair(4)
