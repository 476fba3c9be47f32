"""Stacks of triples in lie3: every function broadcasts over leading axes
and must give, row by row, exactly what a call on that row alone gives."""

import dataclasses
import functools
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpharmonics import cli, lie3, mapenergy, verify
from hpharmonics.invariants import _Floats
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
        facts = ("algebra_class", "flat", "ricci_kernel_dim", "sign_flipped", "mu_pattern", "lam_ties")
        for name in facts:
            assert getattr(md, name).tolist() == [getattr(r, name) for r in rows], name
        assert md.mu_exponent.tolist() == [r.mu_exponent for r in rows]
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
        # The degree-3 horizontal engine on the rows in H1.  check_predicates'
        # stacks are checked against its rows by _check_verdicts.
        on = np.flatnonzero(lie3.in_h1(md, sigma))
        row_args = [(structure[k], sigma[k], 3) for k in on]
        _assert_rows_match(lie3._frame_horizontal, (structure[on], sigma[on], 3), row_args)


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
    # Plain addition: sum() compensates its rounding from Python 3.12 on.
    half_sum = 0.5 * ((lam[0] + lam[1]) + lam[2])
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
    kernel = int(lie3._KERNEL_BY_ZERO_MU[sum(_reference_zero_mask(unit_mu))])
    label = str(lie3._CLASS_BY_SIGNS[max(npos, nneg), min(npos, nneg)])
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
    md = MilnorData.normalize(row)
    numbers = np.concatenate([md.lam, md.mu, md.ricci, md.sectional, md.scaled.ravel()])
    facts = [md.algebra_class, md.ricci_kernel_dim, md.permutation, md.sign_flipped]
    facts += [md.mu_exponent, md.mu_pattern, md.lam_ties]
    expected, *expected_facts, unit_lam, unit_mu = _reference_normalize_row(row)
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

    # The row on numpy columns, in one stack with its reversal and its
    # negation: each stacked row is bit for bit the triple alone, fact for fact.
    rows = [row, row[::-1], [-v for v in row]]
    stack = MilnorData.normalize(rows)
    for k, alone in enumerate(rows):
        single = MilnorData.normalize(alone)
        for field in dataclasses.fields(MilnorData):
            stacked = np.ravel(getattr(stack, field.name)[k])
            value = np.ravel(getattr(single, field.name))
            if value.dtype == float:
                assert _int_bits(stacked) == _int_bits(value), field.name
            else:
                assert stacked.tolist() == value.tolist(), field.name


def test_empty_stacks_normalize_to_empty_fields():
    for lead in ((0,), (2, 0)):
        md = MilnorData.normalize(np.empty(lead + (3,)))
        for name in ("lam", "mu", "ricci", "sectional", "permutation", "mu_exponent"):
            assert getattr(md, name).shape == lead + (() if name == "mu_exponent" else (3,)), name
        assert md.scaled.shape == lead + (2, 3)
        facts = ("algebra_class", "flat", "ricci_kernel_dim", "sign_flipped", "mu_pattern", "lam_ties")
        for name in facts:
            assert getattr(md, name).shape == lead, name


# ---------------------------------------------------------------------------
# the locus rules against frozen copies: membership, by member weights, in
# descriptors read off masks that plain floats compute from the unit-scale
# geometry; and the fields check_predicates reports against the public
# functions it reports
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
    # the ties of lam / 2^e, the exact rescaling to max |lam| ~ 1.
    unit = _unit_geometry(md)
    return dict(_frozen_classify_sets(unit.mu), map=_frozen_eigendirections(unit.lam))


@functools.cache
def _member_weights(descriptor):
    # One row per member (PolarSet: its pairs): weight 1 on each coefficient
    # that the member requires to vanish.
    members = descriptor.members or (descriptor,)
    members = [p for m in members for p in (lie3._PAIRS if m.kind == "PolarSet" else (m,))]
    weights = [[m.kind != "Sphere" and k not in m.indices for k in (1, 2, 3)] for m in members]
    weights = [w for w, m in zip(weights, members) if m.kind != "Empty"]
    return np.array(weights, float).reshape(-1, 3)


def _frozen_contains(descriptor, arr):
    # Membership by member weights: for some member, every coefficient of
    # weight 1 is at most TOL.
    return np.bool_((np.abs(arr) * _member_weights(descriptor) <= lie3.TOL).all(-1).any())


def _frozen_classify_sets(unit_mu):
    # The loci from mu of lam / 2^e, as classify_sets gives them.
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


_RULES = ((lie3.in_z1, "Z1"), (lie3.in_z2, "Z2"), (lie3.in_h1, "H1"), (lie3.in_h2, "H2"),
          (lambda md, sigma: lie3.in_skyrmion_locus(md, sigma, 0.5), "H1"))


def _check_verdicts(draws):
    """Every locus rule, and every check_predicates verdict at r = 1, 2, 3, on
    the stack of ``draws`` (lam, raw sigma) and on each row, against
    membership by member weights in the row's frozen loci.  Returns the
    rows, their loci, the unit fields and the reports by r: (stack, rows)."""
    lam = np.array([d[0] for d in draws], dtype=float)
    raw_sigma = np.array([d[1] for d in draws], dtype=float)
    sigma = raw_sigma / np.sqrt(np.vecdot(raw_sigma, raw_sigma))[:, None]
    md = MilnorData.normalize(lam)
    rows = [MilnorData.normalize(row) for row in lam]
    loci = [_frozen_loci(row) for row in rows]
    members = {key: [_frozen_contains(locus[key], s) for locus, s in zip(loci, sigma)]
               for key in loci[0]}
    for rule, key in _RULES:
        assert rule(md, sigma).tolist() == members[key], (key, lam, sigma)
        singles = [rule(row, s) for row, s in zip(rows, sigma)]
        assert all(map(_same, singles, [bool(member) for member in members[key]])), (key, lam, sigma)
    reports = {}
    for r in (1, 2, 3):
        verdicts = {"r_parallel": f"Z{r}", "r_harmonic_unit": f"H{r}", "twisted_2_skyrmion": "H1",
                    "r_harmonic_map": "map" if r < 3 else "H1"}
        stacked = lie3.check_predicates(md, sigma, r)
        singles = [lie3.check_predicates(row, s, r) for row, s in zip(rows, sigma)]
        for name, key in verdicts.items():
            expected = [bool(member) for member in members[key]]
            assert getattr(stacked, name).tolist() == expected, (name, r, lam, sigma)
            got = [getattr(x, name) for x in singles]
            assert got == expected and all(type(v) is bool for v in got), (name, r, lam, sigma)
        reports[r] = stacked, singles
    return rows, loci, sigma, reports


def _reported_fields(md, sigma, r):
    # The vertical tension, horizontal tension and vertical energy that
    # check_predicates reports for one field: each the public function it
    # reports, or None where that function refuses; at r = 3 the vertical
    # tension and energy vanish identically.
    def public(fn, *args):
        value = _outcome(fn, md, sigma, *args)
        return None if isinstance(value, type) else value

    if r == 3:
        vertical, energy = np.zeros(3), 0.0
    else:
        vertical = public((lie3.tension_t1, lie3.tension_t2)[r - 1])
        energy = public((lie3.grad_norm_sq, lie3.wedge_norm_sq)[r - 1])
    return vertical, public(lie3.horizontal_tension, r), energy


_CORNERS = ((1.000001e-6, 1.000000000001, 1.000001), (0.0, 1.0, 1.000000000000341))
_CORNER_SIGMAS = ((0.6, 0.8, 0.0), (0.0, 0.6, 0.8), (0.6, 0.0, 0.8), (0.0, 0.0, 1.0))
_FIELDS = ("vertical_tension", "horizontal_tension", "vertical_energy")


@settings(max_examples=150)
@given(st.lists(st.tuples(_ROWS, _SIGMAS), min_size=1, max_size=5))
@example([(lam, sigma) for lam in _CORNERS for sigma in _CORNER_SIGMAS])
@example([(tuple(1e-170 * v for v in _CORNERS[1]), (0.6, 0.8, 0.0))])
def test_rules_match_their_frozen_numpy_forms(draws):
    rows, loci, sigma, reports = _check_verdicts(draws)
    for row, locus in zip(rows, loci):
        assert dict(lie3.classify_sets(row), map=locus["map"]) == locus, row.lam
    # Each reported field is the public function it reports, row by row; a
    # row of the stack is the single field, nan where that is None.
    for r, (stacked, singles) in reports.items():
        expected = [_reported_fields(row, s, r) for row, s in zip(rows, sigma)]
        for single, want, row in zip(singles, expected, rows):
            got = tuple(getattr(single, name) for name in _FIELDS)
            assert all(map(_same, got, want)), (r, row.lam, got, want)
        for name, column in zip(_FIELDS, zip(*expected)):
            nan = np.nan if name == "vertical_energy" else [np.nan] * 3
            rows_of_stack = [nan if value is None else value for value in column]
            assert _bits(getattr(stacked, name)) == _bits(rows_of_stack), (name, r)


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
    # is membership in its descriptor, on stacks and rows, for geometries
    # near the zero and tie strata and fields in the TOL band.
    _check_verdicts(draws)


_LOCUS_VERDICTS = {
    "in_h1": lie3.in_h1, "in_h2": lie3.in_h2, "in_z1": lie3.in_z1, "in_z2": lie3.in_z2,
    "in_skyrmion_locus": lambda md, sigma: lie3.in_skyrmion_locus(md, sigma, 0.5),
    "is_eigendirection": lambda md, sigma: lie3.is_eigendirection(md.mu**2, sigma),
}


@pytest.mark.parametrize("name", _LOCUS_VERDICTS)
def test_one_field_locus_verdicts_are_python_bools(name):
    # One field's verdict is a bool, a stack's a bool array of its rows.
    verdict = _LOCUS_VERDICTS[name]
    fields = np.array([E[0], E[2], (0.6, 0.8, 0.0), _GENERIC])
    for md in (MilnorData.normalize((2.0, 1.0, -1.0)), MilnorData.normalize((1.0, 1.0, 0.0))):
        alone = [verdict(md, sigma) for sigma in fields]
        assert all(type(value) is bool for value in alone), (name, alone)
        stacked = verdict(md, fields)
        assert type(stacked) is np.ndarray and stacked.dtype == bool and stacked.tolist() == alone


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
    # One geometry against a stack of fields, and a (K, 1, 3) stack of
    # geometries against (K, N, 3) fields, as the battery's skyrmion property
    # uses: the carrier is picked from both shapes, and each row of a verdict,
    # a permutation and a report at r = 1, 2, 3 is the single field's, bit for
    # bit.  The random fields are off H1; a pole, on it, is added as the last field of each k.
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(4, 5, 3))
    samples /= np.linalg.norm(samples, axis=-1, keepdims=True)
    lam = rng.uniform(-1.5, 1.5, size=(4, 3))
    md = MilnorData.normalize(lam[:, None, :])
    assert md.mu.shape == (4, 1, 3) and md.flat.shape == (4, 1)
    got = lie3.in_h1(md, samples)
    fields = np.concatenate((samples, np.broadcast_to(E[0], (4, 1, 3))), axis=1)
    permuted = md.permute(fields)
    reports = {r: lie3.check_predicates(md, fields, r) for r in (1, 2, 3)}
    for k in range(4):
        single = MilnorData.normalize(lam[k])
        assert got[k].tolist() == [lie3.in_h1(single, s) for s in samples[k]]
        stacked = lie3.tension_t1(md, samples)[k]
        np.testing.assert_array_equal(lie3.tension_t1(single, samples[k]), stacked)
        alone = [single.permute(s) for s in fields[k]]
        assert _bits(permuted[k]) == _bits(single.permute(fields[k])) == _bits(alone)
        for r in (1, 2, 3):
            one_geometry = lie3.check_predicates(single, fields[k], r)
            for n, s in enumerate(fields[k]):
                one = lie3.check_predicates(single, s, r)
                _assert_report_row(one, reports[r], (k, n), (r, k, n))
                _assert_report_row(one, one_geometry, n, (r, k, n))
    assert reports[3].twisted_2_skyrmion[:, -1].all() and np.isnan(reports[3].horizontal_tension[:, :-1]).all()


# ---------------------------------------------------------------------------
# one field's horizontal tension, vertical tension, verdict mask and report on
# Python floats against its stack row (the suite turns numpy's RuntimeWarning
# into an error, see pyproject.toml)
# ---------------------------------------------------------------------------

_GENERIC = (0.6, 0.48, 0.64)


def _field_and_row(lam, sigma, r):
    # The degree-r horizontal tension of one field (Python floats) and of row
    # 0 of a stack with a second, unrelated row (numpy columns), unrefused as
    # check_predicates reads it: bit for bit alike, signed zeros included.
    md = MilnorData.normalize(lam)
    sigma = md.permute(sigma)
    stack = MilnorData.normalize([lam, (2.0, 1.0, -1.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        one = lie3._horizontal_tension(md, sigma, r)
        row = lie3._horizontal_tension(stack, np.array([sigma, E[0]]), r)[0]
    assert type(one) is np.ndarray and one.shape == (3,)
    assert _bits(one) == _bits(row), (lam, sigma, r, one, row)
    return md, sigma, one


def _frozen_horizontal_tension(md, arr, r):
    # The array form that the component body replaced, kept frozen as its
    # oracle: each addition in the order the body must keep on both carriers.
    e, mu, sectional = md.mu_exponent[..., None], md.scaled[..., 0, :], md.scaled[..., 1, :]
    mu_sq, s1 = md.mu**2, md.mu * arr
    e1 = mu_sq.sum(-1) - np.vecdot(s1, s1)
    delta, c = e1[..., None] - mu_sq + (2.0 if r == 2 else 1.0), 1.0
    if r == 3:
        ric = md.ricci * arr
        wedge = 0.25 * np.vecdot(arr, arr) * np.vecdot(ric, ric)
        delta = delta + (mu_sq**2 - e1[..., None] * mu_sq + wedge[..., None])
        c = (c + (e1 - np.vecdot(s1, s1)))[..., None]
    s1 = mu * arr
    if r == 1:
        return np.ldexp(np.cross(sectional * arr, s1), 3 * e)
    out = np.cross(sectional * arr, delta * s1)
    s2 = mu * s1
    rank_one = np.cross(s2, s1) + np.ldexp(np.cross(s1, sectional * np.cross(arr, np.cross(s2, arr))), 2 * e)
    if r == 2:
        return np.ldexp(out + rank_one, 3 * e)
    return np.ldexp(np.where(c == 0.0, out, out + c * rank_one), 3 * e)


def test_horizontal_tension_keeps_the_frozen_bits():
    # One field and a stack against the frozen array form, at scales from
    # 1e-170 (underflow) to 1e200 (nan), on generic fields, poles and circles.
    rng = np.random.default_rng(33)
    lam = rng.uniform(-1.5, 1.5, size=(600, 3))
    reps = np.array(verify.CLASS_REPRESENTATIVES)
    lam[::2] = reps[rng.integers(len(reps), size=300)] * rng.uniform(0.4, 1.4, size=(300, 1))
    exponent = rng.uniform(-120.0, 120.0, size=600) * (rng.uniform(size=600) < 0.5)
    exponent[::9], exponent[3::9], exponent[5::9], exponent[7::9] = -170.0, -105.0, 150.0, 200.0
    lam *= 10.0 ** exponent[:, None]
    sigma = rng.normal(size=(600, 3)) * (rng.uniform(size=(600, 3)) < 0.7)
    sigma[np.vecdot(sigma, sigma) == 0.0] = E[2]
    sigma /= np.sqrt(np.vecdot(sigma, sigma))[:, None]
    md = MilnorData.normalize(lam)
    rows = [MilnorData.normalize(row) for row in lam]
    with np.errstate(over="ignore", invalid="ignore"):
        for r in (1, 2, 3):
            frozen = _frozen_horizontal_tension(md, sigma, r)
            assert _bits(lie3._horizontal_tension(md, sigma, r)) == _bits(frozen), r
            ones = [lie3._horizontal_tension(row, s, r) for row, s in zip(rows, sigma)]
            assert _bits(ones) == _bits(frozen), r


def test_float_ldexp_is_numpy_ldexp():
    values = [0.0, -0.0, 1.5, -1.5, 5e-324, -2.2e-308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
    for x in values:
        for n in (-2200, -1100, -60, 0, 60, 1100, 2200):
            with np.errstate(over="ignore"):
                want = np.ldexp(x, n)
            assert _bits(_Floats.ldexp(x, n)) == _bits(want), (x, n)


@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_one_field_overflows_as_its_stack_row(scale, capsys):
    # At 1e150 math.ldexp overflows (numpy gives inf), at 1e200 the products
    # do; either way the tension is refused, reported as None, printed as null.
    lam = np.array([2.0, 1.0, -1.0]) * scale
    for r in (1, 2):
        md, sigma, one = _field_and_row(lam, _GENERIC, r)
        assert not np.isfinite(one).all()
        assert lie3.check_predicates(md, sigma, r).horizontal_tension is None
        with pytest.raises(ValueError, match=f"degree-{r} horizontal tension overflows"):
            lie3.horizontal_tension(md, sigma, r)
        argv = ["check", "--lambda=" + ",".join(map(repr, lam.tolist())), "--sigma=0.6,0.48,0.64"]
        cli.main(argv + [f"--r={r}", "--kind=map", "--json"])
        assert json.loads(capsys.readouterr().out)["predicates"]["horizontal_tension"] is None


@pytest.mark.parametrize("scale", [1e-105, 1e-170])
def test_one_field_underflows_as_its_stack_row(scale):
    # At 1e-105 the tensions are subnormal; at 1e-170 mu^2 underflows too and
    # the tensions are signed zeros.
    tiny = []
    for sigma in (_GENERIC, (0.0, 0.6, 0.8), (0.0, 0.0, 1.0)):
        for r in (1, 2, 3):
            md, sigma, one = _field_and_row(np.array([2.0, 1.0, -1.0]) * scale, sigma, r)
            tiny += [x for x in one.tolist() if 0.0 < abs(x) < np.finfo(float).tiny]
            if r < 3 or lie3.in_h1(md, sigma):
                assert _bits(lie3.horizontal_tension(md, sigma, r)) == _bits(one)
    assert bool(tiny) == (scale == 1e-105)


def test_one_field_at_degree_3_with_c_zero():
    # c = 1 + e1 - |s1|^2, the rank-one coefficient of nu_2, is exactly 0 at
    # the pole e3 of lam = (1, 1, 0), mu = (0, 0, 1), where the tension
    # vanishes, and off H1 at lam = (3, 2, 1), where the pick keeps the
    # nonzero diagonal part alone.
    cases = (((1.0, 1.0, 0.0), E[2], False), ((3.0, 2.0, 1.0), (0.0, 0.5773502691896258, 0.816496580927726), True))
    for lam, sigma, nonzero in cases:
        md, sigma, one = _field_and_row(lam, sigma, 3)
        assert 1.0 + lie3._newton_parts(md, _Floats.split(sigma), 2, _Floats)[1][1] == 0.0
        assert bool(one.any()) == nonzero and bool(lie3.in_h1(md, sigma)) != nonzero


def test_no_overflow_error_escapes():
    # math.ldexp raises OverflowError where numpy overflows to inf: neither
    # check_predicates nor horizontal_tension lets it out, on H1 or off it.
    for scale in (1e100, 1e120, 1e150, 1e200, 1e300):
        md = MilnorData.normalize(np.array([2.0, 1.0, -1.0]) * scale)
        for sigma in (E[0], E[1], np.array(_GENERIC)):
            for r in (1, 2, 3):
                report = lie3.check_predicates(md, sigma, r)
                assert report.horizontal_tension is None or np.isfinite(report.horizontal_tension).all()
                try:
                    lie3.horizontal_tension(md, sigma, r)
                except ValueError:  # the refusal, PreconditionError off H1 included
                    pass


_VERDICT_NAMES = ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")


def _assert_report_row(one, stacked, k, context):
    # One field's report against row k of a stacked report, bit for bit: Python
    # bools, and a float or a (3,) array for each field, a None field a nan row.
    for name in _VERDICT_NAMES:
        value = getattr(one, name)
        assert type(value) is bool and value == getattr(stacked, name)[k], (name, context)
    for name in _FIELDS:
        value, want = getattr(one, name), getattr(stacked, name)[k]
        if value is None:
            assert np.isnan(want).all(), (name, context)
            continue
        if name == "vertical_energy":
            assert type(value) is float, context
        else:
            assert type(value) is np.ndarray and value.shape == (3,), (name, context)
        assert _bits(value) == _bits(want), (name, context, value, want)


@pytest.mark.parametrize("scale", [1e-170, 1e-105, 1.0, 1e150, 1e200])
def test_one_field_report_is_its_stack_row(scale):
    # Every field of a one-field report (Python floats) is row k of the
    # stacked report (numpy columns), bit for bit: a None field is a nan row.
    # At 1e-170 and 1e-105 the tensions underflow, at 1e150 and 1e200 some
    # overflow; at r = 3 some rows are on H1 and some off it.
    lams = np.array([(2.0, 1.0, -1.0), (3.0, 2.0, 1.0), (1.0, 1.0, 0.5), (0.7, -0.3, 1.1), (1.0, 1.0, 0.0)])
    sigmas = np.array([E[0], E[2], (0.6, 0.0, 0.8), (0.0, 0.6, 0.8), _GENERIC])
    lam = np.repeat(lams * scale, len(sigmas), axis=0)
    sigma = np.tile(sigmas, (len(lams), 1))
    stack = MilnorData.normalize(lam)
    rows = [MilnorData.normalize(row) for row in lam]
    for r in (1, 2, 3):
        stacked = lie3.check_predicates(stack, sigma, r)
        for k, (row, s) in enumerate(zip(rows, sigma)):
            _assert_report_row(lie3.check_predicates(row, s, r), stacked, k, (r, k))
        if r == 3:
            assert 0 < stacked.twisted_2_skyrmion.sum() < len(lam)
            assert np.isnan(stacked.horizontal_tension).any()


def test_membership_mask_is_the_weighted_flags():
    # The mask of _member, 4 [|a0| > TOL] + 2 [|a1| > TOL] + [|a2| > TOL] in
    # integer arithmetic, is (|sigma| > TOL) @ [4, 2, 1] at and next to TOL and
    # at signed zeros, for one triple and for stacks.
    tol = lie3.TOL
    edges = [tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 0.0]
    values = [x for v in edges for x in (v, -v)]
    sigma = np.array(list(product(values, repeat=3)))
    want = (np.abs(sigma) > tol) @ np.array([4, 2, 1])
    assert sorted(set(want.tolist())) == list(range(8))
    identity = np.arange(8)  # admission rows whose entry L is L: _member returns the mask
    assert lie3._member(identity, (), sigma).tolist() == want.tolist()
    assert lie3._member(identity, (), sigma.reshape(8, 8, 8, 3)).tolist() == want.reshape(8, 8, 8).tolist()
    for s, mask in zip(sigma, want.tolist()):
        got = lie3._member(identity, (), s)
        assert got == mask and type(got) is np.int64, (s, got)


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
