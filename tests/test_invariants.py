from itertools import combinations
from math import comb

import numpy as np
import pytest

from hpharmonics import verify
from hpharmonics.invariants import (
    cayley_hamilton_residual,
    check_scaling_identity,
    check_shift_identity,
    elementary_invariants_minors,
    elementary_invariants_newton,
    invariant_derivative,
    newton_endomorphisms,
)


def test_diagonal_invariants_both_paths():
    a = np.diag([1.0, 2.0, 3.0])
    expected = [1.0, 6.0, 11.0, 6.0]  # coefficients of (t-1)(t-2)(t-3)
    np.testing.assert_allclose(elementary_invariants_minors(a), expected)
    np.testing.assert_allclose(elementary_invariants_newton(a), expected)


def test_identity_gives_binomials():
    values = elementary_invariants_minors(np.eye(4))
    np.testing.assert_allclose(values, [1.0, 4.0, 6.0, 4.0, 1.0])


def test_rotation_generator():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(elementary_invariants_newton(a), [1.0, 0.0, 1.0])


def test_dimension_cap_boundary():
    # m = 8 is the largest supported dimension (255 principal minors)
    np.testing.assert_allclose(
        elementary_invariants_minors(np.eye(8)),
        [float(comb(8, r)) for r in range(9)],
    )
    rng = np.random.default_rng(88)
    a = rng.uniform(-1.0, 1.0, size=(8, 8))
    minors = elementary_invariants_minors(a)
    newton = elementary_invariants_newton(a)
    scale = max(1.0, float(np.max(np.abs(minors))))
    np.testing.assert_allclose(minors, newton, atol=1e-10 * scale, rtol=1e-10)


def test_leading_entry_is_one_exactly():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    assert elementary_invariants_newton(a)[0] == 1.0
    assert elementary_invariants_minors(a)[0] == 1.0


@pytest.mark.parametrize("m", range(2, 7))
def test_minors_match_newton_random(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, size=(m, m))
        minors = elementary_invariants_minors(a)
        newton = elementary_invariants_newton(a)
        scale = max(1.0, float(np.max(np.abs(minors))))
        np.testing.assert_allclose(minors, newton, atol=1e-10 * scale, rtol=1e-10)


def test_minors_equal_subset_loop():
    # The subset index arrays are built once per (m, r) and reused; every
    # call, first or repeated, sums the same determinants in lexicographic
    # subset order, bit for bit.
    rng = np.random.default_rng(77)
    for m in range(1, 7):
        for _ in range(2):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            expected = [1.0]
            for r in range(1, m + 1):
                dets = [np.linalg.det(a[np.ix_(s, s)]) for s in combinations(range(m), r)]
                expected.append(sum(dets[1:], dets[0]))
            np.testing.assert_array_equal(elementary_invariants_minors(a), expected)


def test_newton_endomorphisms_diagonal():
    chis = newton_endomorphisms(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(chis[0], np.eye(3))
    np.testing.assert_allclose(chis[1], np.diag([5.0, 4.0, 3.0]))
    np.testing.assert_allclose(chis[2], np.diag([6.0, 3.0, 2.0]))
    np.testing.assert_allclose(chis[3], np.zeros((3, 3)), atol=1e-14)


def test_newton_endomorphisms_identity():
    chis = newton_endomorphisms(np.eye(3))
    np.testing.assert_allclose(chis[1], 2.0 * np.eye(3))
    np.testing.assert_allclose(chis[2], np.eye(3))


def test_cayley_hamilton_random():
    rng = np.random.default_rng(7)
    for m in range(2, 7):
        for _ in range(50):
            assert cayley_hamilton_residual(rng.uniform(-1.0, 1.0, size=(m, m))) <= 1e-9


def test_trace_identity_random():
    rng = np.random.default_rng(11)
    for m in range(2, 7):
        a = rng.uniform(-1.0, 1.0, size=(m, m))
        eps = elementary_invariants_newton(a)
        chis = newton_endomorphisms(a)
        for r in range(1, m + 1):
            lhs = np.trace(a @ chis[r - 1])
            assert abs(lhs - r * eps[r]) <= 1e-10 * max(1.0, abs(lhs))


def test_shift_identity_zero_matrix():
    for m in (2, 3, 5):
        a = np.zeros((m, m))
        for r in range(1, m + 1):
            assert check_shift_identity(a, r) == 0.0
        # invariants of the identity are plain binomial coefficients
        np.testing.assert_allclose(
            elementary_invariants_newton(np.eye(m)),
            [float(comb(m, r)) for r in range(m + 1)],
        )


def test_shift_identity_diagonal_example():
    a = np.diag([1.0, 2.0, 3.0])
    # e_2 of diag(2, 3, 4) is 26 = 11 + 2*6 + 3
    shifted = elementary_invariants_newton(np.eye(3) + a)
    assert shifted[2] == pytest.approx(26.0)
    assert check_shift_identity(a, 2) <= 1e-12


def test_shift_and_scaling_random():
    rng = np.random.default_rng(13)
    for m in range(2, 7):
        a = rng.uniform(-1.0, 1.0, size=(m, m))
        c = rng.uniform(-2.0, 2.0)
        for r in range(1, m + 1):
            assert check_shift_identity(a, r) <= 1e-9
            assert check_scaling_identity(a, r, c) <= 1e-9


def test_invariant_derivative_r1_is_trace():
    rng = np.random.default_rng(17)
    a = rng.uniform(-1.0, 1.0, size=(4, 4))
    b = rng.uniform(-1.0, 1.0, size=(4, 4))
    assert invariant_derivative(a, b, 1) == pytest.approx(np.trace(b))


def test_invariant_derivative_diagonal_example():
    a = np.diag([1.0, 2.0, 3.0])
    assert invariant_derivative(a, np.eye(3), 2) == pytest.approx(12.0)
    step = 1e-5
    fd = (
        elementary_invariants_newton(a + step * np.eye(3))[2]
        - elementary_invariants_newton(a - step * np.eye(3))[2]
    ) / (2 * step)
    assert fd == pytest.approx(12.0, abs=1e-6)


def test_invariant_derivative_matches_fd_random():
    rng = np.random.default_rng(19)
    step = 1e-5
    for m in range(2, 7):
        a = rng.uniform(-1.0, 1.0, size=(m, m))
        b = rng.uniform(-1.0, 1.0, size=(m, m))
        for r in range(1, m + 1):
            exact = invariant_derivative(a, b, r)
            fd = (
                elementary_invariants_newton(a + step * b)[r]
                - elementary_invariants_newton(a - step * b)[r]
            ) / (2 * step)
            assert abs(exact - fd) <= 1e-6


def test_input_validation():
    with pytest.raises(ValueError):
        elementary_invariants_minors(np.zeros((9, 9)))
    with pytest.raises(ValueError):
        elementary_invariants_minors(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        elementary_invariants_newton(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        elementary_invariants_newton(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        invariant_derivative(np.eye(3), np.eye(4), 1)
    with pytest.raises(ValueError):
        invariant_derivative(np.eye(3), np.eye(3), 4)
    with pytest.raises(ValueError):
        check_shift_identity(np.eye(3), 0)
    for r in (0, 4):
        with pytest.raises(ValueError):
            check_scaling_identity(np.eye(3), r, 2.0)


# ---------------------------------------------------------------------------
# the stack contract: a single matrix is a batch of one
# ---------------------------------------------------------------------------


def _per_matrix(fn, *stacks):
    # fn applied to each matrix of equally shaped (..., m, m) stacks, with any
    # per-matrix argument taken from the same leading position.
    batch = stacks[0].shape[:-2]
    results = [fn(*(s[i] for s in stacks)) for i in np.ndindex(batch)]
    return np.reshape(results, batch + np.shape(results[0]))


@pytest.mark.parametrize("batch", [(3,), (2, 3)])
@pytest.mark.parametrize("m", range(1, 9))
def test_stacks_match_single_matrix_calls_bitwise(m, batch):
    rng = np.random.default_rng(1000 + 10 * m + len(batch))
    a = rng.uniform(-1.0, 1.0, size=batch + (m, m))
    b = rng.uniform(-1.0, 1.0, size=batch + (m, m))
    c = rng.uniform(-2.0, 2.0, size=batch)
    cases = [
        (elementary_invariants_minors, (a,)),
        (elementary_invariants_newton, (a,)),
        (newton_endomorphisms, (a,)),
        (cayley_hamilton_residual, (a,)),
    ]
    for r in range(1, m + 1):
        cases += [
            (lambda x, y, r=r: invariant_derivative(x, y, r), (a, b)),
            (lambda x, r=r: check_shift_identity(x, r), (a,)),
            (lambda x, k, r=r: check_scaling_identity(x, r, k), (a, c)),
            (lambda x, r=r: check_scaling_identity(x, r, -1.7), (a,)),
        ]
    for fn, args in cases:
        stacked, looped = fn(*args), _per_matrix(fn, *args)
        assert stacked.shape == looped.shape
        assert np.array_equal(stacked, looped), (fn, m, batch)


def test_single_matrix_shapes():
    a = np.diag([1.0, 2.0, 3.0])
    assert elementary_invariants_minors(a).shape == (4,)
    assert elementary_invariants_newton(a).shape == (4,)
    assert newton_endomorphisms(a).shape == (4, 3, 3)
    for value in (
        cayley_hamilton_residual(a),
        invariant_derivative(a, np.eye(3), 2),
        check_shift_identity(a, 2),
        check_scaling_identity(a, 2, 2.0),
    ):
        assert type(value) is float


def test_stack_validation():
    stack = np.zeros((4, 3, 3))
    stack[2, 1, 0] = np.inf
    for fn in (elementary_invariants_minors, elementary_invariants_newton, newton_endomorphisms):
        with pytest.raises(ValueError):
            fn(stack)
        with pytest.raises(ValueError):
            fn(np.zeros((4, 3, 4)))
        with pytest.raises(ValueError):
            fn(np.zeros((2, 9, 9)))
    with pytest.raises(ValueError):
        cayley_hamilton_residual(stack)
    with pytest.raises(ValueError):
        invariant_derivative(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)), 1)
    with pytest.raises(ValueError):
        invariant_derivative(np.zeros((1, 2, 2)), np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        check_shift_identity(np.zeros((2, 9, 9)), 1)
    with pytest.raises(ValueError):
        check_scaling_identity(np.zeros((2, 3, 4)), 1, 2.0)


# ---------------------------------------------------------------------------
# the battery's invariants properties against their per-trial loops
# ---------------------------------------------------------------------------


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _oracles_loop(rng, trials):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            minors = elementary_invariants_minors(a)
            newton = elementary_invariants_newton(a)
            for r in range(m + 1):
                worst = max(worst, _rel(minors[r], newton[r]))
    return worst


def _cayley_hamilton_loop(rng, trials):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            worst = max(worst, cayley_hamilton_residual(a))
    return worst


def _newton_trace_loop(rng, trials):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            eps = elementary_invariants_newton(a)
            chis = newton_endomorphisms(a)
            for r in range(1, m + 1):
                lhs = float(np.trace(a @ chis[r - 1]))
                worst = max(worst, _rel(lhs, r * eps[r]))
    return worst


def _shift_scaling_loop(rng, trials):
    worst = 0.0
    for m in range(2, 7):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            c = rng.uniform(-2.0, 2.0)
            scale = max(1.0, float(np.max(np.abs(a))))
            for r in range(1, m + 1):
                worst = max(worst, check_shift_identity(a, r) / scale)
                worst = max(worst, check_scaling_identity(a, r, c) / scale)
    return worst


def _derivative_fd_loop(rng, trials):
    step = 1e-5
    worst = 0.0
    for m in range(2, 7):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            b = rng.uniform(-1.0, 1.0, size=(m, m))
            for r in range(1, m + 1):
                exact = invariant_derivative(a, b, r)
                plus = elementary_invariants_newton(a + step * b)[r]
                minus = elementary_invariants_newton(a - step * b)[r]
                fd = (plus - minus) / (2.0 * step)
                worst = max(worst, abs(exact - fd))
    return worst


@pytest.mark.parametrize(
    "check, loop",
    [
        (verify.check_invariant_oracles, _oracles_loop),
        (verify.check_cayley_hamilton, _cayley_hamilton_loop),
        (verify.check_newton_trace, _newton_trace_loop),
        (verify.check_shift_scaling, _shift_scaling_loop),
        (verify.check_derivative_fd, _derivative_fd_loop),
    ],
)
def test_batched_properties_match_per_trial_loops(check, loop):
    # Same draws in the same order and the same worst case: the stacked
    # property returns exactly the residual of the per-trial loop.
    for seed, trials in ((3, 1), (5, 4), (8, 9)):
        batched = check(np.random.default_rng(seed), trials).residual
        assert batched == loop(np.random.default_rng(seed), trials)
        assert batched > 0.0
