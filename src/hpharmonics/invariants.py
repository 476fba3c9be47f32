"""Elementary invariants and Newton endomorphisms of small dense matrices.

For an m x m matrix A the characteristic polynomial is

    det(A - t*I) = sum_{k=0..m} (-1)^k e_{m-k}(A) t^k,

so e_0 = 1, e_1 = trace(A), e_m = det(A), and in general e_r(A) is the sum
of the principal r x r minors of A.  Two independent computation paths are
provided: a brute-force sum over principal minors (the oracle, O(2^m), hence
the dimension cap) and the Newton-Girard recursion through power traces.

The Newton endomorphisms are the partial evaluations of the characteristic
polynomial at A itself,

    chi_0 = I,    chi_r = e_r(A) * I - A @ chi_{r-1},

so chi_1 = trace(A)*I - A and chi_m = 0 (Cayley-Hamilton).  They satisfy
trace(A @ chi_{r-1}) = r * e_r(A), and d/dt e_r(A + t*B) at t=0 equals
trace(B @ chi_{r-1}(A)).

Every public function takes a stack of matrices, shape (..., m, m), and
treats each matrix on its own: a single (m, m) matrix is a stack with no
leading axes.  Results carry the same leading axes; a single matrix gives
an (m+1,) vector of invariants, an (m+1, m, m) array of endomorphisms, or
one Cayley-Hamilton residual as a Python float.  The derivative and the
shift and scaling identities give every order from one Newton chain, as an
(m+1,) vector indexed by r like the invariants, whose entry 0 is exactly 0.

The package's input contract lives here, in helpers that ``lie3`` and
``mapenergy`` share: complex input is refused, not cast, non-finite input is
refused naming the first bad row of a stack ("matrix row 3 has ..."), and so
is a result that leaves the float range.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "MAX_DIM", "cayley_hamilton_residual", "check_scaling_identity", "check_shift_identity",
    "elementary_invariants_minors", "elementary_invariants_newton", "invariant_derivative",
    "newton_endomorphisms",
]

#: Dimension cap keeping the 2^m principal-minor oracle trivially cheap.
MAX_DIM = 8


def _row(ok: np.ndarray) -> str:
    # " row k", the first row of a stack where ``ok`` is False; "" for one item.
    if ok.ndim == 0:
        return ""
    first = np.unravel_index(np.argmin(ok), ok.shape)
    return f" row {int(first[0]) if ok.ndim == 1 else tuple(int(i) for i in first)}"


def _real(a, name: str, error: type[ValueError] = ValueError) -> np.ndarray:
    # ``a`` as a float array; a complex one is refused, not truncated.
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise error(f"{name} has complex entries")
    return np.asarray(arr, dtype=float)


def _finite(values, name: str, axes: int, problem="has non-finite entries", error=ValueError):
    # ``values``, whose last ``axes`` axes are one item, refused naming the first
    # row with a non-finite entry; a byte read of the flags costs less than .all().
    flags = np.isfinite(values)
    if 0 in flags.tobytes():
        raise error(f"{name}{_row(flags.all(axis=tuple(range(-axes, 0))))} {problem}")
    return values


def _refused(form, name: str, axes: int):
    # form(), with numpy's overflow and invalid-value warnings silenced, refused
    # as _finite refuses when a value left the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        value = form()
    return _finite(value, name, axes, "overflows the float range")


def _frozen(cls, fields: dict):
    # The frozen dataclass ``cls`` with ``fields`` set at once, not one by one as __init__ does.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _scalars(values):
    # A single item's result as a Python scalar, a stack's as its array.
    return values.item() if values.ndim == 0 else values


def as_square_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a float (..., m, m) stack, 1 <= m <= MAX_DIM."""
    arr = _real(a, "matrix")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    m = arr.shape[-1]
    if not 1 <= m <= MAX_DIM:
        raise ValueError(f"dimension {m} outside supported range 1..{MAX_DIM}")
    return _finite(arr, "matrix", 2)


def _check_order(r: int, m: int) -> None:
    if not 1 <= r <= m:
        raise ValueError(f"order r={r} outside 1..{m}")


def _binom(n: int, k: int) -> int:
    # math.comb with the conventions binom(n, 0) = 1 and binom(n, k) = 0
    # for k > n or k < 0, valid for the shift identities down to r = m.
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@functools.lru_cache(maxsize=None)  # at most 36 (m, r) pairs under MAX_DIM = 8
def _subsets(m: int, r: int) -> np.ndarray:
    # The r-element subsets of range(m) in lexicographic order, one per row;
    # read-only, since every call for this (m, r) shares the array.
    idx = np.array(list(itertools.combinations(range(m), r)))
    idx.flags.writeable = False
    return idx


def elementary_invariants_minors(a) -> np.ndarray:
    """Elementary invariants via brute-force principal-minor sums.

    Takes an (..., m, m) stack and returns the (..., m+1) invariant vectors
    (e_0, ..., e_m), with e_r the sum of det(A[S, S]) over all r-element
    index subsets S.  This is the reference oracle for
    :func:`elementary_invariants_newton`.
    """
    arr = as_square_matrix(a)
    m = arr.shape[-1]
    values = np.empty(arr.shape[:-2] + (m + 1,))
    values[..., 0] = 1.0
    for r in range(1, m + 1):
        idx = _subsets(m, r)
        dets = np.linalg.det(arr[..., idx[:, :, None], idx[:, None, :]])
        # Running sum over the subsets in lexicographic order.
        values[..., r] = np.cumsum(dets, axis=-1)[..., -1]
    return values


def elementary_invariants_newton(a) -> np.ndarray:
    """Elementary invariants (e_0, ..., e_m) via the Newton-Girard recursion.

    Takes an (..., m, m) stack and returns the (..., m+1) invariant vectors.
    Uses r * e_r = sum_{k=1..r} (-1)^(k-1) e_{r-k} trace(A^k) with matrix
    powers accumulated by repeated multiplication, so no diagonalizability
    assumption is made.  Refused when a value leaves the float range.
    """
    arr = as_square_matrix(a)
    return _refused(lambda: _newton_girard(arr), "the invariant vector", 1)


def _newton_girard(arr: np.ndarray) -> np.ndarray:
    # The invariants of the validated stack ``arr``; see elementary_invariants_newton.
    # The recursion runs on A / 2^s, with 2^s read off each matrix's largest
    # |entry|, and entry r is scaled back by 2^(s r): the scaled power traces
    # stay below m^m, so only an e_r that leaves the float range overflows, and
    # an exact power-of-two scaling changes no bit of a normal result.
    m = arr.shape[-1]
    shift = np.frexp(np.max(np.abs(arr), axis=(-2, -1)))[1]
    arr = np.ldexp(arr, -shift[..., None, None])
    powers = np.empty((m,) + arr.shape)  # powers[k - 1] = A^k
    powers[0] = arr
    for k in range(1, m):
        np.matmul(powers[k - 1], arr, out=powers[k])
    power_traces = [None, *np.trace(powers, axis1=-2, axis2=-1)]
    # The recursion works on per-r entries, plain scalars for a single
    # matrix, so a batch of one pays no array overhead here.
    e = [1.0]
    for r in range(1, m + 1):
        s = 0.0
        for k in range(1, r + 1):
            s = s + (-1.0) ** (k - 1) * e[r - k] * power_traces[k]
        e.append(s / r)
    values = np.empty(arr.shape[:-2] + (m + 1,))
    for r, e_r in enumerate(e):
        values[..., r] = np.ldexp(e_r, shift * r)
    return values


def _newton_chain(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    # chi_0..chi_m of the validated stack ``arr`` from its invariants
    # ``values`` (..., m+1), stacked as (..., m+1, m, m).
    m = arr.shape[-1]
    eye = np.eye(m)
    chis = np.empty(arr.shape[:-2] + (m + 1, m, m))
    chis[..., 0, :, :] = eye
    for r in range(1, m + 1):
        chis[..., r, :, :] = values[..., r, None, None] * eye - arr @ chis[..., r - 1, :, :]
    return chis


def newton_endomorphisms(a) -> np.ndarray:
    """Newton endomorphisms chi_0, ..., chi_m of an (..., m, m) stack.

    Returns an (..., m+1, m, m) array whose index -3 is r: chi_0 is the
    identity, chi_r = e_r*I - A @ chi_{r-1}, and chi_m is the zero matrix up
    to roundoff (Cayley-Hamilton; see :func:`cayley_hamilton_residual`).
    """
    arr = as_square_matrix(a)
    return _newton_chain(arr, elementary_invariants_newton(arr))


def cayley_hamilton_residual(a):
    """Max entry of chi_m(A), normalized by the recursion's largest entry.

    One value per matrix of the (..., m, m) stack: shape (...).
    """
    mags = np.abs(newton_endomorphisms(a))
    scale = np.max(mags, axis=(-3, -2, -1))
    return _scalars(np.max(mags[..., -1, :, :], axis=(-2, -1)) / scale)


def invariant_derivative(a, b) -> np.ndarray:
    """Exact derivatives d/dt e_r(A + t*B) at t = 0, namely trace(B chi_{r-1}(A)).

    ``a`` and ``b`` are stacks of the same shape (..., m, m); the result is
    indexed by r as the invariants are, shape (..., m+1), and its entry 0
    (the derivative of e_0 = 1) is exactly 0.
    """
    arr = as_square_matrix(a)
    brr = as_square_matrix(b)
    if arr.shape != brr.shape:
        raise ValueError(f"stacks must share one shape, got {arr.shape} and {brr.shape}")
    chis = newton_endomorphisms(arr)
    derivatives = np.zeros(chis.shape[:-2])
    derivatives[..., 1:] = np.trace(brr[..., None, :, :] @ chis[..., :-1, :, :], axis1=-2, axis2=-1)
    return derivatives


def check_shift_identity(a) -> np.ndarray:
    """Residuals of the shift identities for e_r and chi_r under A -> I + A.

    Both expansions

        e_r(I + A)   = sum_k binom(m-k,   r-k) e_k(A)
        chi_r(I + A) = sum_k binom(m-1-k, r-k) chi_k(A)

    are evaluated for every order r and the larger absolute residual is
    returned, indexed by r: shape (..., m+1), with entry 0 exactly 0.
    """
    arr = as_square_matrix(a)
    m = arr.shape[-1]
    shifted = np.eye(m) + arr
    values = elementary_invariants_newton(arr)
    shifted_values = elementary_invariants_newton(shifted)
    chis = _newton_chain(arr, values)
    # Each order r sums its terms k = 0..r in turn, from zero, as it would alone.
    rhs_e, rhs_chi = np.zeros(values.shape), np.zeros(chis.shape)
    for k in range(m + 1):
        n = m - k  # term k joins the orders r = k + j, j = 0..n
        binoms = np.array([(_binom(n, j), _binom(n - 1, j)) for j in range(n + 1)])
        rhs_e[..., k:] += binoms[:, 0] * values[..., k, None]
        rhs_chi[..., k:, :, :] += binoms[:, 1, None, None] * chis[..., k, None, :, :]
    chi_gap = np.max(np.abs(_newton_chain(shifted, shifted_values) - rhs_chi), axis=(-2, -1))
    return np.maximum(np.abs(shifted_values - rhs_e), chi_gap)


def check_scaling_identity(a, c) -> np.ndarray:
    """Residuals of the homogeneity chi_{cA,r}(cA) = c^r chi_{A,r}(A).

    ``c`` broadcasts against the leading axes of the (..., m, m) stack; the
    result is indexed by r, shape (..., m+1), with entry 0 exactly 0.
    """
    arr = as_square_matrix(a)
    c = _finite(_real(c, "scaling factor"), "scaling factor", 0)[..., None, None]
    lhs = newton_endomorphisms(c * arr)
    # One c**r per order: numpy squares c for r = 2, where a power by an array
    # of orders would round differently.
    powers = np.stack([c**r for r in range(arr.shape[-1] + 1)], axis=-3)
    return np.max(np.abs(lhs - powers * newton_endomorphisms(arr)), axis=(-2, -1))
