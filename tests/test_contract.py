"""The input contract that `invariants`, `lie3` and `mapenergy` share.

Complex input is refused, not cast to its real part; non-finite input is
refused naming the first bad row of a stack; a closed form whose value
leaves the float range is refused.  Every refusal is a ValueError and
raises no warning on the way.
"""

import re

import numpy as np
import pytest

from hpharmonics import invariants, lie3, mapenergy

MD = lie3.classify_algebra((2.0, 1.0, -1.0))
# mu^2 overflows at this scale.
BIG = lie3.classify_algebra(np.array([2.0, 1.0, -1.0]) * 1e200)
SIGMA = np.array([0.6, 0.0, 0.8])
POINTS = mapenergy.PointData(*[np.array([np.eye(2)] * 2)] * 3)

CASES = {
    "complex lambda": (
        lambda: lie3.classify_algebra(np.array([2.0, 1.0, -1.0 + 1j])),
        "structure constants has complex entries",
    ),
    "complex sigma": (
        lambda: lie3.check_predicates(MD, SIGMA + 0j, 1),
        "sigma has complex entries",
    ),
    "complex coupling": (
        lambda: lie3.check_predicates(MD, SIGMA, 1, coupling=1j),
        "coupling has complex entries",
    ),
    "complex tensor": (
        lambda: lie3.divergence_invariant_tensor(MD, 1j * np.eye(3)),
        "tensor has complex entries",
    ),
    "complex derivative direction": (
        lambda: invariants.invariant_derivative(np.eye(2), 1j * np.eye(2)),
        "matrix has complex entries",
    ),
    "nan tensor": (
        lambda: lie3.divergence_invariant_tensor(MD, np.full((3, 3), np.nan)),
        "tensor has non-finite entries",
    ),
    "nan scaling factor": (
        lambda: invariants.check_scaling_identity(np.eye(2), np.nan),
        "scaling factor has non-finite entries",
    ),
    "nan scaling factor row": (
        lambda: invariants.check_scaling_identity(np.zeros((3, 2, 2)), [1.0, 2.0, np.nan]),
        "scaling factor row 2 has non-finite entries",
    ),
    "nan sigma row": (
        lambda: lie3.check_predicates(MD, np.array([SIGMA, [np.nan, 0.0, 1.0]]), 1),
        "sigma row 1 has non-finite entries",
    ),
    "inf matrix row": (
        lambda: invariants.elementary_invariants_newton([np.eye(2), [[1.0, np.inf], [0.0, 1.0]]]),
        "matrix row 1 has non-finite entries",
    ),
    "overflowing tension_t1": (
        lambda: lie3.tension_t1(BIG, SIGMA),
        "the degree-1 vertical tension overflows the float range",
    ),
    "overflowing tension_t2": (
        lambda: lie3.tension_t2(BIG, SIGMA),
        "the degree-2 vertical tension overflows the float range",
    ),
    "overflowing grad_norm_sq": (
        lambda: lie3.grad_norm_sq(BIG, SIGMA),
        "the degree-1 bending density overflows the float range",
    ),
    "overflowing wedge_norm_sq": (
        lambda: lie3.wedge_norm_sq(BIG, SIGMA),
        "the degree-2 bending density overflows the float range",
    ),
    "overflowing vertical_newton_1": (
        lambda: lie3.vertical_newton_1(BIG, SIGMA),
        "the degree-1 vertical Newton tensor overflows the float range",
    ),
    "overflowing vertical_newton_2": (
        lambda: lie3.vertical_newton_2(BIG, [0.0, 0.0, 1.0]),
        "the degree-2 vertical Newton tensor overflows the float range",
    ),
    "overflowing vertical_cauchy_green": (
        lambda: lie3.vertical_cauchy_green(BIG, SIGMA),
        "the vertical Gram matrix overflows the float range",
    ),
    "overflowing tension_assembled r=1": (
        lambda: lie3.tension_assembled(BIG, SIGMA, 1),
        "the assembled degree-1 tension overflows the float range",
    ),
    # The degree-2 assembly is one engine call under one refusal: its Newton
    # tensor overflows inside it, so the refusal names the tension.
    "overflowing tension_assembled r=2": (
        lambda: lie3.tension_assembled(BIG, SIGMA, 2),
        "the assembled degree-2 tension overflows the float range",
    ),
    "overflowing divergence": (
        lambda: lie3.divergence_invariant_tensor(BIG, np.full((3, 3), 1e200)),
        "the divergence overflows the float range",
    ),
    "overflowing invariants": (
        lambda: invariants.elementary_invariants_newton(1e200 * np.eye(2)),
        "the invariant vector overflows the float range",
    ),
    "overflowing invariants row": (
        lambda: invariants.elementary_invariants_newton([np.eye(2), 1e200 * np.eye(2)]),
        "the invariant vector row 1 overflows the float range",
    ),
    # One item: the bytes the CLI prints; a stack: its first bad row and value.
    "non-unit sigma": (
        lambda: lie3.tension_t2(MD, [0.6, 0.0, 0.6]),
        "sigma must be a unit vector, |sigma|^2 = 0.72",
    ),
    "non-unit sigma row": (
        lambda: lie3.check_predicates(MD, np.array([SIGMA, [0.6, 0.0, 0.6], [2.0, 0.0, 0.0]]), 1),
        "sigma row 1 must be a unit vector, |sigma|^2 = 0.72",
    ),
    "non-positive coupling": (
        lambda: lie3.check_predicates(MD, SIGMA, 1, coupling=-1.0),
        "coupling must be positive, got -1.0",
    ),
    "non-positive coupling row": (
        lambda: lie3.in_skyrmion_locus(MD, np.array([SIGMA] * 3), np.array([0.5, -1.0, 0.0])),
        "coupling row 1 must be positive, got -1.0",
    ),
    # One positivity rule for the coupling and the scale factor: inf and nan
    # are refused as not finite, every value <= 0 as not positive.
    "infinite coupling": (
        lambda: lie3.check_predicates(MD, SIGMA, 1, coupling=np.inf),
        "coupling must be finite, got inf",
    ),
    "nan coupling row": (
        lambda: lie3.in_skyrmion_locus(MD, np.array([SIGMA] * 3), np.array([0.5, np.nan, -1.0])),
        "coupling row 1 must be finite, got nan",
    ),
    "nan scale factor row": (
        lambda: mapenergy.conformal_scaling_residual(POINTS, [2.0, np.nan], 1),
        "scale factor row 1 must be finite, got nan",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_contract_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.filterwarnings("error")
def test_overflow_is_still_reported_as_none():
    # check_predicates reads the same closed forms without the refusals.
    for r in (1, 2):
        report = lie3.check_predicates(BIG, SIGMA, r)
        assert report.vertical_tension is None
        assert report.vertical_energy is None
