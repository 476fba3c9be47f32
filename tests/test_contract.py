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
    # One triple's checks run on Python floats; their refusals read as a stack's row would.
    "nan sigma": (
        lambda: lie3.check_predicates(MD, [np.nan, 0.0, 1.0], 1),
        "sigma has non-finite entries",
    ),
    "inf sigma": (
        lambda: lie3.tension_t1(MD, [0.0, -np.inf, 0.0]),
        "sigma has non-finite entries",
    ),
    "sigma of shape (2,)": (
        lambda: lie3.check_predicates(MD, [0.6, 0.8], 1),
        "sigma must be a triple, got shape (2,)",
    ),
    # |sigma|^2 overflows: refused, not warned, on both carriers.
    **{f"overflowing |sigma|^2 {name}": (
        lambda call=call: call([1e200, 0.0, 0.0]),
        "sigma must be a unit vector, |sigma|^2 = inf",
    ) for name, call in {
        "tension_t2": lambda s: lie3.tension_t2(MD, s),
        "vertical_newton_1": lambda s: lie3.vertical_newton_1(MD, s),
        "horizontal_tension": lambda s: lie3.horizontal_tension(MD, s, 2),
        "first_variation_fd": lambda s: lie3.first_variation_fd(MD, s, [0.0, 1.0, 0.0], 1),
        "check_predicates": lambda s: lie3.check_predicates(MD, s, 1),
    }.items()},
    "overflowing |sigma|^2 row": (
        lambda: lie3.tension_t2(MD, np.array([SIGMA, [1e200, 0.0, 0.0]])),
        "sigma row 1 must be a unit vector, |sigma|^2 = inf",
    ),
    # A coupling must broadcast to the shape of the verdicts; a scalar always does.
    "coupling shape, one field": (
        lambda: lie3.check_predicates(MD, SIGMA, 1, coupling=[0.5, 2.0]),
        "coupling of shape (2,) does not broadcast to the fields' shape ()",
    ),
    "coupling shape, a stack": (
        lambda: lie3.check_predicates(MD, np.array([SIGMA] * 3), 1, coupling=np.ones(5)),
        "coupling of shape (5,) does not broadcast to the fields' shape (3,)",
    ),
    "coupling shape, skyrmion locus": (
        lambda: lie3.in_skyrmion_locus(MD, SIGMA, np.ones((4, 4))),
        "coupling of shape (4, 4) does not broadcast to the fields' shape ()",
    ),
}
# Each refused coupling as a Python float, an int, a numpy float and a 0-d array:
# one wording whichever type takes which path.
for value, fault in ((np.nan, "finite, got nan"), (0.0, "positive, got 0.0"),
                     (-1.0, "positive, got -1.0"), (np.inf, "finite, got inf")):
    for kind in (float, int, np.float64, np.array):
        if kind is not int or np.isfinite(value):
            CASES[f"coupling {value} as {kind.__name__}"] = (
                lambda c=kind(value): lie3.check_predicates(MD, SIGMA, 1, coupling=c),
                f"coupling must be {fault}",
            )


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


def test_accepted_couplings_broadcast():
    stack = np.array([SIGMA] * 10)[:, None].repeat(4, axis=1)  # (10, 4) fields
    for coupling in (0.5, 2, np.float64(0.5), np.array(0.5), np.full((10, 1), 0.5), np.full(4, 0.5)):
        assert lie3.in_skyrmion_locus(MD, stack, coupling).shape == (10, 4)
        assert lie3.check_predicates(MD, stack, 2, coupling=coupling).coupling is coupling
    assert lie3.check_predicates(MD, SIGMA, 1, coupling=np.array(0.5)).r_harmonic_unit is False


def test_scale_factor_of_any_scalar_type_gives_one_residual():
    # A Python float or int scale factor skips the array path of the positivity check.
    residuals = [mapenergy.conformal_scaling_residual(POINTS, rho, 1) for rho in (2, 2.0, np.float64(2.0), np.array(2.0))]
    assert all(type(x) is np.ndarray and x.shape == (2,) for x in residuals)
    assert all(x.tobytes() == residuals[0].tobytes() for x in residuals)


def test_one_field_checks_call_no_array_finiteness_test(monkeypatch):
    # One finite unit field and a float coupling are checked on Python floats:
    # the array test _finite words refusals and is not reached on this path.
    calls = []
    true_finite = invariants._finite

    def counting(*args, **kwargs):
        calls.append(args[1])
        return true_finite(*args, **kwargs)

    monkeypatch.setattr(invariants, "_finite", counting)
    monkeypatch.setattr(lie3, "_finite", counting)
    for r in (1, 2, 3):
        md = lie3.MilnorData.normalize(np.array([3.0, 1.0, -2.0]))
        sigma = md.permute(np.array([0.0, 0.6, 0.8]))
        lie3.check_predicates(md, sigma, r, coupling=0.7)
        assert not calls, r
    # A stack takes the array path.
    lie3.check_predicates(md, np.array([sigma, sigma]), 1, coupling=0.7)
    assert calls == ["sigma"]
