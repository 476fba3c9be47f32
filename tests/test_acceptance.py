"""Acceptance battery: every contract criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the criterion.  Trial counts follow the contract; the whole
module stays under a minute on a laptop.
"""

import numpy as np

from hpharmonics import verify


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((20_240_815, tag)))


def _report(criterion: str, result: verify.PropertyResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[{criterion}] {status} {result.name}: residual {result.residual:.3e} "
          f"(tol {result.tolerance:.1e})")
    assert result.passed, result.line()


def test_criterion_01_invariant_oracle_equivalence():
    # minors vs Newton-Girard, 1000 random matrices per dim 2..6, rel 1e-10
    _report("C01", verify.check_invariant_oracles(_rng(1), trials=1000))


def test_criterion_02_cayley_hamilton():
    # top Newton endomorphism vanishes within 1e-9 * scale
    _report("C02", verify.check_cayley_hamilton(_rng(2), trials=1000))


def test_criterion_03_newton_trace_identity():
    # trace(A chi_{r-1}) = r e_r, rel 1e-10, all r
    _report("C03", verify.check_newton_trace(_rng(3), trials=1000))


def test_criterion_04_derivative_finite_difference():
    # exact derivative vs central differences (h = 1e-5), abs 1e-6,
    # 200 pairs per dim 2..6 -> 1000 trials
    _report("C04", verify.check_derivative_fd(_rng(4), trials=200))


def test_criterion_05_conformal_invariance():
    # m=4, r=2: |e_2(rho^2 G) rho^4 - e_2(G)| <= 1e-10 e_2, 100 pairs
    _report("C05", verify.check_conformal_invariance(_rng(5), trials=100))


def test_criterion_06_majorisation():
    # gap >= -1e-10 e_r; gap <= 1e-9 iff conformal verdict,
    # 200 conformal + 200 generic samples
    _report("C06", verify.check_majorisation(_rng(6), trials=200))


def test_criterion_07_wedge_gram_oracle():
    # closed form |sigma|^2 |Ric sigma|^2 / 4 vs Gram determinants,
    # rel 1e-11, 1000 random (lambda, sigma)
    _report("C07", verify.check_wedge_gram(_rng(7), trials=1000))


def test_criterion_08_divergence_oracles():
    # Newton-tensor divergence closed forms vs frame sums, rel 1e-12
    _report("C08", verify.check_divergence_oracles(_rng(8), trials=1000))


def test_criterion_09_tension_oracles():
    # closed-form tensions vs assembled twisted-trace oracle, rel 1e-10,
    # 1000 random unit fields per algebra class
    _report("C09", verify.check_tension_oracles(_rng(9), trials=1000))


def test_criterion_10_sphere_bundle_multiplier():
    # <T_r(sigma), sigma> + r * (degree-r density) <= 1e-10 on harmonic loci
    _report("C10", verify.check_sphere_multiplier(_rng(10), trials=500))


def test_criterion_11_first_variation_fd():
    # finite-difference first variation residual <= 1e-6,
    # 1000 random (md, sigma, zeta), r in {1, 2}
    _report("C11", verify.check_first_variation(_rng(11), trials=1000))


def test_criterion_12_classification_golden():
    # emitted descriptors of all 14 representatives match the golden file
    _report("C12", verify.check_classification_golden(_rng(12), trials=0))


def test_criterion_13_harmonic_union_law():
    # H_r = H_{r-1} union Z_r for r = 2, 3: 10^4 sphere samples per
    # representative, zero counterexamples at tolerance 1e-9
    _report("C13", verify.check_union_consistency(_rng(13), trials=10_000))


def test_criterion_14_harmonic_map_horizontal_tensions():
    # In the geometry with l = (1, 0, -1) (l1 = l2 - l3, and the plane
    # orthogonal to the vanishing constant is a subalgebra), fields on the
    # subalgebra circle with both coefficients nonzero have nonvanishing
    # degree-1 and degree-2 horizontal tensions while degree 3 vanishes.
    _report("C14", verify.check_harmonic_map_cases(_rng(14), trials=100))


def test_criterion_15_skyrmion_coincidence():
    # 500 random (lambda, coupling > 0), 10^3 sampled fields each: the
    # twisted-skyrmion locus equals the harmonic locus, zero counterexamples
    _report("C15", verify.check_skyrmion_coincidence(_rng(15), trials=500))


def test_criterion_16_horizontal_tension_oracle():
    # closed-form horizontal tension vs the connection engine in a random
    # SO(3) frame, rel 1e-10: 1000 random (lambda, frame), general fields at
    # r = 1, 2 and H1 members at r = 3
    _report("C16", verify.check_horizontal_oracle(_rng(16), trials=1000))
