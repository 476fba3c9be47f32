"""Tour of the small-matrix invariant machinery.

Runs the two independent computation paths for elementary invariants,
evaluates the Newton endomorphisms, and checks the classical identities
they satisfy.
"""

import numpy as np

from hpharmonics import (
    cayley_hamilton_residual,
    check_scaling_identity,
    check_shift_identity,
    elementary_invariants_minors,
    elementary_invariants_newton,
    invariant_derivative,
    newton_endomorphisms,
)

rng = np.random.default_rng(2024)

print("== Elementary invariants: two independent paths ==")
a = np.diag([1.0, 2.0, 3.0])
print("A = diag(1, 2, 3)")
print("  principal-minor sums :", elementary_invariants_minors(a))
print("  Newton-Girard        :", elementary_invariants_newton(a))
print("  (coefficients of (t-1)(t-2)(t-3), as expected)")

b = rng.uniform(-1.0, 1.0, size=(5, 5))
gap = np.max(np.abs(elementary_invariants_minors(b) - elementary_invariants_newton(b)))
print(f"random 5x5: max path disagreement {gap:.2e}")

print()
print("== Newton endomorphisms ==")
chis = newton_endomorphisms(a)
for r, chi in enumerate(chis):
    print(f"  chi_{r} diagonal: {np.diag(chi)}")
print("  chi_3 vanishes because A satisfies its own characteristic polynomial.")
print(f"  worst Cayley-Hamilton residual over 100 random 6x6 draws: "
      f"{max(cayley_hamilton_residual(rng.uniform(-1, 1, (6, 6))) for _ in range(100)):.2e}")

print()
print("== Trace identity: trace(A chi_(r-1)) = r e_r ==")
eps = elementary_invariants_newton(a)
for r in range(1, 4):
    lhs = np.trace(a @ chis[r - 1])
    print(f"  r = {r}: trace = {lhs:.1f}, r*e_r = {r * eps[r]:.1f}")

print()
print("== Shift and scaling identities ==")
print(f"  shift residual, A = diag(1,2,3), r = 2 : {check_shift_identity(a)[2]:.2e}")
print(f"  scaling residual, c = -1.7, r = 3      : {check_scaling_identity(a, -1.7)[3]:.2e}")

print()
print("== Directional derivative of the invariants ==")
direction = np.eye(3)
exact = invariant_derivative(a, direction)[2]
h = 1e-5
fd = (
    elementary_invariants_newton(a + h * direction)[2]
    - elementary_invariants_newton(a - h * direction)[2]
) / (2 * h)
print(f"  d/dt e_2(A + t I) at 0: exact {exact:.6f}, central difference {fd:.6f}")
