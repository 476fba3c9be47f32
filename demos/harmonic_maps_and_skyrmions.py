"""Skyrmions and harmonic maps into the unit tangent bundle.

Shows that the twisted-skyrmion locus is coupling-independent and equal to
the harmonic locus, and follows one field through the degrees: on the
subalgebra circle of the e(1,1) geometry with opposite structure constants
the horizontal tension obstructs degrees 1 and 2 but cancels identically at
degree 3.
"""

import numpy as np

from hpharmonics import (
    check_predicates,
    classify_algebra,
    horizontal_tension,
    in_h1,
    in_skyrmion_locus,
)

rng = np.random.default_rng(5)

print("== Twisted 2-skyrmions: coupling does not matter ==")
md = classify_algebra((2.0, 1.0, 1.0))
samples = rng.normal(size=(4000, 3))
samples /= np.linalg.norm(samples, axis=1, keepdims=True)
h1_members = in_h1(md, samples)
for coupling in (0.1, 1.0, 10.0):
    sky = in_skyrmion_locus(md, samples, coupling)
    print(f"  coupling {coupling:5.1f}: skyrmion locus == harmonic locus on "
          f"{int(np.sum(sky == h1_members))}/{len(samples)} samples")

print()
print("== Harmonic maps into the unit tangent bundle ==")
print("Principal structure directions are harmonic maps at every degree:")
md = classify_algebra((2.0, 1.0, -1.0))
for r in (1, 2, 3):
    h = horizontal_tension(md, np.eye(3)[1], r)
    print(f"  degree {r}: |horizontal tension| = {np.linalg.norm(h):.2e}")

print()
print("The e(1,1) geometry with lambda = (1, 0, -1): take sigma on the")
print("subalgebra circle (both coefficients nonzero).")
md = classify_algebra((1.0, 0.0, -1.0))
t = 0.6
sigma = np.array([np.cos(t), 0.0, np.sin(t)])
print(f"sigma = {sigma}, harmonic unit field: {in_h1(md, sigma)}")
for r in (1, 2, 3):
    h = horizontal_tension(md, sigma, r)
    verdict = "vanishes -> harmonic map" if np.linalg.norm(h) < 1e-12 else "obstructs"
    print(f"  degree {r}: horizontal tension {np.round(h, 6)}  ({verdict})")

print()
print("== Predicate report for the same field ==")
for r in (1, 2, 3):
    rep = check_predicates(md, sigma, r)
    print(f"  degree {r}: parallel={rep.r_parallel} harmonic_unit={rep.r_harmonic_unit} "
          f"skyrmion={rep.twisted_2_skyrmion} harmonic_map={rep.r_harmonic_map}")
print("(degree 2: the field is Ricci-flat, so it is even an absolute minimizer;")
print(" degree 3: every unit field is harmonic, and this one is also a harmonic map.)")
