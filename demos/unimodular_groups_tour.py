"""Geometry of the six unimodular classes and their harmonic unit fields.

Walks the structure-constant representatives, prints curvature data and the
classification of harmonic / minimizing loci, then verifies a few tension
fields against their variational meaning.
"""

import numpy as np

from hpharmonics import (
    classify_algebra,
    classify_sets,
    first_variation_fd,
    grad_norm_sq,
    tension_t1,
    tension_t2,
    vertical_invariants,
)

REPRESENTATIVES = [
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (1.0, 0.0, -1.0),
    (1.0, 1.0, 0.0),
    (2.0, 1.0, -1.0),
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
]

print("== Milnor-style tour of the unimodular classes ==")
header = f"{'lambda':>14} {'class':>8} {'flat':>5} {'ricci':>20} {'H1':>22} {'Z2':>14}"
print(header)
for rep in REPRESENTATIVES:
    md = classify_algebra(rep)
    sets = classify_sets(md)
    lam = ",".join(f"{v:g}" for v in rep)
    ricci = ",".join(f"{v:g}" for v in md.ricci)
    print(
        f"{lam:>14} {md.algebra_class:>8} {str(md.flat):>5} {ricci:>20} "
        f"{str(sets['H1']):>22} {str(sets['Z2']):>14}"
    )

print()
print("== The round 3-sphere (lambda = (1,1,1)) ==")
md = classify_algebra((1.0, 1.0, 1.0))
e1 = np.eye(3)[0]
print("T_1 at a pole:", tension_t1(md, e1), " -> a multiple of the field: harmonic unit field")
print("T_2 at a pole:", tension_t2(md, e1), " -> also a multiple: 2-harmonic unit field")
print("degree densities (1, e1v, e2v, e3v):", vertical_invariants(md, e1))

print()
print("== The flat e2 geometry (lambda = (1,1,0)) ==")
md = classify_algebra((1.0, 1.0, 0.0))
e3 = np.eye(3)[2]
print("|nabla sigma|^2 for sigma = e3:", grad_norm_sq(md, e3), "-> parallel field")
print("T_1:", tension_t1(md, e3), "-> an invariant harmonic vector field of the full bundle")

print()
print("== First variation: the tension really is the negative gradient ==")
rng = np.random.default_rng(11)
md = classify_algebra((0.9, 0.4, -0.3))
worst = 0.0
for _ in range(200):
    v = rng.normal(size=3)
    sigma = v / np.linalg.norm(v)
    zeta = rng.normal(size=3)
    zeta -= (zeta @ sigma) * sigma
    worst = max(worst, first_variation_fd(md, sigma, zeta, 1),
                first_variation_fd(md, sigma, zeta, 2))
print(f"worst |d/dt energy + <T_r, zeta>| over 200 sphere variations: {worst:.2e}")
