"""Seeded input generators and their references.

Nothing here imports hpharmonics: every reference is computed on another
path than the production one, so a wrong answer from the package cannot be
copied into the reference that judges it.

* lie3 draws are judged by exact rational arithmetic on the unscaled base
  draw (fractions.Fraction holds every double exactly), so the harmonic and
  minimizing loci are decided with no tolerance at all.
* density draws are judged by 40-digit mpmath: Cholesky whitening of the
  domain metric, then sums of principal minors.  A float64 reference is
  itself off by up to 2e-7 on the ill-conditioned metrics drawn here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

#: One structure-constant triple per algebra class and degenerate branch
#: (the same mix the verification battery draws from).
CLASS_REPRESENTATIVES = (
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (1.0, 0.0, -1.0),
    (2.0, 0.0, -1.0),
    (1.0, 1.0, 0.0),
    (2.0, 1.0, 0.0),
    (1.0, 1.0, -1.0),
    (2.0, 1.0, -1.0),
    (3.0, 1.0, -1.0),
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
    (3.0, 1.0, 1.0),
    (2.0, 2.0, 1.0),
    (4.0, 1.0, 1.0),
)

CHECK_KINDS = ("section", "unit-section", "map", "skyrmion")
REFERENCE_DIGITS = 40


# ---------------------------------------------------------------------------
# lie3: structure constants, unit fields, exact loci
# ---------------------------------------------------------------------------


def _exact_curvature(lam):
    lam = [Fraction(x) for x in lam]
    half = sum(lam) / 2
    mu = [half - x for x in lam]
    rho = [2 * mu[1] * mu[2], 2 * mu[0] * mu[2], 2 * mu[0] * mu[1]]
    return mu, rho


def _eigen_groups(diag):
    # Index groups of equal diagonal entries: the eigenspaces of diag(d).
    groups: dict = {}
    for i, d in enumerate(diag):
        groups.setdefault(d, []).append(i)
    return list(groups.values())


def _is_eigendirection(diag, sigma) -> bool:
    return len({diag[i] for i in range(3) if sigma[i] != 0}) <= 1


def lie3_expected(lam, sigma, r: int) -> dict:
    """Exact verdicts for unit field ``sigma`` of the geometry ``lam``.

    H1/H2 are the unit eigenvectors of diag(mu^2)/diag(rho^2), Z1 the
    parallel fields (mu_i = 0 wherever sigma leaves the e_i axis), Z2 the
    Ricci kernel, and H3 = Z3 the whole sphere.
    """
    mu, rho = _exact_curvature(lam)
    s = [Fraction(x) for x in sigma]
    h1 = _is_eigendirection([m * m for m in mu], s)
    h2 = _is_eigendirection([q * q for q in rho], s)
    z1 = all(mu[i] == 0 or all(s[j] == 0 for j in range(3) if j != i) for i in range(3))
    z2 = all(rho[i] * s[i] == 0 for i in range(3))
    return {
        "r_harmonic_unit": {1: h1, 2: h2, 3: True}[r],
        "r_parallel": {1: z1, 2: z2, 3: True}[r],
        "twisted_2_skyrmion": h1,
        # r_harmonic_map is pinned by the loci only at degree 3.
        "r_harmonic_map": h1 if r == 3 else None,
    }


def _unit(rng: np.random.Generator, support) -> list:
    v = np.zeros(3)
    while True:
        v[list(support)] = rng.normal(size=len(support))
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return [float(x) for x in v / norm]


def lie3_draw(rng: np.random.Generator, index: int) -> dict:
    """One `check` request: raw lambda (maybe scaled by 10^u), a unit field
    in input order, a degree and a coupling, with its exact verdicts.

    The categorical choices are stratified on ``index`` (every block of 24
    consecutive draws holds each combination once), so every pool has
    exactly the stated mix and its cost does not drift with the seed.
    """
    generic_lam, scaled, generic_sigma = (bool(index >> k & 1) for k in range(3))
    r = 1 + index // 8 % 3
    if generic_lam:
        base = [float(x) for x in rng.uniform(-1.5, 1.5, size=3)]
    else:
        rep = CLASS_REPRESENTATIVES[rng.integers(len(CLASS_REPRESENTATIVES))]
        c = float(rng.uniform(0.4, 1.4))
        base = [x * c for x in rep]
    u = float(rng.uniform(-120.0, 120.0)) if scaled else 0.0
    lam = [x * 10.0**u for x in base] if u else list(base)
    if generic_sigma:
        sigma = _unit(rng, range(3))
    else:
        mu, rho = _exact_curvature(base)
        diag = [m * m for m in mu] if rng.uniform() < 0.5 else [q * q for q in rho]
        groups = _eigen_groups(diag)
        sigma = _unit(rng, groups[rng.integers(len(groups))])
    coupling = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
    return {
        "lam": lam,
        "sigma": sigma,
        "r": r,
        "coupling": coupling,
        "log10_scale": u,
        "expected": lie3_expected(base, sigma, r),
    }


# ---------------------------------------------------------------------------
# mapenergy: Jacobians and metrics, 40-digit invariants
# ---------------------------------------------------------------------------


def _spd(rng: np.random.Generator, size: int, cond: float) -> np.ndarray:
    # Random rotation, eigenvalues spread geometrically over exactly `cond`.
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    t = np.concatenate([[-0.5, 0.5], rng.uniform(-0.5, 0.5, size=size - 2)])
    g = (q * cond**t) @ q.T
    return 0.5 * (g + g.T)


def density_reference(jac, dom, cod) -> dict:
    """eps_0..eps_m of G^-1 J^T H J and the volume density sqrt(eps_m),
    from 40-digit Cholesky whitening and principal-minor sums."""
    with mpmath.workdps(REFERENCE_DIGITS):
        j = mpmath.matrix(jac)
        p = j.T * mpmath.matrix(cod) * j
        low_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(dom)))
        b = low_inv * p * low_inv.T
        m = b.rows
        eps = [mpmath.mpf(1)]
        for r in range(1, m + 1):
            total = mpmath.mpf(0)
            for subset in combinations(range(m), r):
                minor = mpmath.matrix(r, r)
                for a, i in enumerate(subset):
                    for c, k in enumerate(subset):
                        minor[a, c] = b[i, k]
                total += mpmath.det(minor)
            eps.append(total)
        return {
            "eps": [float(e) for e in eps],
            "volume_density": float(mpmath.sqrt(eps[m])),
        }


def density_draw(rng: np.random.Generator, index: int, with_reference: bool = True) -> dict:
    """One `density` request: m in 2..6, n in m..m+3, cond(G) log-uniform on
    [1, 1e6], cond(H) log-uniform on [1, 1e2], J ~ U(-1, 1) * 10^U(-1, 1).

    m is stratified on ``index`` (m = 2 + index mod 5): op cost grows
    steeply with m, so an even mix keeps pool cost steady across seeds.
    """
    m = 2 + index % 5
    n = int(rng.integers(m, m + 4))
    cond_g = 10.0 ** rng.uniform(0.0, 6.0)
    cond_h = 10.0 ** rng.uniform(0.0, 2.0)
    jac = rng.uniform(-1.0, 1.0, size=(n, m)) * 10.0 ** rng.uniform(-1.0, 1.0)
    dom = _spd(rng, m, cond_g)
    cod = _spd(rng, n, cond_h)
    draw = {
        "J": jac.tolist(),
        "G": dom.tolist(),
        "H": cod.tolist(),
        "r": int(rng.integers(1, m + 1)),
        "cond_g": cond_g,
    }
    if with_reference:
        draw["expected"] = density_reference(draw["J"], draw["G"], draw["H"])
    return draw


# ---------------------------------------------------------------------------
# CLI argument vectors drawn from the two generators above
# ---------------------------------------------------------------------------


def _triple_arg(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _matrix_arg(rows) -> str:
    return ";".join(_triple_arg(row) for row in rows)


def cli_draw(rng: np.random.Generator, index: int) -> list[str]:
    """One `python -m hpharmonics ... --json` argument vector.  Values are
    attached with `=`, since a leading minus sign would read as an option."""
    kind = index % 3
    if kind == 2:
        d = density_draw(rng, index // 3, with_reference=False)
        return [
            "density",
            "--J=" + _matrix_arg(d["J"]),
            "--G=" + _matrix_arg(d["G"]),
            "--H=" + _matrix_arg(d["H"]),
            f"--r={d['r']}",
            "--json",
        ]
    d = lie3_draw(rng, index // 3)
    if kind == 0:
        return ["classify", "--lambda=" + _triple_arg(d["lam"]), "--json"]
    return [
        "check",
        "--lambda=" + _triple_arg(d["lam"]),
        "--sigma=" + _triple_arg(d["sigma"]),
        f"--r={d['r']}",
        "--kind=" + CHECK_KINDS[rng.integers(len(CHECK_KINDS))],
        f"--coupling={d['coupling']!r}",
        "--json",
    ]
