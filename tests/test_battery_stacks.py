"""The battery's stacked lie3 properties against their per-trial loops.

Each frame-oracle property draws its trials one at a time and evaluates
them as one stack; it must return exactly the residual or count of the
per-trial loop it replaced.
"""

import numpy as np
import pytest

from hpharmonics import lie3, verify
from hpharmonics.invariants import elementary_invariants_minors
from hpharmonics.lie3 import MilnorData

E = np.eye(3)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _random_structure(rng):
    return MilnorData.normalize(verify._random_lambda(rng))


def _wedge_gram_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        md = _random_structure(rng)
        sigma = rng.uniform(-1.5, 1.5, size=3)
        closed = lie3.wedge_norm_sq(md, sigma)
        oracle = float(elementary_invariants_minors(lie3.vertical_cauchy_green(md, sigma))[2])
        worst = max(worst, _rel(closed, oracle))
    return worst


def _divergence_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        md = _random_structure(rng)
        sigma = verify._random_unit(rng)
        s1 = md.mu * sigma
        closed1 = np.cross(md.mu * s1, s1)
        div1 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_1(md, sigma))
        worst = max(worst, _gap(div1, closed1))
        if lie3.in_h1(md, sigma):
            div2 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_2(md, sigma))
            closed2 = (lie3.grad_norm_sq(md, sigma) - float(s1 @ s1)) * closed1
            worst = max(worst, _gap(div2, closed2))
    return worst


def _tension_loop(rng, trials):
    worst = 0.0
    for rep in verify.ONE_PER_CLASS:
        for _ in range(trials):
            md = lie3.classify_algebra(np.asarray(rep) * rng.uniform(0.4, 1.4))
            sigma = verify._random_unit(rng)
            for r, closed_fn in ((1, lie3.tension_t1), (2, lie3.tension_t2)):
                closed = closed_fn(md, sigma)
                scale = max(1.0, float(np.max(np.abs(closed))))
                gap = float(np.max(np.abs(closed - lie3.tension_assembled(md, sigma, r))))
                worst = max(worst, gap / scale)
    return worst


def _sphere_multiplier_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        md = _random_structure(rng)
        sets = lie3.classify_sets(md)
        for r, tension_fn in ((1, lie3.tension_t1), (2, lie3.tension_t2)):
            sigma = verify._sample_descriptor_member(rng, sets[f"H{r}"])
            if sigma is None:
                continue
            eps_r = float(lie3.vertical_invariants(md, sigma)[r])
            worst = max(worst, abs(float(tension_fn(md, sigma) @ sigma) + r * eps_r))
    return worst


def _first_variation_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        md = _random_structure(rng)
        top = float(np.max(np.abs(md.mu)))
        if top > 1.0:
            md = MilnorData.normalize(md.lam / top)
        sigma = verify._random_unit(rng)
        zeta = rng.normal(size=3)
        zeta -= float(zeta @ sigma) * sigma
        for r in (1, 2):
            worst = max(worst, lie3.first_variation_fd(md, sigma, zeta, r))
    return worst


def _skyrmion_loop(rng, trials):
    bad = 0
    for _ in range(trials):
        md = _random_structure(rng)
        coupling = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        samples = verify._field_samples(rng, 1000, 250)
        direct = lie3.is_eigendirection(md.mu**2 - 0.25 * coupling * md.ricci**2, samples)
        bad += int(np.sum(lie3.in_skyrmion_locus(md, samples, coupling) != direct))
    return float(bad)


def _harmonic_map_loop(rng, trials):
    worst = 0.0
    for rep in verify.CLASS_REPRESENTATIVES:
        md = lie3.classify_algebra(rep)
        for k in range(3):
            for sign in (1.0, -1.0):
                for r in (1, 2, 3):
                    tension = lie3.horizontal_tension(md, sign * E[k], r)
                    worst = max(worst, float(np.linalg.norm(tension)))
    md = lie3.classify_algebra((1.0, 0.0, -1.0))
    for _ in range(trials):
        t = rng.uniform(0.05, np.pi / 2 - 0.05)
        sigma = np.array([np.cos(t), 0.0, np.sin(t)])
        expected = 2.0 * sigma[0] * sigma[2] * np.array([0.0, 1.0, 0.0])
        for r in (1, 2):
            gap = np.abs(lie3.horizontal_tension(md, sigma, r) - expected)
            worst = max(worst, float(np.max(gap)))
        worst = max(worst, float(np.linalg.norm(lie3.horizontal_tension(md, sigma, 3))))
    return worst


def _flip_loop(rng, trials):
    bad = 0
    keys = ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map")
    for _ in range(trials):
        raw = rng.uniform(-1.5, 1.5, size=3)
        sigma_raw = verify._random_unit(rng)
        r = int(rng.integers(1, 4))
        reports = []
        for lam, s_sign in ((raw, 1.0), (raw, -1.0), (-raw, 1.0)):
            md = MilnorData.normalize(lam)
            report = lie3.check_predicates(md, s_sign * md.permute(sigma_raw), r)
            reports.append([getattr(report, key) for key in keys])
        bad += sum(other != reports[0] for other in reports[1:])
    return float(bad)


def _sign_sensitive_z1(md, sigma):
    # A planted fault: parallel verdicts that flip with the sign of sigma.
    return np.asarray(sigma)[..., 0] > 0.0


def _complement_as_skyrmion_locus(md, sigma, coupling):
    # A planted fault: the skyrmion locus read as the complement of H1.
    return ~lie3.in_h1(md, sigma)


# Properties whose residual is a roundoff gap, nonzero at every seed here.
RESIDUAL_PROPERTIES = (
    verify.check_wedge_gram,
    verify.check_divergence_oracles,
    verify.check_tension_oracles,
    verify.check_sphere_multiplier,
    verify.check_first_variation,
)


@pytest.mark.parametrize(
    "check, loop, fault",
    [
        (verify.check_wedge_gram, _wedge_gram_loop, None),
        (verify.check_divergence_oracles, _divergence_loop, None),
        (verify.check_tension_oracles, _tension_loop, None),
        (verify.check_sphere_multiplier, _sphere_multiplier_loop, None),
        (verify.check_first_variation, _first_variation_loop, None),
        (verify.check_harmonic_map_cases, _harmonic_map_loop, None),
        (verify.check_skyrmion_coincidence, _skyrmion_loop, None),
        (
            verify.check_skyrmion_coincidence,
            _skyrmion_loop,
            ("in_skyrmion_locus", _complement_as_skyrmion_locus),
        ),
        (verify.check_flip_invariance, _flip_loop, None),
        (verify.check_flip_invariance, _flip_loop, ("in_z1", _sign_sensitive_z1)),
    ],
)
def test_stacked_lie3_properties_match_per_trial_loops(monkeypatch, check, loop, fault):
    # Same draws in the same order: the stacked property returns exactly the
    # residual or count of the per-trial loop.  Counts are also compared
    # under a planted fault, so that they are nonzero.
    if fault is not None:
        monkeypatch.setattr(lie3, *fault)
    for seed, trials in ((3, 4), (5, 9), (8, 16)):
        stacked = check(np.random.default_rng(seed), trials).residual
        assert stacked == loop(np.random.default_rng(seed), trials), (seed, trials)
        if fault is not None or check in RESIDUAL_PROPERTIES:
            assert stacked > 0.0
