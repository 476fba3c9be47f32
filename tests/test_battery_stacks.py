"""The battery's stacked lie3 and mapenergy properties against their
per-trial loops.

Each frame-oracle and map-energy property draws its trials one at a time
and evaluates them as stacks; it must return exactly the residual or count
of the per-trial loop it replaced.  The loops draw through local copies of
the per-trial draw helpers (one QR per matrix, one norm per vector), so
they do not share the battery's stacked assembly.
"""

import dataclasses

import numpy as np
import pytest

from hpharmonics import lie3, mapenergy, verify
from hpharmonics.invariants import elementary_invariants_minors, elementary_invariants_newton
from hpharmonics.lie3 import MilnorData
from hpharmonics.mapenergy import PointData

E = np.eye(3)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _gap(reference, value):
    # max |value - reference| relative to max(1, max |reference|).
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(value - reference))) / scale


def _random_structure(rng):
    return MilnorData.normalize(verify._random_lambda(rng))


def _random_unit(rng):
    # One unit vector, redrawn while its norm is below 1e-8.
    v = rng.normal(size=(3,))
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms < 1e-8):
        v = rng.normal(size=(3,))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return (v / norms).reshape(3)


def _random_spd(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    g = (q * rng.uniform(0.5, 2.0, size=m)) @ q.T
    return 0.5 * (g + g.T)


def _random_point(rng, m, n):
    jac = rng.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(n)
    return PointData(jac, _random_spd(rng, m), _random_spd(rng, n))


def _conformal_point(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    c = rng.uniform(0.5, 1.5)
    return PointData(c * q, np.eye(m), np.eye(m))


def _deficient_point(rng, m, rank):
    left = rng.uniform(-1.0, 1.0, size=(m, rank))
    right = rng.uniform(-1.0, 1.0, size=(rank, m))
    return PointData(left @ right, _random_spd(rng, m), _random_spd(rng, m))


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
        sigma = _random_unit(rng)
        s1 = md.mu * sigma
        closed1 = np.cross(md.mu * s1, s1)
        div1 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_1(md, sigma))
        worst = max(worst, _gap(closed1, div1))
        if lie3.in_h1(md, sigma):
            div2 = lie3.divergence_invariant_tensor(md, lie3.vertical_newton_2(md, sigma))
            closed2 = (lie3.grad_norm_sq(md, sigma) - float(s1 @ s1)) * closed1
            worst = max(worst, _gap(closed2, div2))
    return worst


def _tension_loop(rng, trials):
    worst = 0.0
    for rep in verify.ONE_PER_CLASS:
        for _ in range(trials):
            md = lie3.classify_algebra(np.asarray(rep) * rng.uniform(0.4, 1.4))
            sigma = _random_unit(rng)
            for r, closed_fn in ((1, lie3.tension_t1), (2, lie3.tension_t2)):
                assembled = lie3.tension_assembled(md, sigma, r)
                worst = max(worst, _gap(closed_fn(md, sigma), assembled))
    return worst


def _horizontal_oracle_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        lam = verify._random_lambda(rng)
        q, upper = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma = _random_unit(rng)
        member = verify._sample_descriptor_member(rng, lie3.classify_sets(lam)["H1"])
        md = MilnorData.normalize(lam)
        q = q * np.copysign(1.0, np.diag(upper))
        q = q * np.sign(np.linalg.det(q))
        structure = q.T @ (md.lam[:, None] * q)
        for r, field in ((1, sigma), (2, sigma), (3, member)):
            oracle = np.vecdot(q, lie3._frame_horizontal(structure, np.vecdot(q.T, field), r))
            worst = max(worst, _gap(lie3.horizontal_tension(md, field, r), oracle))
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
        sigma = _random_unit(rng)
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
        sigma_raw = _random_unit(rng)
        r = int(rng.integers(1, 4))
        reports = []
        for lam, s_sign in ((raw, 1.0), (raw, -1.0), (-raw, 1.0)):
            md = MilnorData.normalize(lam)
            report = lie3.check_predicates(md, s_sign * md.permute(sigma_raw), r)
            reports.append([getattr(report, key) for key in keys])
        bad += sum(other != reports[0] for other in reports[1:])
    return float(bad)


_MEMBER = lie3._member


def _sign_sensitive_member(admits, key, sigma):
    # A planted fault in the membership test that check_predicates reads every
    # verdict through: verdicts that flip with the sign of sigma.
    out = _MEMBER(admits, key, sigma)
    flip = np.asarray(sigma)[..., 0] > 0.0
    return out ^ flip.reshape(flip.shape + (1,) * (out.ndim - flip.ndim))


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
    verify.check_horizontal_oracle,
)


@pytest.mark.parametrize(
    "check, loop, fault",
    [
        (verify.check_wedge_gram, _wedge_gram_loop, None),
        (verify.check_divergence_oracles, _divergence_loop, None),
        (verify.check_tension_oracles, _tension_loop, None),
        (verify.check_horizontal_oracle, _horizontal_oracle_loop, None),
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
        (verify.check_flip_invariance, _flip_loop, ("_member", _sign_sensitive_member)),
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


# ---------------------------------------------------------------------------
# map-energy properties: one PointData per trial
# ---------------------------------------------------------------------------


def _eps(point):
    # The invariants the shipped path reports, read through the module so
    # that a planted fault reaches them.
    return mapenergy.density_report(point).eps


def _cauchy_green_gram_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, m + 4))
        point = _random_point(rng, m, n)
        oracle = mapenergy.gram_invariants(point)
        newton = elementary_invariants_newton(mapenergy.cauchy_green(point))
        for eps in (newton, _eps(point)):
            worst = max(worst, float(np.max(verify._rel(eps, oracle))))
        low = float(np.min(mapenergy.stretch_eigenvalues(point)))
        worst = max(worst, max(0.0, -low) * 1e2)
    return worst, ""


def _metric_homogeneity_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        point = _random_point(rng, m, m + 1)
        c = rng.uniform(0.5, 2.0)
        scaled = PointData(point.jacobian, point.domain_metric, c**2 * point.codomain_metric)
        expected = _eps(point) * c ** (2 * np.arange(m + 1))
        worst = max(worst, _gap(expected, _eps(scaled)))
    return worst, ""


def _conformal_invariance_loop(rng, trials):
    worst = 0.0
    for _ in range(trials):
        point = _random_point(rng, 4, int(rng.integers(4, 7)))
        rho = rng.uniform(0.5, 2.0)
        residual = mapenergy.conformal_scaling_residual(point, rho, 2)
        worst = max(worst, residual / max(_eps(point)[2], 1e-300))
    return worst, ""


def _majorisation_loop(rng, trials):
    worst = 0.0
    mismatches = 0
    conformal = [_conformal_point(rng, 4) for _ in range(trials)]
    generic = [_random_point(rng, 4, int(rng.integers(4, 7))) for _ in range(trials)]
    for points, at_conformal in ((conformal, True), (generic, False)):
        for point in points:
            gap = mapenergy.majorisation_gap(point)
            worst = max(worst, -gap / max(_eps(point)[2], 1e-300))
            verdict = mapenergy.r_conformal_check(point, 2)
            if at_conformal:
                mismatches += not (gap <= 1e-9 and verdict)
            else:
                mismatches += (gap <= 1e-9) != verdict
    return worst, f"{mismatches} verdict mismatches"


def _rank_zeroes_loop(rng, trials):
    bad = 0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        rank = int(rng.integers(1, m))
        eps = _eps(_deficient_point(rng, m, rank))
        scale = max(1.0, float(np.max(np.abs(eps))))
        bad += sum((abs(eps[r]) <= 1e-9 * scale) != (rank < r) for r in range(1, m + 1))
    return float(bad), ""


def _inverted_conformal_check(point, r):
    # A planted fault: every r-conformality verdict inverted.
    return np.logical_not(_TRUE_CONFORMAL_CHECK(point, r))


def _shifted_density_report(point):
    # A planted fault on the shipped path: every e_r, r >= 1, raised by 1e-3,
    # so no invariant vanishes.
    report = _TRUE_DENSITY_REPORT(point)
    return dataclasses.replace(report, eps=report.eps + 1e-3 * (np.arange(point.m + 1) > 0))


_TRUE_CONFORMAL_CHECK = mapenergy.r_conformal_check
_TRUE_DENSITY_REPORT = mapenergy.density_report


@pytest.mark.parametrize(
    "check, loop, fault",
    [
        (verify.check_cauchy_green_gram, _cauchy_green_gram_loop, None),
        (verify.check_metric_homogeneity, _metric_homogeneity_loop, None),
        (verify.check_conformal_invariance, _conformal_invariance_loop, None),
        (verify.check_majorisation, _majorisation_loop, None),
        (
            verify.check_majorisation,
            _majorisation_loop,
            ("r_conformal_check", _inverted_conformal_check),
        ),
        (verify.check_rank_zeroes, _rank_zeroes_loop, None),
        (
            verify.check_rank_zeroes,
            _rank_zeroes_loop,
            ("density_report", _shifted_density_report),
        ),
    ],
)
def test_stacked_mapenergy_properties_match_per_trial_loops(monkeypatch, check, loop, fault):
    # Same draws in the same order: the stacked property returns exactly the
    # residual and the count of the per-trial loop.  Counts are also
    # compared under a planted fault, so that they are nonzero.
    if fault is not None:
        monkeypatch.setattr(mapenergy, *fault)
    for seed, trials in ((3, 4), (5, 9), (8, 16)):
        result = check(np.random.default_rng(seed), trials)
        residual, detail = loop(np.random.default_rng(seed), trials)
        assert (result.residual, result.detail) == (residual, detail), (seed, trials)
        if fault is None:
            assert result.passed
        else:
            assert result.residual > 0.0 or detail != "0 verdict mismatches"
            assert not result.passed


# ---------------------------------------------------------------------------
# raw draws assembled per stack against the per-trial helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("count", [1, 5])
def test_stacked_draw_assembly_matches_per_matrix_forms(m, count):
    # One QR and one Q diag(w) Q^T over the stack give, matrix by matrix,
    # exactly the per-draw factorisation and assembly, a stack of one too.
    raw = [verify._random_spd(np.random.default_rng([m, k]), m) for k in range(count)]
    normal, eigenvalues = (np.array(column) for column in zip(*raw))
    stacked = verify._spd(normal, eigenvalues)
    for k in range(count):
        np.testing.assert_array_equal(stacked[k], _random_spd(np.random.default_rng([m, k]), m))

    points = [verify._random_point(np.random.default_rng([m, k]), m, m + 1) for k in range(count)]
    ((point,),) = verify._stacks(points)
    conformal = [verify._conformal_point(np.random.default_rng([m, k]), m) for k in range(count)]
    normal, c = (np.array(column) for column in zip(*conformal))
    scaled = verify._conformal(normal, c)
    for k in range(count):
        single = _random_point(np.random.default_rng([m, k]), m, m + 1)
        for name in ("jacobian", "domain_metric", "codomain_metric"):
            np.testing.assert_array_equal(getattr(point, name)[k], getattr(single, name))
        single = _conformal_point(np.random.default_rng([m, k]), m)
        np.testing.assert_array_equal(scaled[k], single.jacobian)


class _StubGenerator:
    """Serves the given normal triples in turn and counts the calls."""

    def __init__(self, triples):
        self.triples = [np.array(t, dtype=float) for t in triples]
        self.calls = 0

    def normal(self, size):
        assert np.prod(size) == 3
        self.calls += 1
        return self.triples.pop(0).reshape(size)


def test_raw_direction_rejects_as_the_per_trial_helper():
    # A first triple with norm below 1e-8 is drawn again by both, and both
    # return the same unit vector after the same number of draws.
    triples = [(3e-9, -4e-9, 5e-9), (1e-8, 0.0, 0.0), (0.6, -0.0, 0.8)]
    for start in range(len(triples)):
        raw_rng, single_rng = _StubGenerator(triples[start:]), _StubGenerator(triples[start:])
        raw = verify._direction(raw_rng)
        single = _random_unit(single_rng)
        assert raw_rng.calls == single_rng.calls == (2 if start == 0 else 1)
        np.testing.assert_array_equal(verify._unit(raw[None])[0], single)
        np.testing.assert_array_equal(verify._unit(raw), single)


def test_stacked_directions_match_per_trial_normalisation():
    # One norm over a stack of raw directions against one norm per vector.
    rng = np.random.default_rng(11)
    raw = np.array([verify._direction(rng) for _ in range(500)])
    rng = np.random.default_rng(11)
    expected = np.array([_random_unit(rng) for _ in range(500)])
    np.testing.assert_array_equal(verify._unit(raw), expected)


def _frozen_random_lambda(rng):
    if rng.uniform() < 0.5:
        return rng.uniform(-1.5, 1.5, size=3)
    reps = verify.CLASS_REPRESENTATIVES
    return np.asarray(reps[rng.integers(len(reps))]) * rng.uniform(0.4, 1.4)


def _frozen_pole(rng, desc):
    sign = -1.0 if rng.uniform() < 0.5 else 1.0
    k = desc.indices[0] - 1 if desc.kind == "PolarPair" else rng.integers(3)
    return sign * np.eye(3)[k]


def _frozen_direction(rng):
    v = rng.normal(size=3)
    while np.linalg.norm(v, axis=-1) < 1e-8:
        v = rng.normal(size=3)
    return v


def _frozen_random_unit(rng, n):
    v = rng.normal(size=(n, 3))
    while np.any((norms := np.linalg.norm(v, axis=-1, keepdims=True)) < 1e-8):
        v = rng.normal(size=(n, 3))
    return v / norms


def _frozen_descriptor_samples(rng, n):
    chunks = [np.concatenate([np.eye(3), -np.eye(3)])]
    per_circle = max(n - 6, 0) // 3 + 1
    for i, j in ((0, 1), (0, 2), (1, 2)):
        t = rng.uniform(0.0, 2.0 * np.pi, size=per_circle)
        pts = np.zeros((per_circle, 3))
        pts[:, i] = np.cos(t)
        pts[:, j] = np.sin(t)
        chunks.append(pts)
    return np.concatenate(chunks)[:n]


def test_draw_helpers_match_their_frozen_forms_bitwise():
    # _random_lambda, the Jacobian of _random_point, the poles of
    # _sample_descriptor_member, _direction, _random_unit, _unit and
    # _descriptor_samples against the forms they replaced: the same values,
    # bit for bit, from the same generator calls.
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(300):
        assert verify._random_lambda(ours).tobytes() == _frozen_random_lambda(theirs).tobytes()
    for _ in range(300):
        direction = verify._direction(ours)
        assert direction.tobytes() == _frozen_direction(theirs).tobytes()
        unit = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
        assert verify._unit(direction).tobytes() == unit.tobytes()
    for n in (1, 2, 7, 40):
        assert verify._random_unit(ours, n).tobytes() == _frozen_random_unit(theirs, n).tobytes()
    for n in (0, 1, 6, 7, 8, 9, 10, 31):
        samples = verify._descriptor_samples(ours, n)
        assert samples.tobytes() == _frozen_descriptor_samples(theirs, n).tobytes()
    for m, n in ((2, 2), (3, 5), (6, 9)):
        jac = verify._random_point(ours, m, n)[0]
        assert jac.tobytes() == (theirs.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(n)).tobytes()
        for size in (m, n):  # the raw metrics that follow the Jacobian
            verify._random_spd(theirs, size)
    poles = [lie3.SubsetDescriptor.polar_pair(k) for k in (1, 2, 3)]
    for desc in (poles + [lie3.SubsetDescriptor.polar_set()]) * 20:
        pole = verify._sample_descriptor_member(ours, desc)
        assert pole.tobytes() == _frozen_pole(theirs, desc).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
