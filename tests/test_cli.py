import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpharmonics.lie3 as lie3
from hpharmonics import cli, invariants, mapenergy, verify


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _strict_json(text):
    """Parse a report as strict JSON: Python's nan/inf tokens fail."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_classify_nil_table(capsys):
    code, out, _ = _run(capsys, ["classify", "--lambda", "1,0,0"])
    assert code == 0
    assert "nil" in out
    assert "H1               : Sphere" in out
    assert "Z1               : Empty" in out
    code, out, _ = _run(capsys, ["classify", "--lambda", "2,1,1"])
    assert code == 0
    assert "H2               : Circle(2,3) U PolarPair(1)" in out


def test_classify_abelian_json(capsys):
    code, out, _ = _run(capsys, ["classify", "--lambda", "0,0,0", "--json"])
    assert code == 0
    doc = _strict_json(out)
    assert doc["algebra_class"] == "abelian"
    assert doc["sets"]["Z1"] == {"kind": "Sphere"}
    assert doc["schema_version"] == "1"


def test_classify_sl2_degenerate(capsys):
    code, out, _ = _run(capsys, ["classify", "--lambda", "2,1,-1", "--json"])
    assert code == 0
    doc = _strict_json(out)
    assert doc["algebra_class"] == "sl2"
    assert doc["sets"]["Z2"] == {"kind": "Circle", "indices": [1, 3]}
    assert doc["sets"]["H1"] == {"kind": "PolarSet"}


def test_classify_json_roundtrip_is_stable(capsys):
    code, out, _ = _run(capsys, ["classify", "--lambda", "2,1,-1", "--json"])
    assert code == 0
    doc = _strict_json(out)
    assert cli.dumps_report(doc) + "\n" == out


def test_check_round_sphere_pole(capsys):
    code, out, _ = _run(
        capsys,
        ["check", "--lambda", "1,1,1", "--sigma", "1,0,0", "--r", "1", "--kind", "unit-section"],
    )
    assert code == 0
    assert "holds" in out
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--lambda", "1,1,1",
            "--sigma", "1,0,0",
            "--r", "1",
            "--kind", "unit-section",
            "--json",
        ],
    )
    doc = _strict_json(out)
    np.testing.assert_allclose(doc["predicates"]["vertical_tension"], [-0.5, 0.0, 0.0])
    # Nil has H1 = Sphere at every scale; the eigenvector residual must not
    # overflow for |lambda| = 1e100.
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = _run(
            capsys,
            [
                "check",
                "--lambda", "1e100,0,0",
                "--sigma", "1,1,0",
                "--r", "1",
                "--kind", "unit-section",
            ],
        )
    assert code == 0
    assert "r_harmonic_unit    : True" in out


def test_check_ricci_flat_section(capsys):
    code, _, _ = _run(
        capsys,
        ["check", "--lambda", "1,0,-1", "--sigma", "1,0,1", "--r", "2", "--kind", "section"],
    )
    assert code == 0
    # Nil has Z1 = Empty at every scale; mu^2 underflows at 1e-170.
    code, out, _ = _run(
        capsys,
        ["check", "--lambda", "1e-170,0,0", "--sigma", "0,1,1", "--r", "1", "--kind", "section"],
    )
    assert code == 1
    assert "r_parallel         : False" in out


def test_check_survives_horizontal_tension_overflow(capsys):
    # The degree-3 horizontal tension of this field in H1 leaves the float
    # range; the verdicts stand and the tension is reported as None.
    argv = [
        "check",
        "--lambda=4.1587337981970593e+99,0.0,-2.0793668990985297e+99",
        "--sigma=-0.9957791567572211,0.0,0.09178164831750239",
        "--r=3",
        "--kind=map",
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = _run(capsys, argv)
    assert code == 0
    assert "r_harmonic_map     : True" in out
    assert "horizontal tension : None" in out


def test_check_reports_overflow_as_null(capsys):
    # mu^2 ~ 1e240 overflows the degree-2 vertical tension and energy: both
    # are null, as the horizontal tension already was, and the verdicts stand.
    argv = ["check", "--lambda", "1e120,0,0", "--sigma", "1,1,0", "--r", "2", "--kind", "map"]
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = _run(capsys, argv + ["--json"])
    assert code == 1
    block = _strict_json(out)["predicates"]
    assert block["vertical_tension"] is None
    assert block["horizontal_tension"] is None
    assert block["vertical_energy"] is None
    assert block["twisted_2_skyrmion"] is True


def test_check_overflowing_energy_is_not_a_refusal(capsys):
    # The degree-1 energy mu^2 ~ 1e340 leaves the float range; the map
    # verdict (false: (1,1,0) is no structure eigenvector) still decides.
    argv = ["check", "--lambda", "1e170,0,0", "--sigma", "1,1,0", "--r", "1", "--kind", "map"]
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = _run(capsys, argv)
    assert (code, err) == (1, "")
    assert "requested (map, r=1): fails" in out


def test_check_normalizes_sigma_at_extreme_scales(capsys):
    # |sigma| underflows (1e-200) or overflows (1e200) in a plain norm; the
    # unit field and every predicate must match the unscaled input.
    for tiny, plain, want in (("1e-200,0,0", "1,0,0", 0), ("1e200,1e200,0", "1,1,0", 1)):
        blocks = []
        for sigma in (tiny, plain):
            code, out, err = _run(
                capsys,
                [
                    "check",
                    "--lambda", "2,1,-1",
                    "--sigma", sigma,
                    "--r", "1",
                    "--kind", "unit-section",
                    "--json",
                ],
            )
            assert (code, err) == (want, ""), sigma
            blocks.append(_strict_json(out)["predicates"])
        assert blocks[0] == blocks[1]


def test_check_principal_direction_map(capsys):
    code, _, _ = _run(
        capsys,
        ["check", "--lambda", "2,1,-1", "--sigma", "0,1,0", "--r", "2", "--kind", "map"],
    )
    assert code == 0


def test_check_failing_predicate_exits_one(capsys):
    code, out, _ = _run(
        capsys,
        ["check", "--lambda", "2,1,-1", "--sigma", "1,0,1", "--r", "1", "--kind", "unit-section"],
    )
    assert code == 1
    assert "fails" in out


def test_check_verdicts_match_the_printed_descriptors(capsys):
    # H1 of (3, 2, 0.5) is PolarSet, which does not hold sigma = (1e-8, 1, 0):
    # |sigma_1| exceeds TOL.  The eigenvector residual, about |sigma_1| times
    # a gap of mu^2, used to call it harmonic; every verdict is now
    # membership in the descriptor that the same report prints.
    argv = ["check", "--lambda=3,2,0.5", "--sigma=1e-8,1,0", "--r", "1", "--kind"]
    code, out, _ = _run(capsys, argv + ["unit-section", "--json"])
    assert code == 1
    doc = _strict_json(out)
    assert doc["sets"]["H1"] == {"kind": "PolarSet"}
    assert doc["predicates"]["r_harmonic_unit"] is False
    assert doc["predicates"]["twisted_2_skyrmion"] is False
    code, out, _ = _run(capsys, argv + ["skyrmion"])
    assert code == 1 and "requested (skyrmion, r=1): fails" in out


def test_check_skyrmion_any_coupling(capsys):
    for coupling in ("0.5", "3.7"):
        code, _, _ = _run(
            capsys,
            [
                "check",
                "--lambda", "2,1,1",
                "--sigma", "0,0.6,0.8",
                "--r", "2",
                "--kind", "skyrmion",
                "--coupling", coupling,
            ],
        )
        assert code == 0


def test_check_sigma_follows_input_order(capsys):
    # raw lambda (0,1,-1) normalizes to (1,0,-1); the sigma slot pointing at
    # the raw value 1 must land on the first normalized axis.
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--lambda", "0,1,-1",
            "--sigma", "0,1,0",
            "--r", "1",
            "--kind", "unit-section",
            "--json",
        ],
    )
    assert code == 0
    doc = _strict_json(out)
    np.testing.assert_allclose(doc["predicates"]["sigma_unit"], [1.0, 0.0, 0.0])


def test_reports_echo_normalization(capsys):
    # (0,-1,-1) has more negative than positive entries, so it is flipped to
    # (0,1,1), and the tie 1 = 1 keeps input order: (1,1,0) from slots 2,3,1.
    code, out, _ = _run(capsys, ["classify", "--lambda=0,-1,-1", "--json"])
    assert code == 0
    assert _strict_json(out)["normalized"] == {
        "lambda": [1, 1, 0],
        "permutation": [2, 3, 1],
        "sign_flipped": True,
    }
    code, out, _ = _run(
        capsys,
        ["check", "--lambda=0,-1,-1", "--sigma", "0,1,0", "--r", "1", "--kind", "map", "--json"],
    )
    assert code == 0
    assert _strict_json(out)["predicates"]["sigma_unit"] == [1, 0, 0]


def test_json_is_strict_once_values_overflow(capsys):
    # Each report writes null where a value leaves the float range, never a
    # bare inf or nan token, and the verdicts stand.
    big = "1e100,0,0,0;0,1e100,0,0;0,0,1e100,0;0,0,0,1e100"
    eye = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    code, out, _ = _run(
        capsys, ["density", "--J", big, "--G", eye, "--H", eye, "--r", "2", "--json"]
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["eps"][:2] == [1, 4e200]
    assert doc["eps"][2:] == [None, None, None]
    assert doc["volume_density"] is None
    assert doc["majorisation_gap"] is None
    code, out, _ = _run(capsys, ["classify", "--lambda=1e200,1e200,-1e200", "--json"])
    assert code == 0
    doc = _strict_json(out)
    assert doc["algebra_class"] == "sl2"
    assert doc["ricci"] == [None, None, None]
    assert doc["sectional"] == [None, None, None]
    code, out, _ = _run(
        capsys,
        ["check", "--lambda=1e200,1e200,-1e200", "--sigma", "1,0,0", "--r", "1", "--kind", "map",
         "--json"],
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["ricci"] == [None, None, None]
    assert doc["predicates"]["r_harmonic_map"] is True


@pytest.mark.parametrize(
    "scaled, unit",
    [("1e200,1e200,-1e200", "1,1,-1"), ("2e-170,1e-170,-1e-170", "2,1,-1")],
)
def test_classify_decides_sl2_on_the_unit_scale(capsys, scaled, unit):
    # No sl2 metric is flat: class, flatness, Ricci kernel and every locus of
    # a scaled triple are those of its unit-scale triple, in JSON and text.
    verdicts = ("algebra_class", "flat", "ricci_kernel_dim", "sets")
    docs = []
    for lam in (scaled, unit):
        code, out, _ = _run(capsys, ["classify", f"--lambda={lam}", "--json"])
        assert code == 0
        docs.append({key: _strict_json(out)[key] for key in verdicts})
    assert docs[0] == docs[1]
    assert docs[0]["flat"] is False
    values = {"lambda (norm.)", "mu", "ricci", "sectional K"}  # reported at the input's scale
    texts = []
    for lam in (scaled, unit):
        code, out, _ = _run(capsys, ["classify", f"--lambda={lam}"])
        assert code == 0
        labels = [line.split(":")[0].strip() for line in out.splitlines()]
        texts.append([line for line, label in zip(out.splitlines(), labels) if label not in values])
    assert texts[0] == texts[1]
    assert "flat             : False" in texts[0]


def test_check_decides_predicates_on_the_unit_scale(capsys):
    # mu^2 and rho^2 of this sl2 triple leave the float range; the verdicts
    # are those of (2, 1, -1): e2 is in H1, and e1 in the Ricci kernel.
    lam = "--lambda=2e170,1e170,-1e170"
    for sigma, r, line in (("0,1,0", "1", "r_harmonic_unit    : True"),
                           ("1,0,0", "2", "r_parallel         : True")):
        argv = ["check", lam, f"--sigma={sigma}", "--r", r, "--kind", "unit-section"]
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert line in out, argv


@pytest.mark.parametrize(
    "lam, h2",
    [
        # Near-flat: two mu negligible, so Z2 = H2 = Sphere at every scale.
        ("0,1,1.000000000000341", "Sphere"),
        ("0,1e170,1.000000000000341e170", "Sphere"),
        ("0,1e-170,1.000000000000341e-170", "Sphere"),
        # Two rho^2 within the tolerance band, but mu_2 is not negligible and
        # no two mu^2 tie: H2 = H1 union Z2 = PolarSet.
        ("1.1001336551940688,0.14421341896135775,-0.9559467023566952", "PolarSet"),
    ],
)
def test_classify_h2_is_h1_union_z2(capsys, lam, h2):
    code, out, _ = _run(capsys, ["classify", f"--lambda={lam}"])
    assert code == 0
    assert f"H2               : {h2}" in out


def test_classify_and_check_derive_geometry_once(monkeypatch, capsys):
    derived = []
    true_classify = lie3.classify_algebra

    def counting(sc):
        if not isinstance(sc, lie3.MilnorData):
            derived.append(sc)
        return true_classify(sc)

    monkeypatch.setattr(lie3, "classify_algebra", counting)
    for argv in (
        ["classify", "--lambda", "2,1,-1"],
        ["classify", "--lambda", "2,1,-1", "--json"],
        ["check", "--lambda", "2,1,1", "--sigma", "0,1,1", "--r", "2", "--kind", "skyrmion"],
        ["check", "--lambda", "1,1,1", "--sigma", "1,0,0", "--r", "3", "--kind", "map", "--json"],
    ):
        derived.clear()
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert len(derived) == 1, argv
        if "--json" in argv:
            _strict_json(out)


def test_check_zero_sigma_is_invalid(capsys):
    code, _, err = _run(
        capsys,
        ["check", "--lambda", "1,1,1", "--sigma", "0,0,0", "--r", "1", "--kind", "map"],
    )
    assert code == 2
    assert "error" in err


def test_density_identity(capsys):
    code, out, _ = _run(
        capsys,
        ["density", "--J", "1,0;0,1", "--G", "1,0;0,1", "--H", "1,0;0,1", "--r", "1", "--json"],
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["eps"] == [1, 2, 1]
    assert doc["volume_density"] == 1
    assert doc["r_conformal"] is True
    assert doc["majorisation_gap"] == pytest.approx(0.0)
    code, out, _ = _run(
        capsys, ["density", "--J", "1,0;0,1", "--G", "1,0;0,1", "--H", "1,0;0,1", "--r", "1"]
    )
    assert code == 0
    assert out.splitlines() == [
        "eps             : [1.0, 2.0, 1.0]",
        "volume density  : 1.0",
        "r-conformal     : True (r=1)",
        "majorisation gap: 0.0",
        "invariance resid: 0.0 (rho=1.7)",
    ]


def test_density_majorisation_example(capsys):
    code, out, _ = _run(
        capsys,
        [
            "density",
            "--J", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,2",
            "--G", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
            "--H", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
            "--r", "2",
            "--json",
        ],
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["majorisation_gap"] == pytest.approx(3.0)
    assert doc["conformal_invariance"]["residual"] <= 1e-10 * doc["eps"][2]


def test_density_validates_each_metric_once(monkeypatch, capsys):
    # At m = 2r the report also checks rho^2 G for its conformal residual:
    # G, H and rho^2 G are validated and factored once each.
    calls = []
    true_check = mapenergy._check_metric

    def counting(g, name):
        calls.append(name)
        return true_check(g, name)

    monkeypatch.setattr(mapenergy, "_check_metric", counting)
    eye = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    code, _, _ = _run(
        capsys,
        ["density", "--J", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,2", "--G", eye, "--H", eye, "--r", "2"],
    )
    assert code == 0
    assert calls == ["domain metric", "codomain metric", "domain metric"]


def test_density_file_payload(tmp_path, capsys):
    payload = {"J": [[1.0, 0.0], [0.0, 1.0]], "G": [[1.0, 0.0], [0.0, 1.0]], "H": [[2.0, 0.0], [0.0, 2.0]]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, ["density", "--file", str(path), "--r", "1", "--json"])
    assert code == 0
    doc = _strict_json(out)
    assert doc["eps"] == [1, 4, 4]
    del payload["H"]
    path.write_text(json.dumps(payload))
    code, _, err = _run(capsys, ["density", "--file", str(path), "--r", "1"])
    assert code == 2
    assert "missing keys ['H']" in err


def test_density_file_list_of_points(tmp_path, capsys):
    # A list of points, of mixed shapes, is evaluated point by point;
    # each point's report equals the single-object report of that point.
    rng = np.random.default_rng(4)
    points = []
    for m, n in ((2, 2), (4, 5), (2, 2), (4, 4), (4, 5)):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        points.append(
            {
                "J": rng.uniform(-1.0, 1.0, size=(n, m)).tolist(),
                "G": ((q * rng.uniform(0.5, 2.0, size=m)) @ q.T).round(12).tolist(),
                "H": np.eye(n).tolist(),
            }
        )
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out, _ = _run(capsys, ["density", "--file", str(path), "--r", "2", "--json"])
    assert code == 0
    docs = _strict_json(out)
    code, text, _ = _run(capsys, ["density", "--file", str(path), "--r", "2"])
    assert code == 0
    assert len(docs) == len(points)
    blocks = text.split("point ")[1:]
    for k, point in enumerate(points):
        single = tmp_path / f"point{k}.json"
        single.write_text(json.dumps(point))
        _, alone, _ = _run(capsys, ["density", "--file", str(single), "--r", "2", "--json"])
        assert docs[k] == _strict_json(alone)
        _, alone, _ = _run(capsys, ["density", "--file", str(single), "--r", "2"])
        assert blocks[k] == f"{k}:\n" + alone


def test_density_builds_each_point_alone_and_once(tmp_path, monkeypatch, capsys):
    # Every PointData that density builds holds one point; a list whose last
    # point is not positive-definite builds one per point, the refused one too.
    shapes = []
    true_post_init = mapenergy.PointData.__post_init__

    def recording(self):
        shapes.append(np.shape(self.jacobian))
        true_post_init(self)

    monkeypatch.setattr(mapenergy.PointData, "__post_init__", recording)
    eye = [[1.0, 0.0], [0.0, 1.0]]
    points = [{"J": eye, "G": eye, "H": eye} for _ in range(3)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    assert _run(capsys, ["density", "--file", str(path), "--r", "1", "--json"])[0] == 0
    assert shapes == [(2, 2)] * 3
    shapes.clear()
    points[2]["G"] = [[1.0, 0.0], [0.0, -1.0]]
    path.write_text(json.dumps(points))
    code, _, err = _run(capsys, ["density", "--file", str(path), "--r", "1", "--json"])
    assert code == 2 and "point 2: domain metric is not positive-definite" in err
    assert shapes == [(2, 2)] * 3


def test_density_reports_a_probe_out_of_range_as_null(tmp_path, capsys):
    # 1.7^2 G overflows, so the conformal probe has no residual; eps, the
    # volume density and the Newton tensors are finite and are reported.
    flags = ["--J", "1,0;0,1", "--G", "1e308,1;1.0000000001,1", "--H", "1,0;0,1", "--r", "1"]
    code, out, err = _run(capsys, ["density"] + flags + ["--json"])
    assert (code, err) == (0, "")
    doc = _strict_json(out)
    assert doc["conformal_invariance"] == {"probe_rho": 1.7, "residual": None}
    assert doc["eps"][2] == pytest.approx(1e-308, rel=1e-12)
    assert doc["majorisation_gap"] == pytest.approx(1.0)
    code, out, _ = _run(capsys, ["density"] + flags)
    assert code == 0 and "invariance resid: None (rho=1.7)" in out
    # In a list, only that point's residual is null.
    eye = [[1.0, 0.0], [0.0, 1.0]]
    huge = [[1e308, 1.0], [1.0000000001, 1.0]]
    points = [{"J": eye, "G": eye, "H": eye}, {"J": eye, "G": huge, "H": eye}]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points + points[:1]))
    code, out, _ = _run(capsys, ["density", "--file", str(path), "--r", "1", "--json"])
    assert code == 0
    docs = _strict_json(out)
    residuals = [d["conformal_invariance"]["residual"] for d in docs]
    assert residuals == [0.0, None, 0.0]
    assert docs[1] == doc
    # The library call itself still refuses.
    point = mapenergy.PointData(np.eye(2), np.array(huge), np.eye(2))
    with pytest.raises(ValueError, match="rho\\^2 G out of the float range"):
        mapenergy.conformal_scaling_residual(point, 1.7, 1)


def test_density_file_refuses_what_is_not_one_point(tmp_path, capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "point.json"
    for payload, message in (
        ({"J": [eye, eye], "G": [eye, eye], "H": [eye, eye]}, "jacobian must be 2-D"),
        (7, "a point must be a JSON object"),
    ):
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, ["density", "--file", str(path), "--r", "1"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pts: pts[1].update(J=[[1.0], [0.0]], G=[[1.0]]), "point 1: --r must be in 1..1, got 2"),
        (lambda pts: pts[2].update(G=[[1.0, 0.0], [0.0, -1.0]]), "point 2: domain metric is not"),
        (lambda pts: pts[2].pop("H"), "point 2: payload file is missing keys ['H']"),
        (lambda pts: pts.__setitem__(1, [1.0]), "point 1: a point must be a JSON object"),
        (lambda pts: pts[0].update(J=[1.0, 0.0]), "point 0: jacobian must be 2-D"),
        (lambda pts: pts[1].update(J=[pts[1]["J"]]), "point 1: jacobian must be 2-D"),
        (lambda pts: pts[1].update(G=[pts[1]["G"]]), "point 1: jacobian and metrics must share"),
        (lambda pts: pts.clear(), "empty list"),
    ],
)
def test_density_file_list_refusal_names_the_point(tmp_path, capsys, edit, message):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    points = [{"J": eye, "G": eye, "H": eye} for _ in range(3)]
    edit(points)
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out, err = _run(capsys, ["density", "--file", str(path), "--r", "2", "--json"])
    assert (code, out) == (2, "")
    assert message in err


def test_density_rejects_non_spd_metric(capsys):
    code, _, err = _run(
        capsys,
        ["density", "--J", "1,0;0,1", "--G", "1,0;0,-1", "--H", "1,0;0,1", "--r", "1"],
    )
    assert code == 2
    assert "positive-definite" in err
    for jac, message in (("1,a;0,1", "could not parse"), ("1,0;0", "ragged")):
        code, _, err = _run(
            capsys, ["density", "--J", jac, "--G", "1,0;0,1", "--H", "1,0;0,1", "--r", "1"]
        )
        assert code == 2
        assert message in err
    code, _, err = _run(
        capsys, ["density", "--J", "1,0;0,1", "--G", "1,0;0,1", "--H", "1,0;0,1", "--r", "3"]
    )
    assert code == 2
    assert "--r must be in 1..2" in err


def test_density_requires_payload(capsys):
    code, _, err = _run(capsys, ["density", "--r", "1"])
    assert code == 2
    assert "--file" in err


def test_bad_lambda_exits_two(capsys):
    code, _, err = _run(capsys, ["classify", "--lambda", "1,banana,0"])
    assert code == 2
    assert "error" in err
    code, _, _ = _run(capsys, ["classify", "--lambda", "1,0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "--lambda=1,1,1", "--sigma=inf,0,0", "--r=1", "--kind=map"], "--sigma"),
        (["check", "--lambda=1,1,1", "--sigma=1,nan,0", "--r=2", "--kind=map"], "--sigma"),
        (["check", "--lambda=1,-inf,0", "--sigma=1,0,0", "--r=1", "--kind=map"], "--lambda"),
        (["classify", "--lambda=nan,0,0"], "--lambda"),
    ],
)
def test_non_finite_triple_names_its_flag(capsys, argv, flag):
    code, out, err = _run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith(f"error: {flag} has non-finite components")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["classify", "--lambda", "1,0,0", "--bogus"])
    assert excinfo.value.code == 2


def test_verify_small_run_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--trials", "3"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_refuses_a_negative_seed(capsys):
    code, out, err = _run(capsys, ["verify", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_verify_deterministic_output(capsys):
    _, first, _ = _run(capsys, ["verify", "--seed", "7", "--trials", "2"])
    _, second, _ = _run(capsys, ["verify", "--seed", "7", "--trials", "2"])
    assert first == second


def test_verify_detects_injected_fault(monkeypatch, capsys):
    true_t2 = lie3.tension_t2

    def broken(md, sigma):
        return true_t2(md, sigma) + np.array([0.0, 1e-3, 0.0])

    monkeypatch.setattr(lie3, "tension_t2", broken)
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--trials", "3"])
    assert code == 1
    assert "FAIL" in out

    # A horizontal tension off by 1e-3 fails against the connection engine.
    monkeypatch.undo()
    true_horizontal = lie3.horizontal_tension

    def bent(md, sigma, r):
        return true_horizontal(md, sigma, r) + np.array([0.0, 0.0, 1e-3])

    monkeypatch.setattr(lie3, "horizontal_tension", bent)
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--trials", "3"])
    assert code == 1
    assert "FAIL horizontal_tension_oracle" in out

    # Invariants of the shipped density path with e_m off by 1e-3: the
    # map-energy properties read them, so more than the minors oracle fails.
    monkeypatch.undo()
    true_report = mapenergy.density_report

    def shifted(point):
        report = true_report(point)
        eps = report.eps + 1e-3 * (np.arange(point.m + 1) == point.m)
        return dataclasses.replace(report, eps=eps)

    monkeypatch.setattr(mapenergy, "density_report", shifted)
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--trials", "3"])
    assert code == 1
    for name in ("cauchy_green_gram_oracle", "codomain_homogeneity", "rank_vanishing"):
        assert f"FAIL {name}" in out


def _with_nan(value):
    # ``value`` with its last entry NaN; a density report with its last invariant NaN.
    if isinstance(value, mapenergy.DensityReport):
        return dataclasses.replace(value, eps=_with_nan(value.eps))
    value = np.array(value, dtype=float)
    value.flat[-1] = np.nan
    return value


def _plant_nan(monkeypatch, module, name):
    true_fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: _with_nan(true_fn(*args)))


# Each residual property and one shipped function it reads.
NAN_PLANTS = (
    (verify.check_invariant_oracles, invariants, "elementary_invariants_newton"),
    (verify.check_cayley_hamilton, invariants, "cayley_hamilton_residual"),
    (verify.check_newton_trace, invariants, "elementary_invariants_newton"),
    (verify.check_shift_scaling, invariants, "check_shift_identity"),
    (verify.check_derivative_fd, invariants, "invariant_derivative"),
    (verify.check_cauchy_green_gram, mapenergy, "stretch_eigenvalues"),
    (verify.check_metric_homogeneity, mapenergy, "density_report"),
    (verify.check_conformal_invariance, mapenergy, "conformal_scaling_residual"),
    (verify.check_majorisation, mapenergy, "majorisation_gap"),
    (verify.check_wedge_gram, lie3, "wedge_norm_sq"),
    (verify.check_divergence_oracles, lie3, "divergence_invariant_tensor"),
    (verify.check_tension_oracles, lie3, "tension_t1"),
    (verify.check_sphere_multiplier, lie3, "tension_t1"),
    (verify.check_first_variation, lie3, "first_variation_fd"),
    (verify.check_harmonic_map_cases, lie3, "horizontal_tension"),
    (verify.check_horizontal_oracle, lie3, "horizontal_tension"),
)


@pytest.mark.parametrize(
    ("check", "module", "name"), NAN_PLANTS, ids=[check.__name__ for check, *_ in NAN_PLANTS]
)
def test_verify_fails_a_nan_residual(monkeypatch, check, module, name):
    # One NaN entry in what a property reads is its worst residual, not a 0.
    _plant_nan(monkeypatch, module, name)
    result = check(np.random.default_rng(42), dict(verify.BATTERY)[check])
    assert result.passed is False
    assert math.isnan(result.residual)
    assert "residual nan" in result.line()


def test_verify_exits_one_on_a_nan_residual(monkeypatch, capsys):
    _plant_nan(monkeypatch, invariants, "elementary_invariants_newton")
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--trials", "3"])
    assert code == 1
    assert "FAIL invariant_oracle_equivalence: residual nan" in out


def test_verify_keeps_numpy_warnings(monkeypatch):
    # classify, check and density silence numpy's floating-point warnings;
    # verify must not, so a property that overflows raises under the suite's
    # filter (and under python -W error::RuntimeWarning).
    def overflowing(rng, trials):
        worst = float(np.max(np.array([1e308]) * 10.0))  # inf, and numpy's overflow warning
        return verify.PropertyResult("overflow", worst <= 1.0, worst, 1.0)

    monkeypatch.setattr(verify, "BATTERY", verify.BATTERY + ((overflowing, 1),))
    with pytest.raises(RuntimeWarning, match="overflow"):
        cli.main(["verify", "--seed", "42", "--trials", "1"])


def test_density_runs_without_scipy():
    # Fresh interpreter: the import and a density call must not pull in scipy.
    script = (
        "import sys\n"
        "import hpharmonics\n"
        "from hpharmonics import cli\n"
        'code = cli.main(["density", "--J", "1,0;0,1", "--G", "1,0;0,1", '
        '"--H", "1,0;0,1", "--json"])\n'
        'print(code, "scipy" in sys.modules)\n'
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_overflow_prints_no_numpy_warnings(capsys):
    # The reports already show null where a value leaves the float range: a
    # fresh interpreter prints nothing on stderr, and stdout is the report.
    cases = (
        ["check", "--lambda", "1e120,0,0", "--sigma", "1,1,0", "--r", "2", "--kind", "map", "--json"],
        ["classify", "--lambda", "2e100,1e100,1e100"],
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outputs = []
    for argv in cases:
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hpharmonics", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.stderr == ""
        code, out, _ = _run(capsys, argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        outputs.append(out)
    block = _strict_json(outputs[0])["predicates"]
    assert [block[k] for k in ("vertical_tension", "horizontal_tension", "vertical_energy")] == [
        None, None, None
    ]
    assert block["twisted_2_skyrmion"] is True
    lines = outputs[1].splitlines()
    assert lines[0] == "algebra class    : su2"
    assert lines[3] == "ricci            : [2e+200, 0.0, 0.0]"
    assert lines[7] == "H1               : Circle(2,3) U PolarPair(1)"
    assert lines[11] == "Z2               : Circle(2,3)"


def test_benchmark_tracing_installs_on_the_package():
    # The benchmark's tracer rebinds each traced public name of the package;
    # a fresh interpreter installs it, so removing a traced name fails here.
    # A traced battery run must give the untraced results, and the reworked
    # all-orders identities must each record spans, so a signature the
    # tracer cannot carry fails here too.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import tracing\n"
        "from hpharmonics import verify\n"
        "untraced = verify.run_battery(42, trials=1)\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        'print("installed")\n'
        "print(verify.run_battery(42, trials=1) == untraced)\n"
        "recorded = {span[0] for span in tracer.spans}\n"
        "for name in ('invariant_derivative', 'check_shift_identity', 'check_scaling_identity'):\n"
        "    print(name, f'invariants.{name}' in recorded)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-5:] == [
        "installed",
        "True",
        "invariant_derivative True",
        "check_shift_identity True",
        "check_scaling_identity True",
    ]
