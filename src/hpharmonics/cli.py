"""Command-line front end: classification reports, pointwise evaluations,
and the seeded verification battery.

Subcommands
-----------
classify  report algebra class, curvature data, and harmonic loci
check     evaluate harmonicity predicates of one invariant unit field
density   pointwise map-energy report from a Jacobian and two metrics
verify    run the full property battery with a seeded generator

Exit codes: 0 the request succeeded (and the checked predicate holds),
1 the checked predicate fails (or the battery found a failure), 2 invalid
input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import lie3, mapenergy, verify

SCHEMA_VERSION = "1"

_CHECK_KINDS = ("section", "unit-section", "map", "skyrmion")


# ---------------------------------------------------------------------------
# JSON with explicit 17-significant-digit floats
# ---------------------------------------------------------------------------


def dumps_report(doc, indent: int = 0) -> str:
    """Serialize a report to JSON with floats at 17 significant digits.

    The standard encoder offers no control over float formatting, and 17
    digits guarantee lossless round-trips, so this walks the (small, fixed)
    report structure directly.  Key order is preserved, and a non-finite
    float is written as null.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        parts = [
            f"{inner}{json.dumps(key)}: {dumps_report(value, indent + 2)}"
            for key, value in doc.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        items = [dumps_report(v, indent + 2) for v in doc]
        flat = "[" + ", ".join(items) + "]"
        if len(flat) <= 72 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        value = float(doc)
        if not math.isfinite(value):  # JSON has no inf or nan
            return "null"
        if value == 0.0:  # drop the sign of zero so round-trips are stable
            value = 0.0
        return format(value, ".17g")
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc)!r}")


def _vec(values) -> list[float] | None:
    if values is None:  # a quantity the report could not represent
        return None
    return [float(v) for v in np.asarray(values).reshape(-1)]


def _mat(values) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(values)]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_triple(text: str, name: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse {name} {text!r} as comma-separated reals")
    if len(parts) != 3:
        raise ValueError(f"{name} needs exactly three components, got {len(parts)}")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{name} has non-finite components: {text!r}")
    return np.asarray(parts)


def _parse_matrix(text: str, name: str) -> np.ndarray:
    try:
        rows = [[float(p) for p in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise ValueError(f"could not parse {name} {text!r} as a ;-separated matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{name} has ragged rows")
    return np.asarray(rows)


def _point_arrays(doc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not isinstance(doc, dict):
        raise ValueError('a point must be a JSON object {"J": ..., "G": ..., "H": ...}')
    missing = [key for key in ("J", "G", "H") if key not in doc]
    if missing:
        raise ValueError(f"payload file is missing keys {missing}")
    jac, dom, cod = (np.asarray(doc[k], dtype=float) for k in ("J", "G", "H"))
    # One point: PointData would read a Jacobian with more axes as a stack
    # (and then refuses metrics with more axes than it has).
    if jac.ndim != 2:
        raise ValueError(f"jacobian must be 2-D, got shape {jac.shape}")
    return jac, dom, cod


def _load_density_payload(args) -> tuple[list, bool]:
    """The (J, G, H) arrays of each point of the request, and whether
    ``--file`` held a JSON list of points."""
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, list):
            return [_point_arrays(doc)], False
        if not doc:
            raise ValueError("payload file holds an empty list of points")
        return _each_point(_point_arrays, doc, True), True
    if args.J is None or args.G is None or args.H is None:
        raise ValueError("provide either --file or all of --J, --G, --H")
    jac = _parse_matrix(args.J, "--J")
    dom = _parse_matrix(args.G, "--G")
    cod = _parse_matrix(args.H, "--H")
    return [(jac, dom, cod)], False


def _each_point(fn, points: list, listed: bool) -> list:
    # fn of each point in turn; in a list, a refusal names the point's index.
    out = []
    for k, point in enumerate(points):
        try:
            out.append(fn(point))
        except ValueError as exc:
            if not listed:
                raise
            raise ValueError(f"point {k}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# report builders
# ---------------------------------------------------------------------------


def _algebra_report(lam_input, md: lie3.MilnorData, sets: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"lambda": _vec(lam_input)},
        "normalized": {
            "lambda": _vec(md.lam),
            "permutation": [int(i) + 1 for i in md.permutation],
            "sign_flipped": md.sign_flipped,
        },
        "algebra_class": md.algebra_class,
        "mu": _vec(md.mu),
        "ricci": _vec(md.ricci),
        "sectional": _vec(md.sectional),
        "flat": md.flat,
        "ricci_kernel_dim": md.ricci_kernel_dim,
        "sets": {name: sets[name].to_json() for name in ("H1", "H2", "H3", "Z1", "Z2", "Z3")},
    }


def _print_classify_table(report: dict, sets: dict) -> None:
    print(f"algebra class    : {report['algebra_class']}")
    print(f"lambda (norm.)   : {report['normalized']['lambda']}")
    print(f"mu               : {report['mu']}")
    print(f"ricci            : {report['ricci']}")
    print(f"sectional K      : {report['sectional']}  (K23, K13, K12)")
    print(f"flat             : {report['flat']}")
    print(f"ricci kernel dim : {report['ricci_kernel_dim']}")
    for name in ("H1", "H2", "H3", "Z1", "Z2", "Z3"):
        print(f"{name:<16} : {sets[name]}")


# A report gives null for each value that leaves the float range, so numpy's
# warnings would only repeat that on stderr; verify keeps them, as faults.
@np.errstate(all="ignore")
def cmd_classify(args) -> int:
    lam_input = _parse_triple(args.lam, "--lambda")
    md = lie3.classify_algebra(lam_input)
    sets = lie3.classify_sets(md)
    report = _algebra_report(lam_input, md, sets)
    if args.json:
        print(dumps_report(report))
    else:
        _print_classify_table(report, sets)
    return 0


@np.errstate(all="ignore")
def cmd_check(args) -> int:
    lam_input = _parse_triple(args.lam, "--lambda")
    sigma_input = _parse_triple(args.sigma, "--sigma")
    # Scale by a power of two near max |sigma_i| (exact) so the norm can
    # neither overflow nor underflow.
    scaled = np.ldexp(sigma_input, -math.frexp(float(np.abs(sigma_input).max()))[1])
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        raise ValueError("--sigma must be nonzero")
    md = lie3.classify_algebra(lam_input)
    sigma = md.permute(scaled) / norm
    predicates = lie3.check_predicates(md, sigma, args.r, coupling=args.coupling)

    report = _algebra_report(lam_input, md, lie3.classify_sets(md))
    report["input"]["sigma"] = _vec(sigma_input)
    report["input"]["r"] = args.r
    report["input"]["kind"] = args.kind
    report["input"]["coupling"] = args.coupling
    report["predicates"] = {
        "sigma_unit": _vec(sigma),
        "r_parallel": predicates.r_parallel,
        "r_harmonic_unit": predicates.r_harmonic_unit,
        "twisted_2_skyrmion": predicates.twisted_2_skyrmion,
        "r_harmonic_map": predicates.r_harmonic_map,
        "vertical_tension": _vec(predicates.vertical_tension),
        "horizontal_tension": _vec(predicates.horizontal_tension),
        "vertical_energy": predicates.vertical_energy,
    }

    verdicts = {
        "section": predicates.r_parallel,
        "unit-section": predicates.r_harmonic_unit,
        "map": predicates.r_harmonic_map,
        "skyrmion": predicates.twisted_2_skyrmion,
    }
    verdict = verdicts[args.kind]

    if args.json:
        print(dumps_report(report))
    else:
        block = report["predicates"]
        print(f"algebra class      : {report['algebra_class']}")
        print(f"sigma (unit, norm.): {block['sigma_unit']}")
        for key in ("r_parallel", "r_harmonic_unit", "twisted_2_skyrmion", "r_harmonic_map"):
            print(f"{key:<19}: {block[key]}")
        print(f"vertical tension   : {block['vertical_tension']}")
        print(f"horizontal tension : {block['horizontal_tension']}")
        print(f"requested ({args.kind}, r={args.r}): {'holds' if verdict else 'fails'}")
    return 0 if verdict else 1


def _density_doc(arrays: tuple, r: int) -> dict:
    # The report of one point, read from one single-point PointData.
    point = mapenergy.PointData(*arrays)
    if not 1 <= r <= point.m:
        raise ValueError(f"--r must be in 1..{point.m}, got {r}")
    report = mapenergy.density_report(point)
    jac, dom, cod = point.jacobian, point.domain_metric, point.codomain_metric
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": {"J": _mat(jac), "G": _mat(dom), "H": _mat(cod), "r": r},
        "alpha": _mat(report.alpha),
        "eps": _vec(report.eps),
        "volume_density": float(report.volume_density),
        "newton": [_mat(nu) for nu in report.newton],
        "r_conformal": bool(mapenergy.r_conformal_check(point, r)),
    }
    if point.m == 2 * r:
        probe_rho = 1.7
        doc["majorisation_gap"] = float(mapenergy.majorisation_gap(point))
        try:
            residual = mapenergy.conformal_scaling_residual(point, probe_rho, r)
        except ValueError:
            residual = None  # rho^2 G leaves the float range; the rest stands
        doc["conformal_invariance"] = {"probe_rho": probe_rho, "residual": residual}
    return doc


def _print_density(doc: dict) -> None:
    print(f"eps             : {doc['eps']}")
    print(f"volume density  : {doc['volume_density']}")
    print(f"r-conformal     : {doc['r_conformal']} (r={doc['input']['r']})")
    if "majorisation_gap" in doc:
        print(f"majorisation gap: {doc['majorisation_gap']}")
        block = doc["conformal_invariance"]
        print(f"invariance resid: {block['residual']} (rho={block['probe_rho']})")


@np.errstate(all="ignore")
def cmd_density(args) -> int:
    points, listed = _load_density_payload(args)
    docs = _each_point(lambda arrays: _density_doc(arrays, args.r), points, listed)
    if args.json:
        print(dumps_report(docs if listed else docs[0]))
        return 0
    for k, doc in enumerate(docs):
        if listed:
            print(f"point {k}:")
        _print_density(doc)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_battery(seed=args.seed, trials=args.trials)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} properties passed (seed {args.seed})")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpharmonics",
        description="Higher-power harmonicity of invariant vector fields on "
        "3-dimensional unimodular Lie groups, plus pointwise map-energy reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a structure-constant triple")
    p_classify.add_argument("--lambda", dest="lam", required=True, metavar="a,b,c")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_check = sub.add_parser("check", help="evaluate predicates of one unit field")
    p_check.add_argument("--lambda", dest="lam", required=True, metavar="a,b,c")
    p_check.add_argument("--sigma", required=True, metavar="x,y,z")
    p_check.add_argument("--r", type=int, choices=(1, 2, 3), required=True)
    p_check.add_argument("--kind", choices=_CHECK_KINDS, required=True)
    p_check.add_argument("--coupling", type=float, default=0.5)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_density = sub.add_parser("density", help="pointwise map-energy report")
    p_density.add_argument(
        "--file",
        help='JSON file {"J": [[...]], "G": [[...]], "H": [[...]]}, or a list of such '
        "points, each reported in turn",
    )
    p_density.add_argument("--J", metavar="a,b;c,d")
    p_density.add_argument("--G", metavar="a,b;c,d")
    p_density.add_argument("--H", metavar="a,b;c,d")
    p_density.add_argument("--r", type=int, default=1)
    p_density.add_argument("--json", action="store_true")
    p_density.set_defaults(func=cmd_density)

    p_verify = sub.add_parser("verify", help="run the seeded property battery")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
