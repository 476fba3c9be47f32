"""Layered benchmark of hpharmonics: four closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of lie3_fields, density_points, verify_battery, cli_oneshot,
or ``all`` to run each in turn.  The run

1. draws the workload's inputs from ``--seed`` and computes their
   references (none of this is timed or counted as set-up);
2. starts fresh workload processes (worker.py) for set-up time, then one
   that runs ops back to back, cycling the pool, for ``--seconds`` (and
   at least once through the pool) and checks every answer;
3. prints a human-readable summary, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
   ``--trace 1``.  ``attempted`` and ``failed`` count each pool input
   once, so they depend on the seed alone; an input run again must give
   the same outcome, or the run is not ``correct``.

A traced run spends half its seconds untraced and half traced, so that
``trace.overhead_share`` compares the two.  Scratch files go to
``.perfbench/`` in the checkout.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child: matrices here are at
# most 9x9, so this only removes thread wake-up noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs
import tracing

WORKLOADS = ("lie3_fields", "density_points", "verify_battery", "cli_oneshot")
#: Inputs per run.  Every item is run at least once, so a pool takes at
#: most about 15 s at the op rates of a 2-vCPU Xeon VM; a run cycles it.
POOL_SIZE = {"lie3_fields": 2016, "density_points": 250, "verify_battery": 5, "cli_oneshot": 24}
#: Calibration kernel calls per second that ``ops_per_s_cal`` scales to:
#: about the kernel's median rate on the 2-vCPU Xeon VM the benchmark was
#: built on, so there ``ops_per_s_cal`` reads close to ``ops_per_s``.
CALIBRATION_REFERENCE = 1000.0
#: Fresh workload processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
HERE = Path(__file__).resolve().parent


class MetricNameError(RuntimeError):
    """The emitted metrics are not the ones BENCHMARK.json names."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


# ---------------------------------------------------------------------------
# inputs and references (outside every timed region)
# ---------------------------------------------------------------------------


def make_pool(workload: str, seed: int, root: Path) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    size = POOL_SIZE[workload]
    if workload == "lie3_fields":
        return [inputs.lie3_draw(rng, i) for i in range(size)]
    if workload == "density_points":
        return [inputs.density_draw(rng, i) for i in range(size)]
    if workload == "verify_battery":
        return list(range(size))
    pool = [{"argv": inputs.cli_draw(rng, i)} for i in range(size)]
    for item in pool:
        item["expected"] = cli_in_process(item["argv"], root)
    return pool


def cli_in_process(argv: list[str], root: Path) -> dict:
    """Exit code and stdout of ``cli.main(argv)`` in this process."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from hpharmonics import cli

    out = io.StringIO()
    crashed = False
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore")
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except Exception:  # noqa: BLE001 - an uncaught raise is a crash, exit 1
                code, crashed = 1, True
    return {"code": code, "stdout": out.getvalue(), "crashed": crashed}


# ---------------------------------------------------------------------------
# workload processes
# ---------------------------------------------------------------------------


def run_worker(root, scratch, tag, workload, seed, seconds, trace, setup_only):
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_only": setup_only,
        "inputs": str(scratch / f"{workload}-inputs.json"),
        "output": str(scratch / f"{workload}-{tag}.json"),
    }
    spec_path = scratch / f"{workload}-{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    t_launch = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=child_env(root),
        check=True,
        timeout=170,
    )
    with open(spec["output"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["t_first"] - t_launch - result["prep_s"]
    return result


def import_breakdown(root: Path) -> dict[str, float]:
    """Median interpreter start and package import times, in ms."""
    samples = {part: [] for part in tracing.IMPORT_PARTS}
    env = child_env(root)
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        samples["python"].append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hpharmonics"],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        tree = parse_importtime(proc.stderr)
        samples["hpharmonics"].append(charged_us(tree, ("hpharmonics",))["hpharmonics"] / 1e3)
        for part, us in charged_us(tree, ("numpy", "scipy")).items():
            samples[part].append(us / 1e3)
    return {f"import.{part}_ms": statistics.median(v) for part, v in samples.items()}


def parse_importtime(text: str) -> list:
    """Forest of (name, cumulative_us, children) from ``-X importtime``.

    A module's line follows the lines of the imports it triggered, which
    are indented one level (two spaces) deeper.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_col = line[len("import time:"):].split("|")
        name_col = name_col[1:]
        depth = (len(name_col) - len(name_col.lstrip(" "))) // 2
        node = (name_col.strip(), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def charged_us(forest, packages) -> dict[str, int]:
    """Cumulative import time charged to each package: a module in a
    package's namespace is charged with everything it imported, unless it
    was itself imported by a module already charged (so numpy submodules
    that scipy pulls in count as scipy's)."""
    totals = dict.fromkeys(packages, 0)
    for name, cumulative, children in forest:
        owner = next((p for p in packages if name == p or name.startswith(p + ".")), None)
        if owner is None:
            for part, us in charged_us(children, packages).items():
                totals[part] += us
        else:
            totals[owner] += cumulative
    return totals


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, root, scratch, bench) -> dict:
    pool = make_pool(workload, seed, root)
    (scratch / f"{workload}-inputs.json").write_text(json.dumps({"pool": pool}))

    setups = [
        run_worker(root, scratch, f"setup{k}", workload, seed, seconds, trace, True)["setup_s"]
        for k in range(SETUP_SAMPLES - 1)
    ]
    timed = run_worker(root, scratch, "timed", workload, seed, seconds, trace, False)
    setups.append(timed["setup_s"])

    plain = timed["plain"]
    phases = [plain] + ([timed["traced"]] if trace else [])
    judged = timed["judged"]
    attempted = judged["items"]
    outcomes = judged["outcomes"]
    failed = attempted - outcomes.get("ok", 0)
    unexpected = judged["unexpected"]
    changed = sum(p["changed"] for p in phases)
    caught = all(p["selftest_caught"] for p in phases)

    ops_per_s = plain["ops"] / (plain["op_time_ns"] / 1e9)
    calibration = plain["calibration_calls_per_s"]
    summary = {
        "workload": workload,
        "seed": seed,
        "ops": plain["ops"],
        "items": attempted,
        "ops_per_s": ops_per_s,
        "ops_per_s_cal": ops_per_s * CALIBRATION_REFERENCE / calibration,
        "calibration_calls_per_s": calibration,
        "op_p50_us": plain["latency"]["p50_us"],
        "op_tail": plain["latency"]["tail"],
        "failed_share": failed / attempted,
        "outcomes": outcomes,
        "unexpected_failures": unexpected,
        "changed_outcomes": changed,
        "checker_selftest": "caught" if caught else "MISSED",
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    if workload == "verify_battery":
        summary["failed_share"] = judged["failed_props"] / max(judged["props"], 1)

    if trace:
        traced = timed["traced"]
        metrics = dict(traced["per_layer"])
        metrics.update(import_breakdown(root))
        traced_rate = traced["ops"] / (traced["op_time_ns"] / 1e9)
        metrics["trace.overhead_share"] = 1.0 - traced_rate / ops_per_s
        summary["traced_ops"] = traced["ops"]
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    else:
        metrics = {k: summary[k] for k in ("ops_per_s_cal", "setup_s", "peak_rss_mb")}
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]

    missing = [name for name, _ in wanted if name not in metrics]
    if missing or len(metrics) != len(wanted):
        raise MetricNameError(f"{workload}: emitted metrics differ from BENCHMARK.json: {missing}")
    return {
        "summary": summary,
        "correct": caught and unexpected == 0 and changed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }


def print_summary(summary: dict) -> None:
    tail = summary["op_tail"]
    tail_text = (
        f"op_tail_us {tail['us']:.1f} us (p{tail['pct']:g}, {tail['beyond']} samples beyond)"
        if tail
        else "op_tail_us omitted (too few ops)"
    )
    print(
        f"{summary['workload']} seed {summary['seed']}: "
        f"ops_per_s {summary['ops_per_s']:.3f} 1/s ({summary['ops']} ops) | "
        f"ops_per_s_cal {summary['ops_per_s_cal']:.3f} 1/s "
        f"(calibration {summary['calibration_calls_per_s']:.1f} calls/s) | "
        f"op_p50_us {summary['op_p50_us']:.1f} us | {tail_text} | "
        f"failed_share {summary['failed_share']:.4f} of {summary['items']} inputs {summary['outcomes']} | "
        f"setup_s {summary['setup_s']:.4f} s (median of {summary['setup_samples']}) | "
        f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB | "
        f"unexpected failures {summary['unexpected_failures']}, "
        f"repeats with another outcome {summary['changed_outcomes']}, "
        f"checker self-test {summary['checker_selftest']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hpharmonics" / "__init__.py").is_file():
        print(f"error: {root} holds no src/hpharmonics; run from a checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)

    env = environment()
    print("environment:", json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, root, scratch, bench)
        except MetricNameError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print_summary(result["summary"])
        results.append((name, result))
        (scratch / f"{name}-trace{args.trace}-result.json").write_text(
            json.dumps({"environment": env, **result}, indent=1)
        )

    if len(results) == 1:
        metrics = results[0][1]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for _, r in results),
                "attempted": sum(r["attempted"] for _, r in results),
                "failed": sum(r["failed"] for _, r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
