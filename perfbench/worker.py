"""Workload process: one closed-loop client in a fresh interpreter.

``python worker.py SPEC`` reads a spec written by run.py, imports
hpharmonics, runs one untimed warm-up op, then (unless the spec asks for
set-up only) runs ops back to back, cycling the input pool, until the
measured seconds are spent and every pool item has been run once,
checking each answer against its reference between ops.  It writes one
JSON summary to the spec's output path.

Outcomes are judged per pool item, not per op: each item counts once,
so the number of attempted and failed items depends on the seed alone,
not on how many ops fit in the seconds.  An item run again must give the
same outcome as its first op.

Inputs and references are prepared by run.py before this process starts,
and the time this process spends loading them is reported apart, so that
neither counts toward set-up or op time.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from array import array


def _load(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(spec["inputs"], encoding="utf-8") as handle:
        pool = json.load(handle)["pool"]
    return spec, pool


# ---------------------------------------------------------------------------
# ops: the library work of one request, and the check of its answer
# ---------------------------------------------------------------------------
#
# An answer is ("ok", value) or (kind, exception type name) with kind
# "refused" for ValueError (the package's refusal type, PreconditionError
# included) and "exception" for anything else.  A check returns "ok" or
# the failure kind.


def _call(fn, item):
    try:
        return ("ok", fn(item))
    except ValueError as exc:
        return ("refused", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - every other raise counts as a failed op
        return ("exception", type(exc).__name__)


class Lie3Fields:
    """One `hpharmonics check`: normalize, classify, loci, permute, predicates."""

    def __init__(self, pool, seed):
        import numpy as np
        from hpharmonics import lie3

        self.np, self.lie3 = np, lie3
        for item in pool:
            item["lam"] = np.asarray(item["lam"])
            item["sigma"] = np.asarray(item["sigma"])
        self.pool = pool

    def run(self, item):
        lie3 = self.lie3
        sc = lie3.StructureConstants.normalize(item["lam"])
        md = lie3.classify_algebra(sc)
        lie3.classify_sets(sc)
        sigma = sc.permute(item["sigma"]) / float(self.np.linalg.norm(item["sigma"]))
        rep = lie3.check_predicates(md, sigma, item["r"], coupling=item["coupling"])
        return {
            "r_parallel": rep.r_parallel,
            "r_harmonic_unit": rep.r_harmonic_unit,
            "twisted_2_skyrmion": rep.twisted_2_skyrmion,
            "r_harmonic_map": rep.r_harmonic_map,
        }

    @staticmethod
    def check(item, answer):
        kind, value = answer
        if kind != "ok":
            return kind
        wrong = any(
            value[key] != want for key, want in item["expected"].items() if want is not None
        )
        return "wrong" if wrong else "ok"

    @staticmethod
    def corrupt(answer):
        return ("ok", {**answer[1], "r_harmonic_unit": not answer[1]["r_harmonic_unit"]})

    @staticmethod
    def known_defect(item, outcome):
        # ROADMAP 3(b): the classification is not scale-invariant.
        return item["log10_scale"] != 0.0


class DensityPoints:
    """One `hpharmonics density`: PointData, density report, r-conformality,
    plus majorisation gap and conformal residual when m = 2r."""

    def __init__(self, pool, seed):
        import numpy as np
        from hpharmonics import mapenergy

        self.mapenergy = mapenergy
        for item in pool:
            for key in ("J", "G", "H"):
                item[key] = np.asarray(item[key])
        self.pool = pool

    def run(self, item):
        me = self.mapenergy
        point = me.PointData(item["J"], item["G"], item["H"])
        report = me.density_report(point)
        me.r_conformal_check(point, item["r"])
        if point.m == 2 * item["r"]:
            me.majorisation_gap(point)
            me.conformal_scaling_residual(point, 1.7, item["r"])
        return list(report.eps), report.volume_density

    @staticmethod
    def check(item, answer):
        kind, value = answer
        if kind != "ok":
            return kind
        eps, volume = value
        ref = item["expected"]
        pairs = list(zip(eps, ref["eps"])) + [(volume, ref["volume_density"])]
        close = len(eps) == len(ref["eps"]) and all(
            abs(got - want) <= 1e-6 * abs(want) for got, want in pairs
        )
        return "ok" if close else "wrong"

    @staticmethod
    def corrupt(answer):
        eps, volume = answer[1]
        return ("ok", (eps[:1] + [eps[1] * (1.0 + 1e-3)] + eps[2:], volume))

    @staticmethod
    def known_defect(item, outcome):
        # ROADMAP 3(a): Newton-Girard on G^-1 J^T H J loses accuracy; it
        # returns wrong numbers, it does not raise.
        return outcome == "wrong"


class VerifyBattery:
    """One `verify.run_battery(seed + k)` at the default trial counts."""

    def __init__(self, pool, seed):
        from hpharmonics import verify

        self.verify = verify
        self.seed = seed
        self.pool = pool

    def run(self, k):
        results = self.verify.run_battery(self.seed + k)
        return sum(not r.passed for r in results), len(results)

    @staticmethod
    def check(item, answer):
        kind, value = answer
        if kind != "ok":
            return kind
        return "ok" if value[0] == 0 else "wrong"

    @staticmethod
    def corrupt(answer):
        return ("ok", (answer[1][0] + 1, answer[1][1]))

    @staticmethod
    def known_defect(item, outcome):
        return False


class CliOneshot:
    """One `python -m hpharmonics ... --json` child process."""

    def __init__(self, pool, seed, spans_path=None):
        self.pool = pool
        self.spans_path = spans_path

    def run(self, item):
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "hpharmonics", *item["argv"]]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "tracing.py"), self.spans_path, *item["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        crashed = proc.returncode == 1 and "Traceback" in proc.stderr
        return proc.returncode, proc.stdout, crashed

    @staticmethod
    def check(item, answer):
        kind, value = answer
        if kind != "ok":
            return kind
        code, stdout, crashed = value
        ref = item["expected"]
        if code != ref["code"] or stdout != ref["stdout"] or crashed != ref["crashed"]:
            return "wrong"
        if crashed:
            return "exception"
        return "refused" if code == 2 else "ok"

    @staticmethod
    def corrupt(answer):
        code, stdout, crashed = answer[1]
        return ("ok", (code, stdout + " ", crashed))

    @staticmethod
    def known_defect(item, outcome):
        # A refusal or crash the in-process call reproduces is the library's
        # (ROADMAP 3(b)); only a mismatch between the two is the CLI's own.
        return outcome != "wrong"


WORKLOADS = {
    "lie3_fields": Lie3Fields,
    "density_points": DensityPoints,
    "verify_battery": VerifyBattery,
    "cli_oneshot": CliOneshot,
}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)

#: Share of the loop's wall time spent on the calibration kernel.
CALIBRATION_SHARE = 0.05


class Calibration:
    """A fixed kernel of small numpy calls (3x3 products, eigvalsh, cross)
    that shares no code with hpharmonics, run in bursts between ops.

    A shared host's speed drifts by tens of percent over seconds to
    minutes.  The kernel's rate, sampled through the same stretch as the
    ops, tracks that drift: on a 2-vCPU Xeon VM its correlation with the
    op rate over 20 s blocks was 0.97 (lie3_fields), 0.91 (density_points)
    and 0.97 (cli_oneshot), but only 0.57 on verify_battery, whose ops
    last seconds.  Each burst lasts CALIBRATION_SHARE of the time since
    the last one.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.mats = [rng.normal(size=(3, 3)) for _ in range(20)]
        self.calls = 0
        self.ns = 0
        self.last = time.perf_counter()
        self.burst(0.02)

    def kernel(self):
        np = self.np
        total = 0.0
        for a in self.mats:
            b = a @ a.T
            total += float(np.linalg.eigvalsh(b)[0]) + float(np.trace(b)) + float(np.cross(a[0], a[1])[0])
        return total

    def burst(self, seconds=None):
        if seconds is None:
            seconds = CALIBRATION_SHARE * (time.perf_counter() - self.last)
        start = time.perf_counter_ns()
        end = start + seconds * 1e9
        while True:
            self.kernel()
            self.calls += 1
            now = time.perf_counter_ns()
            if now >= end:
                break
        self.ns += now - start
        self.last = time.perf_counter()

    def rate(self):
        return self.calls / (self.ns / 1e9)


def latency_stats(lat_ns) -> dict:
    """Median and the highest ladder percentile with >= 10 samples beyond it."""
    ordered = sorted(lat_ns)
    n = len(ordered)
    out = {"p50_us": _rank(ordered, 50.0) / 1e3, "tail": None}
    for pct in TAIL_LADDER:
        beyond = n - int(-(-pct * n // 100))
        if beyond >= 10:
            out["tail"] = {"pct": pct, "us": _rank(ordered, pct) / 1e3, "beyond": beyond}
            break
    return out


def _rank(ordered, pct):
    # Nearest-rank percentile.
    idx = max(0, int(-(-pct * len(ordered) // 100)) - 1)
    return ordered[idx]


def run_phase(workload, seconds, start_index, judged, tracer=None, child_spans=None, finish_pass=False):
    """Closed loop: ops back to back until `seconds` of wall time are spent
    and, with `finish_pass`, until every pool item has been run once.

    Ops cycle the pool in order from `start_index`.  `judged` maps a pool
    index to the outcome of its first op (and, for the battery, its failed
    and total property counts); every later op on the same item must
    reproduce that outcome, or it counts in `changed`.
    """
    pool = workload.pool
    lat = array("q")
    changed = 0
    caught = None
    i = start_index
    begin = time.perf_counter()
    calibration = Calibration()
    while True:
        index = i % len(pool)
        item = pool[index]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        answer = _call(workload.run, item)
        lat.append(time.perf_counter_ns() - t0)
        i += 1
        # Checking is the client's think time: it is outside the op latency.
        outcome = workload.check(item, answer)
        props = list(answer[1][:2]) if isinstance(workload, VerifyBattery) and answer[0] == "ok" else None
        if index not in judged:
            judged[index] = {"outcome": outcome, "props": props}
        elif judged[index]["outcome"] != outcome:
            changed += 1
        if caught is None and outcome == "ok":
            # Self-test of the checker: a corrupted copy must be caught.
            caught = workload.check(item, workload.corrupt(answer)) != "ok"
        if child_spans is not None:
            merge_child_spans(tracer, child_spans, i - 1)
        if time.perf_counter() - calibration.last >= 0.5:
            calibration.burst()
        if time.perf_counter() - begin >= seconds and (not finish_pass or i >= len(pool)):
            break
    return {
        "ops": len(lat),
        "op_time_ns": sum(lat),
        "latency": latency_stats(lat),
        "changed": changed,
        "calibration_calls_per_s": calibration.rate(),
        "selftest_caught": caught,
        "next_index": i,
    }


def judge(workload, judged) -> dict:
    """Outcomes of the pool, each item counted once, and the failures
    that belong to no known defect."""
    outcomes: dict[str, int] = {}
    unexpected = 0
    failed_props = props = 0
    for index, entry in sorted(judged.items()):
        outcome = entry["outcome"]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome != "ok" and not workload.known_defect(workload.pool[index], outcome):
            unexpected += 1
        if entry["props"] is not None:
            failed_props += entry["props"][0]
            props += entry["props"][1]
    return {
        "items": len(judged),
        "outcomes": outcomes,
        "unexpected": unexpected,
        "failed_props": failed_props,
        "props": props,
    }


def merge_child_spans(tracer, path, op_id):
    from tracing import read_spans

    if not os.path.exists(path):  # the child died before writing its spans
        return
    offset = len(tracer.spans)
    for name, start, end, parent, _op, raised, rows in read_spans(path):
        tracer.spans.append(
            (name, start, end, parent + offset if parent >= 0 else -1, op_id, raised, rows)
        )
    os.remove(path)


def main(spec_path):
    prep_start = time.monotonic()
    spec, pool = _load(spec_path)
    prep_s = time.monotonic() - prep_start

    import hpharmonics  # noqa: F401

    prep_start = time.monotonic()
    workload = WORKLOADS[spec["workload"]](pool, spec["seed"])
    prep_s += time.monotonic() - prep_start

    _call(workload.run, workload.pool[0])  # untimed warm-up op
    t_first = time.monotonic()
    result = {"t_first": t_first, "prep_s": prep_s}
    if not spec["setup_only"]:
        seconds = spec["seconds"]
        trace = spec["trace"]
        if trace:
            seconds /= 2.0
        judged: dict = {}
        result["plain"] = run_phase(workload, seconds, 0, judged, finish_pass=not trace)
        if trace:
            result["traced"] = traced_phase(workload, spec, seconds, result["plain"]["next_index"], judged)
        result["judged"] = judge(workload, judged)
        who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli_oneshot" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    with open(spec["output"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def traced_phase(workload, spec, seconds, start_index, judged):
    import tracing

    tracer = tracing.Tracer()
    child_spans = None
    if isinstance(workload, CliOneshot):
        child_spans = spec["output"] + ".child-spans"
        workload = CliOneshot(workload.pool, spec["seed"], spans_path=child_spans)
    else:
        tracing.install(tracer)
    phase = run_phase(workload, seconds, start_index, judged, tracer, child_spans, finish_pass=True)
    phase["per_layer"] = tracing.aggregate(tracer.spans, phase["ops"], phase["op_time_ns"])
    tracing.write_spans(spec["output"] + ".spans.jsonl", tracer.spans)
    return phase


if __name__ == "__main__":
    main(sys.argv[1])
