"""Span recording for the traced run, from outside the package.

Each traced public function is rebound at every name it is looked up by:
module attributes of every hpharmonics module that holds it (lie3 and
mapenergy bind the invariants functions at import), the methods
``StructureConstants.normalize``, ``SubsetDescriptor.contains`` and
``PointData.__post_init__`` on their classes, and the ``verify.BATTERY``
tuple that ``run_battery`` reads its checks from.  Nothing under ``src/``
is edited.

A span is (name, start_ns, end_ns, parent index, op id, raised, rows).
Spans stay in memory until the run ends; self time is a span's duration
minus the durations of its direct children.

Run as a script, this module is the traced stand-in for
``python -m hpharmonics``: ``python tracing.py SPANS_FILE ARGV...`` runs
``cli.main(ARGV)`` with tracing on and writes the spans to SPANS_FILE.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("invariants", "mapenergy", "lie3", "verify", "cli")

#: Traced functions per layer.  "PointData" stands for its __post_init__.
FUNCTIONS = {
    "invariants": (
        "elementary_invariants_newton",
        "elementary_invariants_minors",
        "newton_endomorphisms",
        "invariant_derivative",
        "check_shift_identity",
        "check_scaling_identity",
    ),
    "mapenergy": (
        "PointData",
        "cauchy_green",
        "stretch_eigenvalues",
        "gram_invariants",
        "density_report",
        "r_conformal_check",
        "conformal_scaling_residual",
        "majorisation_gap",
    ),
    "lie3": (
        "StructureConstants.normalize",
        "classify_algebra",
        "classify_sets",
        "check_predicates",
        "horizontal_tension",
        "tension_t1",
        "tension_t2",
        "tension_assembled",
        "vertical_invariants",
        "vertical_newton_1",
        "vertical_newton_2",
        "divergence_invariant_tensor",
        "first_variation_fd",
        "is_eigendirection",
        "SubsetDescriptor.contains",
    ),
    "cli": ("main", "dumps_report"),
}

#: The 21 battery entries whose inclusive time is reported per op.
VERIFY_PROPERTIES = (
    "check_invariant_oracles",
    "check_cayley_hamilton",
    "check_newton_trace",
    "check_shift_scaling",
    "check_derivative_fd",
    "check_cauchy_green_gram",
    "check_metric_homogeneity",
    "check_conformal_invariance",
    "check_majorisation",
    "check_rank_zeroes",
    "check_wedge_gram",
    "check_divergence_oracles",
    "check_tension_oracles",
    "check_sphere_multiplier",
    "check_first_variation",
    "check_classification_golden",
    "check_union_consistency",
    "check_predicate_membership",
    "check_skyrmion_coincidence",
    "check_harmonic_map_cases",
    "check_flip_invariance",
)

IMPORT_PARTS = ("python", "numpy", "scipy", "hpharmonics")


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, count_rows: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = 0
            if count_rows:  # is_eigendirection(diag_values, sigma, ...)
                sigma = args[1] if len(args) > 1 else kwargs["sigma"]
                rows = max(1, getattr(sigma, "size", 3) // 3)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised, rows)

        return traced


def _rebind_everywhere(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "hpharmonics" and not modname.startswith("hpharmonics."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Rebind every traced function of the imported package to a span wrapper."""
    import hpharmonics.cli  # noqa: F401  (loads every layer)

    modules = {layer: sys.modules[f"hpharmonics.{layer}"] for layer in LAYERS}
    for layer, names in FUNCTIONS.items():
        module = modules[layer]
        for name in names:
            span = f"{layer}.{name}"
            if name == "PointData":
                cls = module.PointData
                cls.__post_init__ = tracer.wrap(span, cls.__post_init__)
            elif "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(span, raw))
            else:
                original = getattr(module, name)
                wrapper = tracer.wrap(span, original, count_rows=name == "is_eigendirection")
                _rebind_everywhere(original, wrapper)
    verify = modules["verify"]
    wrapped = []
    for fn, trials in verify.BATTERY:
        # Same wrapper object at the module name too: run_battery tests
        # `fn is check_classification_golden`.
        wrapper = tracer.wrap(f"verify.{fn.__name__}", fn)
        _rebind_everywhere(fn, wrapper)
        wrapped.append((wrapper, trials))
    verify.BATTERY = tuple(wrapped)


def aggregate(spans, ops: int, op_time_ns: int) -> dict[str, float]:
    """Per-op calls, self time, battery time, layer shares and errors.

    ``ops`` and ``op_time_ns`` are the count and summed latency of the
    traced ops; the import and overhead metrics are added by the caller.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    rows = 0
    for i, (name, start, end, parent, _op, raised, nrows) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        incl_ns[name] = incl_ns.get(name, 0) + end - start
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_errors[layer] += raised
        rows += nrows
    metrics = {}
    for layer, funcs in FUNCTIONS.items():
        for fn in funcs:
            key = f"{layer}.{fn}"
            if layer != "cli":
                metrics[f"{key}.calls"] = calls.get(key, 0) / ops
            metrics[f"{key}.self_us"] = self_ns.get(key, 0) / ops / 1e3
    eig_calls = calls.get("lie3.is_eigendirection", 0)
    metrics["lie3.is_eigendirection.rows"] = rows / eig_calls if eig_calls else 0.0
    for prop in VERIFY_PROPERTIES:
        metrics[f"verify.{prop}.s"] = incl_ns.get(f"verify.{prop}", 0) / ops / 1e9
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / op_time_ns
        metrics[f"{layer}.errors"] = layer_errors[layer] / ops
    return metrics


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from hpharmonics import cli

    try:
        return cli.main(argv)
    finally:
        write_spans(spans_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
