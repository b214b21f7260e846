"""Outside-in per-layer tracing of contlogic.

The recorder replaces selected public functions of each contlogic module
with wrappers, in every module namespace that holds them (the CLI imports
most of them by name), so the program's source is not touched.  A call
into a wrapped function opens a span unless the innermost open span is the
same function, which keeps recursion (eval_formula, infer_modulus) inside
one span.  Each span carries its parent; its self time is its duration
minus the durations of its children.  The harness opens the root span,
named `cli`, around each `contlogic.cli.run` call, so the self times of one
command add up exactly to the root's duration.

Spans are kept in memory and summarized when a pass ends.

Per-element primitives (parse_rational, the connectives, table lookups,
PLMonotone.eval) are not wrapped: they run once per table cell, and spans
around them would measure the tracer instead of the program.  Nor are the
helpers that only cb_rank and synthesize call (cb_derivative,
epsilon_degree, eval_value_formula), so that those two carry their work.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("cli", "language", "values", "structures", "stability", "imaginaries",
          "topometric", "synthesis")

WRAPPED = {
    "language": ("parse", "print_formula", "prenex", "infer_modulus", "free_vars"),
    "values": ("inverse_from_delta", "delta_from_inverse", "flim_prefix"),
    "structures": ("FiniteStructure.from_json", "FiniteStructure.to_json", "eval_formula",
                   "validate", "value_matrix", "complete_structure",
                   "is_elementary_substructure", "make_split", "env_from_names"),
    "stability": ("phi_type", "phi_type_space", "find_ladder", "revalidate_ladder",
                  "compute_N", "median_definition", "monotone_definition",
                  "global_definition", "glue_formula"),
    "imaginaries": ("build_imaginary", "verify_tphi", "tphi_sentences"),
    "topometric": ("FiniteTopometricSpace.from_json", "cb_rank"),
    "synthesis": ("GridFunction.from_json", "synthesize", "expression_text",
                  "expression_tree_size"),
}

DEFINITIONS = ("stability.median_definition", "stability.monotone_definition",
               "stability.global_definition")

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("structures.from_json.self_ms", "ms"),
    ("structures.to_json.self_ms", "ms"),
    ("structures.eval_formula.self_ms", "ms"),
    ("structures.eval_formula.calls", "count"),
    ("structures.validate.self_ms", "ms"),
    ("structures.validate.calls", "count"),
    ("structures.value_matrix.self_ms", "ms"),
    ("structures.value_matrix.calls", "count"),
    ("structures.value_matrix.cells", "count"),
    ("structures.value_matrix.rebuild_ratio", "ratio"),
    ("stability.compute_N.self_ms", "ms"),
    ("stability.compute_N.calls", "count"),
    ("stability.find_ladder.self_ms", "ms"),
    ("stability.median_definition.self_ms", "ms"),
    ("stability.monotone_definition.self_ms", "ms"),
    ("stability.global_definition.self_ms", "ms"),
    ("stability.phi_type_space.self_ms", "ms"),
    ("stability.definition_abort_ratio", "ratio"),
    ("imaginaries.build_imaginary.self_ms", "ms"),
    ("imaginaries.verify_tphi.self_ms", "ms"),
    ("language.parse.self_ms", "ms"),
    ("language.prenex.self_ms", "ms"),
    ("topometric.cb_rank.self_ms", "ms"),
    ("synthesis.synthesize.self_ms", "ms"),
    ("values.inverse_from_delta.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.report_bytes", "bytes"),
] + [(f"{layer}.self_ms", "ms") for layer in LAYERS[1:]] + [
    ("trace.overhead_ratio", "ratio"),
]

# counts must repeat exactly between runs with the same seed
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes")
                      or name.endswith(("rebuild_ratio", "abort_ratio")))

_NAME, _PARENT, _START, _END, _CHILD, _ERROR = range(6)


class Recorder:
    """Spans of one traced pass, and the patches that produce them."""

    def __init__(self):
        self.names: list[str] = ["cli"]  # span name per id; id 0 is the root
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.roots: list[list] = []
        self.cells = 0
        self.builds: set = set()
        self.rebuilds = 0
        self.report_bytes = 0
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "contlogic" or name.startswith("contlogic."))]
        for short, attrs in WRAPPED.items():
            module = sys.modules[f"contlogic.{short}"]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                metric = f"{short}.{fn_name}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[fn_name]
                    is_static = isinstance(raw, staticmethod)
                    original = raw.__func__ if is_static else raw
                    wrapper = self._wrap(metric, original)
                    self._set(owner, fn_name, raw,
                              staticmethod(wrapper) if is_static else wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(metric, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _set(self, owner, key, original, replacement):
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)

    def _wrap(self, metric: str, fn):
        name_id = len(self.names)
        self.names.append(metric)
        on_return = self._value_matrix_built if metric == "structures.value_matrix" else None
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][_NAME] == name_id:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name_id, parent, 0, 0, 0, None]
            stack.append(span)
            span[_START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = end = perf_counter_ns()
                stack.pop()
                parent[_CHILD] += end - span[_START]
                spans.append(span)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _value_matrix_built(self, args, result):
        xts, yts, _ = result
        self.cells += len(xts) * len(yts)
        key = (id(args[0]), args[1], args[2])
        if key in self.builds:
            self.rebuilds += 1
        self.builds.add(key)

    # -- commands ------------------------------------------------------------

    def open_command(self):
        """Open the root span of one CLI command."""
        root = [0, None, 0, 0, 0, None]
        self.builds = set()
        self.stack.append(root)
        root[_START] = perf_counter_ns()
        return root

    def close_command(self, root, report_bytes: int):
        root[_END] = perf_counter_ns()
        self.stack.pop()
        if self.stack:
            raise RuntimeError("a wrapped call left its span open")
        self.roots.append(root)
        self.report_bytes += report_bytes

    def command_balance(self):
        """Per command: (sum of self times of its spans, duration of its root span)."""
        selfs: dict = {id(r): r[_END] - r[_START] - r[_CHILD] for r in self.roots}
        for span in self.spans:
            root = span
            while root[_PARENT] is not None:
                root = root[_PARENT]
            selfs[id(root)] += span[_END] - span[_START] - span[_CHILD]
        return [(selfs[id(r)], r[_END] - r[_START]) for r in self.roots]

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-pass metrics: self times in ms and exact counts."""
        self_ns: dict = {}
        calls: dict = {}
        aborts = 0
        definitions = 0
        for span in self.spans + self.roots:
            name = self.names[span[_NAME]]
            self_ns[name] = self_ns.get(name, 0) + span[_END] - span[_START] - span[_CHILD]
            calls[name] = calls.get(name, 0) + 1
            if name in DEFINITIONS:
                definitions += 1
                aborts += span[_ERROR] == "DefinitionAbort"
        out = {}
        for name, ns in self_ns.items():
            out[f"{name}.self_ms"] = ns / 1e6
            out[f"{name}.calls"] = calls[name]
            layer = name.partition(".")[0]
            if layer != "cli":
                out[f"{layer}.self_ms"] = out.get(f"{layer}.self_ms", 0.0) + ns / 1e6
        builds = calls.get("structures.value_matrix", 0)
        out["structures.value_matrix.cells"] = self.cells
        out["structures.value_matrix.rebuild_ratio"] = self.rebuilds / builds if builds else 0.0
        out["stability.definition_abort_ratio"] = aborts / definitions if definitions else 0.0
        out["cli.report_bytes"] = self.report_bytes
        return out


def combine(passes: list[dict], overhead_ratio: float) -> dict:
    """Median self times over traced passes; counts must agree between passes."""
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = overhead_ratio
            continue
        values = [p.get(name, 0 if unit in ("count", "bytes") else 0.0) for p in passes]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics
