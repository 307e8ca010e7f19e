"""Per-layer trace: spans around calls into each module of ``sqdist``.

The tracer wraps functions from the outside; the program is not changed.
Every public function of every module is wrapped, plus the few private or
method entry points a per-layer metric needs (``_isolate``,
``_compare_roots``, ``IsolatedRoot.refined``, ``ScanReport.to_csv``,
``SimpleGraph.adjacency``).  A wrapper is rebound wherever the original is
bound: in its own module, in every ``sqdist`` module that imported it by
name, and in the package namespace.  ``IntPolynomial.__call__`` (the exact
sign evaluation, called hundreds of thousands of times) is counted, not
spanned; its time stays in the caller's self time.

Spans are kept in memory as (id, parent, op, name, layer, start, end,
extra) tuples and written out when the run ends.  Self time is a span's
duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("partitions", "charpoly", "spectrum", "extremal", "oracle", "matrices", "_kernels", "cli")
EXTRA_TARGETS = (
    ("spectrum", "_isolate"),
    ("extremal", "_compare_roots"),
    ("spectrum", "IsolatedRoot.refined"),
    ("extremal", "ScanReport.to_csv"),
    ("matrices", "SimpleGraph.adjacency"),
)

ENUMERATE = ("partitions.enumerate_partitions", "partitions.enumerate_class")
RESIDUAL = ("charpoly.char_poly_factored", "charpoly.reduced_poly_p", "charpoly.det_B_charpoly")
SIGN = ("charpoly.lambda_s1_sign", "charpoly.criterion_gap")
COMPARE = ("extremal.compare_energy", "extremal.compare_radius", "extremal._compare_roots")

# name -> (inclusive-time metric, call-count metric or None); time is summed
# over the outermost span of the group, so nested calls count once
GROUPS = {
    "partitions.enumerate_s": (ENUMERATE, None),
    "charpoly.residual_s": (RESIDUAL, "charpoly.residual_calls"),
    "charpoly.sign_s": (SIGN, "charpoly.sign_calls"),
    "charpoly.det_s": (("charpoly.det_delta_exact",), None),
    "spectrum.deflate_s": (("spectrum.deflated_residual",), None),
    "spectrum.isolate_s": (("spectrum._isolate",), "spectrum.isolate_calls"),
    "extremal.compare_s": (COMPARE, "extremal.compare_calls"),
    "extremal.csv_s": (("extremal.ScanReport.to_csv",), None),
    "oracle.jacobi_s": (("oracle.symmetric_eigenvalues",), None),
    "matrices.build_s": (("matrices.sqdist_from_partition",), None),
    "matrices.graph_s": (("matrices.multipartite_graph",), None),
    "matrices.bfs_s": (("matrices.sqdist_from_graph",), None),
    "kernels.jacobi_s": (("kernels.jacobi_eigensystem",), None),
    "kernels.bfs_s": (("kernels.bfs_distances",), None),
}
SELF_LAYERS = ("spectrum", "extremal", "oracle", "cli")

PER_LAYER = (
    "partitions.enumerate_s", "partitions.yielded",
    "charpoly.residual_s", "charpoly.residual_calls", "charpoly.sign_s",
    "charpoly.sign_calls", "charpoly.det_s",
    "spectrum.deflate_s", "spectrum.isolate_s", "spectrum.isolate_calls",
    "spectrum.roots_isolated", "spectrum.roots_used_ratio", "spectrum.poly_evals",
    "spectrum.residual_degree_max", "spectrum.self_s",
    "extremal.compare_s", "extremal.compare_calls", "extremal.refine_calls",
    "extremal.unproven_ties", "extremal.csv_s", "extremal.self_s",
    "oracle.jacobi_s", "oracle.jacobi_sweeps", "oracle.closed_form_s", "oracle.self_s",
    "matrices.build_s", "matrices.graph_s", "matrices.bfs_s",
    "kernels.jacobi_s", "kernels.bfs_s", "kernels.rotations_computed",
    "kernels.flops_computed", "kernels.bytes_computed",
    "cli.self_s",
    "trace.overhead_ratio",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    if metric.endswith("_computed") and "bytes" in metric:
        return "B"
    if metric.endswith("_computed") and "flops" in metric:
        return "flop"
    return "count"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op

    def _span(self, name, layer, fn, after=None, generator=False):
        spans, stack = self.spans, self._stack
        tracer = self

        def call(args, kwargs, step=None):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            extra = 0
            t0 = perf_counter()
            try:
                result = step() if step else fn(*args, **kwargs)
                extra = 1
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, tracer.op, name, layer, t0, t1, extra))

        if generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = call(None, None, step=lambda: next(it))
                    except StopIteration:
                        # the closing span recorded extra=0: nothing yielded
                        return
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = call(args, kwargs)
                if after is not None:
                    after(tracer.counts, args, result)
                return result
        return wrapper

    # -- patching -------------------------------------------------------------
    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        replace: dict[int, object] = {}
        for mod in modules.values():
            layer = _layer(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self._span(
                    name, layer, obj, AFTER.get(name), inspect.isgeneratorfunction(obj)
                )
        for short, dotted in EXTRA_TARGETS:
            mod = modules[short]
            layer = _layer(mod.__name__)
            owner, attr = mod, dotted
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                owner = getattr(mod, cls_name)
            fn = getattr(owner, attr)
            wrapper = self._span(f"{layer}.{dotted}", layer, fn, AFTER.get(f"{layer}.{dotted}"))
            if owner is mod:
                replace[id(fn)] = wrapper
            else:
                self._set(owner, attr, wrapper)
        # rebind every module-level name bound to a wrapped function
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(mod, attr, replace[id(obj)])
        poly = modules["charpoly"].IntPolynomial
        evaluate = poly.__call__
        counts = self.counts

        def counted_call(self_, x):
            counts["spectrum.poly_evals"] += 1
            return evaluate(self_, x)

        self._set(poly, "__call__", counted_call)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """All spans as gzip JSON lines, after a header with the counters."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "layer", "start", "end", "extra"],
                                 "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters taken from return values -----------------------------------------
def _after_residual(counts, args, poly):
    counts["spectrum.residual_degree_max"] = max(counts["spectrum.residual_degree_max"], poly.degree)


def _after_secular_roots(counts, args, roots):
    counts["spectrum.roots_isolated"] += len(roots)


def _after_radius_root(counts, args, root):
    counts["spectrum.roots_isolated"] += 1
    counts["spectrum.roots_used"] += 1


def _after_full_spectrum(counts, args, report):
    counts["spectrum.roots_used"] += len(report.isolated)


def _after_energy(counts, args, report):
    counts["spectrum.roots_used"] += report.theta_root is not None


def _after_compare_roots(counts, args, result):
    counts["extremal.unproven_ties"] += result == 0


def _after_eigenvalues(counts, args, result):
    counts["oracle.jacobi_sweeps"] += result.iterations


def _after_jacobi_kernel(counts, args, result):
    # Modelled on the numpy kernel: every sweep rotates all n(n-1)/2 pairs;
    # a rotation updates two rows and two columns (12n flops, 4n doubles
    # read and written); every convergence check reads the n x n matrix.
    n = args[0].shape[0]
    sweeps = result[1]
    rotations = sweeps * n * (n - 1) // 2
    counts["kernels.rotations_computed"] += rotations
    counts["kernels.flops_computed"] += rotations * 12 * n + (sweeps + 1) * 2 * n * n
    counts["kernels.bytes_computed"] += rotations * 64 * n + (sweeps + 1) * 8 * n * n


AFTER = {
    "spectrum.deflated_residual": _after_residual,
    "spectrum.secular_roots": _after_secular_roots,
    "spectrum.spectral_radius_root": _after_radius_root,
    "spectrum.full_spectrum": _after_full_spectrum,
    "spectrum.energy": _after_energy,
    "extremal._compare_roots": _after_compare_roots,
    "oracle.symmetric_eigenvalues": _after_eigenvalues,
    "kernels.jacobi_eigensystem": _after_jacobi_kernel,
}


# -- aggregation -----------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _op, _n, _l, t0, t1, _x in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _p, _op, _n, _l, t0, t1, _x in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio."""
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        parent = span[1]
        while parent in by_id:
            span = by_id[parent]
            yield span
            parent = span[1]

    metrics: dict[str, float] = {m: 0 for m in PER_LAYER if m != "trace.overhead_ratio"}
    for metric, (names, calls) in GROUPS.items():
        group = set(names)
        for span in spans:
            if span[3] in group and not any(a[3] in group for a in ancestors(span)):
                metrics[metric] += span[6] - span[5]
                if calls:
                    metrics[calls] += 1
                if metric == "partitions.enumerate_s":
                    metrics["partitions.yielded"] += span[7]
    compare = set(COMPARE)
    for span in spans:
        layer = span[4]
        if span[3] == "spectrum.IsolatedRoot.refined" and any(a[3] in compare for a in ancestors(span)):
            metrics["extremal.refine_calls"] += 1
        if layer in ("spectrum", "charpoly") and span[1] in by_id and by_id[span[1]][3] == "oracle.verify_partition":
            metrics["oracle.closed_form_s"] += span[6] - span[5]
    totals = layer_self_totals(spans)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = totals.get(layer, 0)
    for key in ("spectrum.poly_evals", "spectrum.roots_isolated", "spectrum.residual_degree_max",
                "extremal.unproven_ties", "oracle.jacobi_sweeps", "kernels.rotations_computed",
                "kernels.flops_computed", "kernels.bytes_computed"):
        metrics[key] = counts[key]
    isolated = counts["spectrum.roots_isolated"]
    metrics["spectrum.roots_used_ratio"] = counts["spectrum.roots_used"] / isolated if isolated else 0.0
    return metrics


def layer_self_totals(spans) -> dict[str, float]:
    """Self time summed per layer, for the dominant-layer check."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[4]] += own[span[0]]
    return dict(totals)
