"""In-memory span recorder that instruments carlembed from the outside.

While installed, the tracer replaces selected functions (and the
``__init__`` of two classes) with wrappers that record a span: name,
start, end, parent span, thread and an optional size.  A function is
replaced in every ``carlembed`` module whose namespace holds it, because
callers look functions up as module globals at call time; uninstalling
restores the originals.  Nothing under ``src/`` changes.

A span opened on a thread with no open span of its own (the search
workers) takes as parent the innermost open span of the main thread.
Self time is a span's duration minus the durations of its children on
the same thread, which run one after another; so on the main thread the
self times of an operation's spans add up to its root span.
"""

import functools
import importlib
import itertools
import sys
import threading
import time

# (span name, module, attribute path, size of the call or None)
TARGETS = [
    ("cli.load_json", "carlembed.cli", "load_json", None),
    ("cli.measure_from_dict", "carlembed.cli", "measure_from_dict", None),
    ("cli.sequence_from_dict", "carlembed.cli", "sequence_from_dict", None),
    ("cli.poly_from_dict", "carlembed.cli", "poly_from_dict", None),
    ("measure.box_constant", "carlembed.measure", "box_constant", None),
    ("measure.embedding_norm_sq", "carlembed.measure", "embedding_norm_sq", None),
    ("measure.kernel_constant_grid", "carlembed.measure", "kernel_constant_grid", None),
    ("measure._grid_points", "carlembed.measure", "_grid_points", lambda a, r: len(r)),
    ("measure.kernel_constant_on_support", "carlembed.measure",
     "kernel_constant_on_support", None),
    ("measure.DiscreteMeasure", "carlembed.measure", "DiscreteMeasure.__init__", None),
    ("numerics.HermitianMatrix", "carlembed.numerics", "HermitianMatrix.__init__", None),
    ("numerics.extreme_eigs", "carlembed.numerics", "extreme_eigs",
     lambda a, r: len(getattr(a[0], "entries", a[0]))),
    ("numerics.disc_rule", "carlembed.numerics", "disc_rule", lambda a, r: len(r[1])),
    ("numerics.ball_rule", "carlembed.numerics", "ball_rule", lambda a, r: len(r[1])),
    ("numerics.boundary_rule", "carlembed.numerics", "boundary_rule", lambda a, r: len(r[1])),
    ("calculus.uchiyama_embedding_check", "carlembed.calculus", "uchiyama_embedding_check", None),
    ("calculus.corollary_check", "carlembed.calculus", "corollary_check", None),
    ("calculus.key_inequality_check", "carlembed.calculus", "key_inequality_check", None),
    ("calculus.greens_formula_check", "carlembed.calculus", "greens_formula_check", None),
    ("calculus.laplacian_fd", "carlembed.calculus", "laplacian_fd", None),
    ("calculus.invariant_laplacian_fd", "carlembed.calculus", "invariant_laplacian_fd", None),
    ("geometry.inner", "carlembed.geometry", "inner", None),
    ("geometry.szego_kernel", "carlembed.geometry", "szego_kernel", None),
    ("geometry.normalized_kernel", "carlembed.geometry", "normalized_kernel", None),
    ("geometry.poisson_kernel", "carlembed.geometry", "poisson_kernel", None),
    ("geometry.mobius", "carlembed.geometry", "mobius", None),
    ("interpolation.carleson_delta", "carlembed.interpolation", "carleson_delta", None),
    ("interpolation.orthogonalizer_cond", "carlembed.interpolation", "orthogonalizer_cond", None),
    ("extremal.ratio", "carlembed.extremal", "ratio", None),
    ("extremal.search", "carlembed.extremal", "search", lambda a, r: len(r.notes)),
]

ROOT = "cli.main"


class Tracer:
    """Spans are tuples (id, name, start, end, parent, thread, size, op)."""

    def __init__(self):
        self.spans = []
        self.missing = []  # targets absent from the program, so never traced
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._main = []
        self._op = None
        self._patches = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _record(self, name, fn, size, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        n = size(args, result) if size is not None else None
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), n, self._op))
        return result

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, size, args, kwargs)

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every place a target is held."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "carlembed" or k.startswith("carlembed."))]
        plan = []
        for name, module_name, path, size in TARGETS:
            owner = importlib.import_module(module_name)
            head, _, attr = path.rpartition(".")
            if head:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, size)
            if head:
                plan.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        plan.append((module, key, original, wrapper))
        return plan

    def install(self):
        """Replace every target in every carlembed module that holds it."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def run_op(self, op_index, fn):
        """Run fn() as operation op_index under a root span; returns (result, wall)."""
        self._op = op_index
        sid = next(self._ids)
        self._main.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self._main.pop()
            self.spans.append((sid, ROOT, t0, t1, None, threading.get_ident(), None, op_index))
        return result, t1 - t0


def by_op(spans):
    ops = {}
    for span in spans:
        ops.setdefault(span[7], []).append(span)
    return ops


def self_times(spans):
    """{span id: duration minus same-thread children's durations}."""
    tid = {s[0]: s[5] for s in spans}
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        parent = s[4]
        if parent is not None and tid.get(parent) == s[5]:
            out[parent] -= s[3] - s[2]
    return out


# Per-layer metrics of one operation.  Times are self times unless noted.
SELF_METRICS = {
    "cli.parse_s": ("cli.load_json", "cli.measure_from_dict", "cli.sequence_from_dict",
                    "cli.poly_from_dict"),
    "cli.self_s": (ROOT,),
    "measure.box_s": ("measure.box_constant",),
    "measure.embedding_norm_s": ("measure.embedding_norm_sq",),
    "measure.c_grid_s": ("measure.kernel_constant_grid", "measure._grid_points"),
    "measure.c_supp_s": ("measure.kernel_constant_on_support",),
    "measure.build_s": ("measure.DiscreteMeasure",),
    "numerics.hermitian_check_s": ("numerics.HermitianMatrix",),
    "numerics.eig_s": ("numerics.extreme_eigs",),
    "calculus.contraction_s": ("calculus.uchiyama_embedding_check",),
    "calculus.corollary_s": ("calculus.corollary_check",),
    "calculus.key_s": ("calculus.key_inequality_check",),
    "calculus.green_s": ("calculus.greens_formula_check",),
    "calculus.fd_s": ("calculus.laplacian_fd", "calculus.invariant_laplacian_fd"),
    "geometry.scalar_s": ("geometry.inner", "geometry.szego_kernel", "geometry.normalized_kernel",
                          "geometry.poisson_kernel", "geometry.mobius"),
    "interpolation.delta_s": ("interpolation.carleson_delta",),
    "interpolation.cond_s": ("interpolation.orthogonalizer_cond",),
}
COUNT_METRICS = {
    "measure.builds": ("measure.DiscreteMeasure",),
    "numerics.eig_calls": ("numerics.extreme_eigs",),
    "calculus.key_calls": ("calculus.key_inequality_check",),
    "geometry.scalar_calls": SELF_METRICS["geometry.scalar_s"],
    "extremal.evals": ("extremal.ratio",),
}
SIZE_METRICS = {
    "measure.grid_points": ("measure._grid_points",),
    "numerics.quad_nodes": ("numerics.disc_rule", "numerics.ball_rule", "numerics.boundary_rule"),
    "extremal.restarts_aborted": ("extremal.search",),
}
RULE_SPANS = SIZE_METRICS["numerics.quad_nodes"]


def op_metrics(spans):
    """Per-layer numbers of one operation's spans; absent layers are left out."""
    selfs = self_times(spans)
    out = {}
    for metric, names in SELF_METRICS.items():
        hits = [s for s in spans if s[1] in names]
        if hits:
            out[metric] = sum(selfs[s[0]] for s in hits)
    for metric, names in COUNT_METRICS.items():
        count = sum(s[1] in names for s in spans)
        if count:
            out[metric] = count
    for metric, names in SIZE_METRICS.items():
        hits = [s for s in spans if s[1] in names]
        if hits:
            out[metric] = sum(s[6] for s in hits)
    eigs = [s[6] for s in spans if s[1] == "numerics.extreme_eigs"]
    if eigs:
        out["numerics.eig_order_max"] = max(eigs)
    ratios = [s for s in spans if s[1] == "extremal.ratio"]
    searches = [s for s in spans if s[1] == "extremal.search"]
    if ratios and searches:
        busy = sum(s[3] - s[2] for s in ratios)
        workers = len({s[5] for s in ratios})
        wall = sum(s[3] - s[2] for s in searches)
        out["extremal.ratio_s"] = busy  # inclusive, summed over worker threads
        out["extremal.workers"] = workers
        out["extremal.busy_frac"] = busy / (wall * workers)
    return out


def main_thread_self_sum(spans):
    """Sum of self times of the spans on the root span's thread."""
    thread = next(s[5] for s in spans if s[1] == ROOT)
    selfs = self_times(spans)
    return sum(selfs[s[0]] for s in spans if s[5] == thread)
