"""A span tracer that wraps grothlab's public functions from outside.

``Tracer.install(mods)`` replaces every public function of the measured
modules, and selected ``Polynomial``/``PolyMatrix`` methods, by a wrapper
that records a span: a name, a start, an end and the index of its parent
span.  The wrapper is rebound in every ``grothlab`` module namespace that
holds the original, so calls made inside the package (``symfunc`` calling
``determinant``, ``tableaux`` calling ``enumerate_ssyt``) are seen too.
Spans are kept in memory, in flat arrays, until ``metrics`` reduces them;
``write_spans`` writes them out.  ``uninstall`` restores the originals.

Layers are module names.  ``shapes`` is timed as self time only: its
functions are leaves called in the innermost loops, so they add their time
to a per-span counter instead of recording spans of their own.  The
sampler's per-draw functions are not wrapped, because a span per geometric
draw would cost more than the draw; draws are counted from the arguments
of ``monte_carlo``.  ``bijections`` and ``cli`` are not wrapped: the
benchmark never calls them.

Counts repeat exactly for the same tasks.  Timings do not.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

MEASURED = ("polynomial", "tableaux", "symfunc", "vertex", "diffops", "lpp")
SELF_TIME_ONLY = ("shapes",)
NOT_WRAPPED = {
    "lpp": {"SplitMix64", "sample_geometric", "sample_matrix", "last_passage"},
}
METHODS = {
    ("polynomial", "Polynomial"): (
        "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__",
        "__pow__", "__truediv__", "__eq__", "substitute", "evaluate",
        "divexact_diff"),
    ("polynomial", "PolyMatrix"): ("__init__", "__mul__", "determinant"),
}
ROUTED = {("symfunc", "dual_grothendieck"), ("symfunc", "grothendieck")}
# A product is "small" when len(a) * len(b) <= 512, as seen from the
# arguments (a rational factor counts as one term).  512 is the threshold at
# which Polynomial.__mul__ switches to its packed path.
SMALL_PRODUCT_MAX = 512

G_ROUTES = ("rpp", "jt_h", "jt_e", "multischur")
GROTH_ROUTES = ("svt", "jacobi_trudi", "divided_diff")

# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = (
    ("tableaux.objects", "count", "lower"),
    ("tableaux.enum.self_s", "s", "lower"),
    ("tableaux.objects_per_s", "1/s", "higher"),
    ("tableaux.weight.self_s", "s", "lower"),
    ("shapes.self_s", "s", "lower"),
    ("polynomial.self_s", "s", "lower"),
    ("polynomial.mul.calls", "count", "lower"),
    ("polynomial.mul.small_calls", "count", "lower"),
    ("polynomial.mul.large_calls", "count", "lower"),
    ("polynomial.mul.term_products", "count", "lower"),
    ("polynomial.mul.terms_out", "count", "lower"),
    ("polynomial.mul.self_s", "s", "lower"),
    ("polynomial.add.calls", "count", "lower"),
    ("polynomial.add.terms_copied", "count", "lower"),
    ("polynomial.determinant.calls", "count", "lower"),
    ("polynomial.determinant.max_size", "count", "lower"),
    ("polynomial.determinant.self_s", "s", "lower"),
    ("polynomial.hk_ek.calls", "count", "lower"),
    ("polynomial.hk_ek.self_s", "s", "lower"),
    ("polynomial.substitute.calls", "count", "lower"),
    ("polynomial.substitute.self_s", "s", "lower"),
    ("polynomial.divexact_diff.self_s", "s", "lower"),
    *((f"symfunc.route.{r}.s", "s", "lower") for r in G_ROUTES + GROTH_ROUTES),
    ("symfunc.verify.s", "s", "lower"),
    ("symfunc.self_s", "s", "lower"),
    ("diffops.self_s", "s", "lower"),
    ("vertex.partition_function.s", "s", "lower"),
    ("vertex.rows", "count", "lower"),
    ("vertex.operator_relations.s", "s", "lower"),
    ("vertex.ybe.s", "s", "lower"),
    ("vertex.self_s", "s", "lower"),
    ("lpp.draws", "count", "lower"),
    ("lpp.sample.s", "s", "lower"),
    ("lpp.draws_per_s", "1/s", "higher"),
    ("lpp.exact.calls", "count", "lower"),
    ("lpp.exact.s", "s", "lower"),
    ("lpp.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)

# span groups whose outermost spans give an inclusive time
_TOP_GROUPS = {
    **{f"symfunc.route.{r}.s": (lambda name, r=r: name == f"symfunc.route.{r}")
       for r in G_ROUTES + GROTH_ROUTES},
    "symfunc.verify.s": lambda name: name.startswith("symfunc.verify_"),
    "vertex.partition_function.s": lambda name: name == "vertex.partition_function",
    "vertex.operator_relations.s":
        lambda name: name == "vertex.verify_operator_relations",
    "vertex.ybe.s": lambda name: name == "vertex.check_ybe",
    "lpp.sample.s": lambda name: name == "lpp.monte_carlo",
    "lpp.exact.s": lambda name: name == "lpp.exact_prob",
    "tableaux.enum.s": lambda name: name.startswith("tableaux.enumerate_"),
}
# span groups whose self time is reported
_SELF_GROUPS = {
    "polynomial.mul.self_s": lambda name: name in (
        "polynomial.Polynomial.__mul__", "polynomial.Polynomial.__rmul__"),
    "polynomial.determinant.self_s": lambda name: name == "polynomial.determinant",
    "polynomial.hk_ek.self_s": lambda name: name in ("polynomial.hk", "polynomial.ek"),
    "polynomial.substitute.self_s":
        lambda name: name == "polynomial.Polynomial.substitute",
    "polynomial.divexact_diff.self_s":
        lambda name: name == "polynomial.Polynomial.divexact_diff",
    "tableaux.enum.self_s": lambda name: name.startswith("tableaux.enumerate_"),
    "tableaux.weight.self_s": lambda name: name.startswith((
        "tableaux.weight_", "tableaux.rpp_a_vector", "tableaux.rpp_b_vector",
        "tableaux.svt_extra_vector", "tableaux.nilp_weight")),
}
# span names whose call count is reported
_CALL_GROUPS = {
    "polynomial.determinant.calls": ("polynomial.determinant",),
    "polynomial.hk_ek.calls": ("polynomial.hk", "polynomial.ek"),
    "polynomial.substitute.calls": ("polynomial.Polynomial.substitute",),
    "lpp.exact.calls": ("lpp.exact_prob",),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.leaf_ns: dict = {}  # span index -> time of self-time-only calls in it
        self.stack = [-1]
        self.counts = Counter()
        self.self_only_ns = Counter()
        self._in_leaf = False
        self._enum_ids: set = set()
        self._patches: list = []

    # -- recording -----------------------------------------------------
    def _id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, name, hook=None, name_of=None):
        nid = self._id(name)
        ident = self._id
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opener(ident(name_of(args, kwargs)) if name_of else nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                closer(idx)

        return wrapper

    def wrap_generator(self, fn, name, count_objects):
        nid = self._id(name)
        self._enum_ids.add(nid)
        opener, closer, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.stack[-1]
            top = outer < 0 or self.name_id[outer] not in self._enum_ids
            gen = fn(*args, **kwargs)
            while True:
                idx = opener(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    closer(idx)
                if count_objects and top:
                    counts["tableaux.objects"] += 1
                yield item

        return wrapper

    def wrap_self_time_only(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._in_leaf = False
                self.self_only_ns[layer] += dt
                p = self.stack[-1]
                if p >= 0:
                    self.leaf_ns[p] = self.leaf_ns.get(p, 0) + dt

        return wrapper

    # -- installing ----------------------------------------------------
    def install(self, mods):
        """Wrap the public functions of the measured modules of ``mods``."""
        replaced = {}  # id(original) -> wrapper
        for layer in MEASURED + SELF_TIME_ONLY:
            module = getattr(mods, layer)
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or attr in NOT_WRAPPED.get(layer, ())):
                    continue
                replaced[id(fn)] = self._wrapper_for(mods, layer, attr, fn)
        for name, module in list(sys.modules.items()):
            if name != "grothlab" and not name.startswith("grothlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(getattr(mods, layer), cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(fn, f"{layer}.{cls_name}.{meth}",
                                             hook=self._method_hook(mods, cls_name, meth)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper_for(self, mods, layer, attr, fn):
        if layer in SELF_TIME_ONLY:
            return self.wrap_self_time_only(fn, layer)
        name = f"{layer}.{attr}"
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, name, count_objects=layer == "tableaux")
        if (layer, attr) in ROUTED:
            default = inspect.signature(fn).parameters["route"].default

            def name_of(args, kwargs):
                route = kwargs.get("route", args[3] if len(args) > 3 else default)
                return f"symfunc.route.{route}"

            return self.wrap(fn, name, name_of=name_of)
        counts = self.counts
        if name == "polynomial.determinant":
            def hook(args, result):
                m = args[0]
                size = m.rows if isinstance(m, mods.polynomial.PolyMatrix) else len(m)
                if size > counts["polynomial.determinant.max_size"]:
                    counts["polynomial.determinant.max_size"] = size
        elif name == "vertex.partition_function":
            def hook(args, result):
                counts["vertex.rows"] += len(args[0].rows)
        elif name == "vertex.row_operator":
            def hook(args, result):
                counts["vertex.rows"] += 1
        elif name == "lpp.monte_carlo":
            def hook(args, result):
                params = args[1]
                counts["lpp.draws"] += result.trials * params.l * params.n
        else:
            hook = None
        return self.wrap(fn, name, hook=hook)

    def _method_hook(self, mods, cls_name, meth):
        if cls_name != "Polynomial":
            return None
        poly = mods.polynomial.Polynomial
        counts = self.counts
        if meth in ("__mul__", "__rmul__"):
            def hook(args, result):
                a, b = args
                prod = len(a.terms) * (len(b.terms) if isinstance(b, poly) else 1)
                counts["polynomial.mul.calls"] += 1
                counts["polynomial.mul.term_products"] += prod
                if prod > SMALL_PRODUCT_MAX:
                    counts["polynomial.mul.large_calls"] += 1
                else:
                    counts["polynomial.mul.small_calls"] += 1
                if isinstance(result, poly):
                    counts["polynomial.mul.terms_out"] += len(result.terms)
            return hook
        if meth in ("__add__", "__radd__", "__sub__"):
            def hook(args, result):
                a, b = args
                counts["polynomial.add.calls"] += 1
                # __add__ copies self's terms unless one side is zero; __sub__
                # always copies them
                b_nonzero = bool(b.terms) if isinstance(b, poly) else b != 0
                if meth == "__sub__" or (a.terms and b_nonzero):
                    counts["polynomial.add.terms_copied"] += len(a.terms)
            return hook
        return None

    # -- reducing ------------------------------------------------------
    def span_count(self):
        return len(self.name_id)

    def write_spans(self, path):
        """Write every span as a tab-separated line: index, parent, name,
        start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")

    def metrics(self, untraced_s, traced_s):
        """Reduce the spans to the per-layer metrics, {name: value}."""
        n = len(self.name_id)
        names, name_id, parent, start, end, leaf_ns = (
            self.names, self.name_id, self.parent, self.start, self.end, self.leaf_ns)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        top_keys = list(_TOP_GROUPS)
        bits = [sum(1 << k for k, key in enumerate(top_keys) if _TOP_GROUPS[key](name))
                for name in names]
        mask = array("i", bytes(4 * n))
        self_ns = [0] * len(names)
        calls = [0] * len(names)
        top_ns = [0] * len(top_keys)
        for i in range(n):
            nid = name_id[i]
            dur = end[i] - start[i]
            self_ns[nid] += dur - child[i] - leaf_ns.get(i, 0)
            calls[nid] += 1
            b = bits[nid]
            p = parent[i]
            above = mask[p] if p >= 0 else 0
            mask[i] = above | b
            fresh = b & ~above
            k = 0
            while fresh:
                if fresh & 1:
                    top_ns[k] += dur
                fresh >>= 1
                k += 1

        out = {}
        by_layer = Counter()
        for nid, name in enumerate(names):
            by_layer[name.split(".", 1)[0]] += self_ns[nid]
        for layer in MEASURED:
            out[f"{layer}.self_s"] = by_layer[layer] / 1e9
        for layer in SELF_TIME_ONLY:
            out[f"{layer}.self_s"] = self.self_only_ns[layer] / 1e9
        for key, pred in _SELF_GROUPS.items():
            out[key] = sum(s for s, name in zip(self_ns, names) if pred(name)) / 1e9
        for key, members in _CALL_GROUPS.items():
            out[key] = sum(c for c, name in zip(calls, names) if name in members)
        for k, key in enumerate(top_keys):
            out[key] = top_ns[k] / 1e9
        for key in ("tableaux.objects", "polynomial.mul.calls",
                    "polynomial.mul.small_calls", "polynomial.mul.large_calls",
                    "polynomial.mul.term_products", "polynomial.mul.terms_out",
                    "polynomial.add.calls", "polynomial.add.terms_copied",
                    "polynomial.determinant.max_size", "vertex.rows", "lpp.draws"):
            out[key] = self.counts[key]
        enum_s = out.pop("tableaux.enum.s")
        out["tableaux.objects_per_s"] = out["tableaux.objects"] / enum_s if enum_s else 0.0
        sample_s = out["lpp.sample.s"]
        out["lpp.draws_per_s"] = out["lpp.draws"] / sample_s if sample_s else 0.0
        out["trace_overhead_ratio"] = traced_s / untraced_s
        return {name: out[name] for name, _, _ in LAYER_METRICS}
