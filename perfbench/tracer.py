"""Outside-in tracer for gencactus.

`Tracer.install()` wraps, at run time, the public functions of each gencactus
module and a few methods the layer metrics need.  A function that one module
bound by `from .x import f` is rebound in every gencactus namespace that holds
it, so a call is traced whichever module makes it.  The source tree is not
edited.

Each wrapped call is a span: name, start, end, parent span and query id.
Spans stay in memory and are written out by `write_spans` at the end.  A
span's self time is its duration minus the time its child spans cover; the
per-layer busy times are sums of self times.

The scalar layer gets counters, not spans, on its arithmetic: CycloReal
products, sign requests, certified signs and interval evaluations.  Sign
certification itself is timed as a span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("scalar", "linalg", "coxeter", "cactus", "racg", "rep", "cli")

# methods traced as spans, besides every public module-level function
_METHODS = {
    "coxeter": {"GroupTable": ("__init__",), "GroupElement": ("__mul__",)},
    "racg": {"RacgContext": ("__init__", "embed", "cactus_equal")},
}


def _nonzero_counts(matrix, by_row):
    if by_row:
        return [sum(1 for x in row if x != 0) for row in matrix]
    return [sum(1 for row in matrix if row[k] != 0) for k in range(len(matrix[0]))]


def _after_mat_mul(counts, args, result):
    a, b = args
    if not a or not b:
        return
    counts["linalg.mat_mul_madds"] += len(a) * len(b) * len(b[0])
    cols = _nonzero_counts(a, by_row=False)
    rows = _nonzero_counts(b, by_row=True)
    counts["linalg.mat_mul_useful"] += sum(c * r for c, r in zip(cols, rows))


def _after_enumerate(counts, args, result):
    counts["coxeter.elements_enumerated"] += len(result)


def _after_table(counts, args, result, systems):
    systems.add(args[1])


def _after_evaluate(counts, args, result):
    counts["cactus.letters_evaluated"] += len(args[0])


def _after_context(counts, args, result):
    counts["racg.S_size"] += len(args[0].conjugates)


def _after_normal_form(counts, args, result):
    counts["racg.nf_letters_in"] += len(args[0])
    counts["racg.nf_letters_out"] += len(result)


def _before_pi_rep(args):
    ctx, t = args[0], args[1]
    return ("Pi", Fraction(t)) in ctx.caches


def _after_pi_rep(counts, args, result, hit):
    counts["rep.Pi_cache_hits"] += hit


def _after_check_relations(counts, args, result):
    counts["rep.relations_checked"] += result.checked


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, query id, name, start, end)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self.systems = set()
        self.query = 0
        self.active = True
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 1

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                tracer.spans.append((sid, parent, tracer.query, name, start, end))
            if after:
                if before:
                    after(tracer.counts, args, result, token)
                else:
                    after(tracer.counts, args, result)
            return result

        traced.__traced__ = fn
        return traced

    def counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__traced__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every loaded gencactus module; call after importing them."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "gencactus" or name.startswith("gencactus."))
        }
        hooks = {
            "linalg.mat_mul": (None, _after_mat_mul),
            "coxeter.enumerate_group": (None, _after_enumerate),
            "coxeter.GroupTable.__init__": (
                None,
                lambda c, a, r: _after_table(c, a, r, self.systems),
            ),
            "cactus.evaluate_to_coxeter": (None, _after_evaluate),
            "racg.RacgContext.__init__": (None, _after_context),
            "racg.normal_form": (None, _after_normal_form),
            "rep.Pi_rep": (_before_pi_rep, _after_pi_rep),
            "rep.check_relations": (None, _after_check_relations),
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules.get(f"gencactus.{layer}")
            if mod is None or layer == "scalar":
                continue
            for fname, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and not fname.startswith("_")
                    and fn.__module__ == mod.__name__
                    and not hasattr(fn, "__traced__")
                ):
                    name = f"{layer}.{fname}"
                    before, after = hooks.get(name, (None, None))
                    replaced[fn] = self.span(name, fn, before, after)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    before, after = hooks.get(name, (None, None))
                    setattr(cls, meth, self.span(name, getattr(cls, meth), before, after))
        for mod in modules.values():
            for fname, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, fname, replaced[value])
        scalar = modules.get("gencactus.scalar")
        if scalar is not None:
            cyclo = scalar.CycloReal
            mul = self.counter("scalar.mul_calls", cyclo.__mul__)
            cyclo.__mul__ = cyclo.__rmul__ = mul
            cyclo.sign = self.counter("scalar.sign_calls", cyclo.sign)
            cyclo._compute_sign = self.span("scalar.compute_sign", cyclo._compute_sign)
            cyclo._interval_value = self.counter("scalar.interval_evals", cyclo._interval_value)

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Aggregates that can be merged across processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "systems": len(self.systems),
        }

    def write_spans(self, fh):
        for sid, parent, query, name, start, end in self.spans:
            fh.write(f"{sid}\t{parent}\t{query}\t{name}\t{start:.9f}\t{end:.9f}\n")


def merge(snapshots):
    """Sum snapshots of several traced processes."""
    stats, counts, systems = {}, Counter(), 0
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = stats.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        counts.update(snap["counts"])
        systems += snap["systems"]
    return {"stats": stats, "counts": dict(counts), "systems": systems}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """The per-layer metrics of one traced run, from merged aggregates."""
    stats, counts = snap["stats"], Counter(snap["counts"])

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def busy(layer):
        return sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))

    table_builds = calls("coxeter.GroupTable.__init__")
    pi_calls = calls("rep.Pi_rep")
    out = {
        "scalar.mul_calls": counts["scalar.mul_calls"],
        "scalar.sign_calls": counts["scalar.sign_calls"],
        "scalar.sign_certified": calls("scalar.compute_sign"),
        "scalar.interval_evals": counts["scalar.interval_evals"],
        "scalar.sign_s": self_s("scalar.compute_sign"),
        "linalg.busy_s": busy("linalg"),
        "linalg.mat_mul_calls": calls("linalg.mat_mul"),
        "linalg.mat_mul_s": self_s("linalg.mat_mul"),
        "linalg.mat_mul_madds": counts["linalg.mat_mul_madds"],
        "linalg.mat_mul_useful_frac": _ratio(
            counts["linalg.mat_mul_useful"], counts["linalg.mat_mul_madds"]
        ),
        "linalg.kernel_basis_calls": calls("linalg.kernel_basis"),
        "linalg.kernel_basis_s": self_s("linalg.kernel_basis", "linalg.rational_kernel_basis"),
        "linalg.inverse_s": self_s("linalg.mat_inverse", "linalg.solve_columns"),
        "linalg.determinant_s": self_s("linalg.determinant"),
        "coxeter.busy_s": busy("coxeter"),
        "coxeter.table_builds": table_builds,
        "coxeter.table_s": self_s("coxeter.GroupTable.__init__"),
        "coxeter.table_reuse_ratio": _ratio(snap["systems"], table_builds),
        "coxeter.elements_enumerated": counts["coxeter.elements_enumerated"],
        "coxeter.enumerate_s": self_s("coxeter.enumerate_group"),
        "coxeter.element_mul_calls": calls("coxeter.GroupElement.__mul__"),
        "coxeter.element_mul_s": self_s("coxeter.GroupElement.__mul__"),
        "coxeter.longest_s": self_s("coxeter.longest_element"),
        "coxeter.conjugate_subset_calls": calls("coxeter.conjugate_subset"),
        "cactus.busy_s": busy("cactus"),
        "cactus.evaluate_calls": calls("cactus.evaluate_to_coxeter"),
        "cactus.evaluate_s": self_s("cactus.evaluate_to_coxeter"),
        "cactus.letters_evaluated": counts["cactus.letters_evaluated"],
        "cactus.parse_s": self_s("cactus.parse_word"),
        "racg.busy_s": busy("racg"),
        "racg.context_builds": calls("racg.RacgContext.__init__"),
        "racg.context_s": self_s("racg.RacgContext.__init__"),
        "racg.build_S_s": self_s("racg.build_S"),
        "racg.big_matrix_s": self_s("racg.big_matrix"),
        "racg.S_size": counts["racg.S_size"],
        "racg.embed_calls": calls("racg.RacgContext.embed"),
        "racg.embed_s": self_s("racg.RacgContext.embed"),
        "racg.semidirect_mul_calls": calls("racg.semidirect_mul"),
        "racg.normal_form_calls": calls("racg.normal_form"),
        "racg.normal_form_s": self_s("racg.normal_form"),
        "racg.nf_letters_in": counts["racg.nf_letters_in"],
        "racg.nf_letters_out": counts["racg.nf_letters_out"],
        "racg.nf_keep_ratio": _ratio(counts["racg.nf_letters_out"], counts["racg.nf_letters_in"]),
        "rep.busy_s": busy("rep"),
        "rep.Pi_rep_calls": pi_calls,
        "rep.Pi_rep_s": self_s("rep.Pi_rep"),
        "rep.Pi_cache_hit_ratio": _ratio(counts["rep.Pi_cache_hits"], pi_calls),
        "rep.rho_rep_s": self_s("rep.rho_rep"),
        "rep.check_relations_s": self_s("rep.check_relations"),
        "rep.relations_checked": counts["rep.relations_checked"],
        "rep.stable_lines_s": self_s("rep.stable_lines"),
        "rep.quotient_s": self_s("rep.quotient_rep"),
        "rep.Pi_of_s": self_s("rep.Pi_of"),
    }
    return out
