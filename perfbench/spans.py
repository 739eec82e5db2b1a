"""Span tracing of the torushecke layers, done from outside the package.

The tracer replaces public functions and operators with timing wrappers
for the length of one pass and puts every original back afterwards.  The
package modules import each other with ``from .x import y``, so a wrapper
has to replace the name in every module namespace that holds the
original, not only in the defining module; ``install`` does that by
identity.

Spans (name, start, end, parent) live in flat arrays and are written out
once, at the end of the pass.  QScalar arithmetic runs about a million
times per pass, so that layer keeps totals per (name, parent span)
instead of one span per call; only the outermost scalar call of a nest
is timed, nested ones are counted.

A layer's self time is the summed duration of its spans minus the time
their direct child spans (and aggregated scalar calls) cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

PACKAGE = "torushecke"

# (module, attribute, span group).  "Class.method" patches the class.
TARGETS = [
    ("laurent", "divide_by_binomial", "laurent.div"),
    ("laurent", "restrict_to_divisor", "laurent.restrict"),
    ("laurent", "LaurentPoly.__mul__", "laurent.poly_mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.poly_mul"),
    ("laurent", "RatFunc.__add__", "laurent.ratfunc_add"),
    ("laurent", "RatFunc.__mul__", "laurent.ratfunc_mul"),
    ("laurent", "RatFunc.__rmul__", "laurent.ratfunc_mul"),
    ("algebra", "AlgebraElement.__mul__", "algebra.mul"),
    ("algebra", "AlgebraElement.__rmul__", "algebra.mul"),
    ("algebra", "AlgebraElement.apply_to_function", "algebra.action"),
    ("algebra", "AlgebraElement.conjugate_by_delta", "algebra.action"),
    ("demazure", "sigma_along_word", "demazure.sigma_word"),
    ("demazure", "normal_form", "demazure.nf"),
    ("membership", "check_membership", "membership.check"),
    ("rootdata", "preset_datum", "rootdata.build"),
    ("rootdata", "weyl_ball", "rootdata.words"),
    ("rootdata", "reduced_words", "rootdata.words"),
    ("sampling", "random_scalar", "sampling.gen"),
    ("sampling", "random_weight", "sampling.gen"),
    ("sampling", "random_laurent_poly", "sampling.gen"),
    ("sampling", "random_small_algebra_element", "sampling.gen"),
    ("sampling", "random_outlier", "sampling.gen"),
    ("presentations", "quadratic_suite", "presentations.suite"),
    ("presentations", "braid_suite", "presentations.suite"),
    ("presentations", "length_additive_suite", "presentations.suite"),
    ("presentations", "bernstein_suite", "presentations.suite"),
    ("presentations", "verify_daha_suite", "presentations.suite"),
    ("presentations", "closure_suite", "presentations.suite"),
    ("presentations", "delta_criterion_suite", "presentations.suite"),
    ("presentations", "action_preservation_suite", "presentations.suite"),
    ("serialize", "element_from_dict", "serialize.load"),
    ("serialize", "dump_report", "serialize.dump"),
    ("elliptic", "eval_elliptic", "elliptic.eval"),
    ("elliptic", "verify_prop46", "elliptic.suite"),
    ("elliptic", "check_elliptic", "elliptic.suite"),
]

# QScalar arithmetic: aggregated, see the module docstring
SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
              "inverse", "__pow__")

MARK = "_perfbench_wrapper"


def package_modules() -> list:
    """The imported modules of the package, the package itself included."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps the layers on ``install`` and restores them on ``restore``."""

    def __init__(self):
        self.names: list[str] = []
        self.group_of: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        # (name index, parent span) -> [outermost calls, seconds]
        self.aggregates: dict[tuple[int, int], list] = {}
        self.counts = dict.fromkeys((
            "scalars.op", "scalars.general_den", "laurent.div_ok",
            "demazure.sigma_hit", "demazure.sigma_prefix_letters",
            "demazure.sigma_letters", "demazure.refusal",
            "membership.violation", "serialize.report_bytes"), 0)
        self.patches: list[tuple[object, str, object]] = []
        # shared by every scalar wrapper: inside an outermost scalar call
        self._in_scalar = [False]

    # -- wrappers -------------------------------------------------------

    def _name(self, name: str, group: str) -> int:
        self.names.append(name)
        self.group_of.append(group)
        return len(self.names) - 1

    def _span(self, fn, name: str, group: str, before=None, after=None,
              failed=None):
        idx = self._name(name, group)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _scalar(self, fn, name: str):
        idx = self._name(name, "scalars.op")
        aggregates, stack, counts = self.aggregates, self.stack, self.counts
        nested = self._in_scalar
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            counts["scalars.op"] += 1
            if nested[0]:
                result = fn(*args)
            else:
                nested[0] = True
                t0 = clock()
                try:
                    result = fn(*args)
                finally:
                    dt = clock() - t0
                    nested[0] = False
                    key = (idx, stack[-1])
                    acc = aggregates.get(key)
                    if acc is None:
                        aggregates[key] = [1, dt]
                    else:
                        acc[0] += 1
                        acc[1] += dt
            den = result.den
            if len(den) > 1 and any(den[:-1]):
                counts["scalars.general_den"] += 1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _hooks(self, group: str) -> dict:
        counts = self.counts
        if group == "laurent.div":
            def after(result):
                counts["laurent.div_ok"] += result[1].is_zero()
            return {"after": after}
        if group == "demazure.sigma_word":
            def before(datum, word):
                # whole word cached, and letters served by the longest
                # cached prefix, both before the call
                cache = datum.extra.get("sigma_words", {})
                word = tuple(word)
                k = len(word)
                while k > 0 and word[:k] not in cache:
                    k -= 1
                counts["demazure.sigma_hit"] += word in cache
                counts["demazure.sigma_prefix_letters"] += k
                counts["demazure.sigma_letters"] += len(word)
            return {"before": before}
        if group == "demazure.nf":
            not_in_span = importlib.import_module(
                f"{PACKAGE}.demazure").NotInSpan

            def failed(exc):
                counts["demazure.refusal"] += isinstance(exc, not_in_span)
            return {"failed": failed}
        if group == "membership.check":
            def after(report):
                counts["membership.violation"] += len(report.violations)
            return {"after": after}
        if group == "serialize.dump":
            def after(text):
                counts["serialize.report_bytes"] += len(text.encode())
            return {"after": after}
        return {}

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        scalars = importlib.import_module(f"{PACKAGE}.scalars")
        for op in SCALAR_OPS:
            original = scalars.QScalar.__dict__[op]
            self._patch(scalars.QScalar, op, original,
                        self._scalar(original, f"scalars.QScalar.{op}"))
        modules = package_modules()
        for modname, attr, group in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._span(original, name, group,
                                       **self._hooks(group)))
                continue
            original = getattr(mod, attr)
            wrapper = self._span(original, name, group, **self._hooks(group))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names in the package that still hold a tracing wrapper."""
        out = []
        for m in package_modules():
            for key, value in vars(m).items():
                if getattr(value, MARK, False):
                    out.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for attr, member in vars(value).items():
                        if getattr(member, MARK, False):
                            out.append(f"{m.__name__}.{key}.{attr}")
        return out

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span group: calls and self seconds.

        Scalar calls count nested ones too; their time is the outermost
        calls' time, which is taken out of the enclosing span's self time.
        """
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for (_idx, p), (_calls, secs) in self.aggregates.items():
            if p >= 0:
                child[p] += secs
        out = {g: {"calls": 0, "self_s": 0.0} for g in dict.fromkeys(self.group_of)}
        for i in range(n):
            acc = out[self.group_of[self.span_name[i]]]
            acc["calls"] += 1
            acc["self_s"] += ends[i] - starts[i] - child[i]
        for (idx, _p), (_calls, secs) in self.aggregates.items():
            out[self.group_of[idx]]["self_s"] += secs
        out["scalars.op"]["calls"] = self.counts["scalars.op"]
        return out

    def dump_spans(self, path) -> None:
        """Write every span and aggregate as one JSON document."""
        doc = {
            "names": self.names,
            "groups": self.group_of,
            "spans": {"name": list(self.span_name),
                      "parent": list(self.span_parent),
                      "start": list(self.span_start),
                      "end": list(self.span_end)},
            "aggregates": [[idx, parent, calls, secs] for (idx, parent), (calls, secs)
                           in sorted(self.aggregates.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
