"""Spans and counters around hermlift's public functions, installed from
outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
hermlift module namespace that holds it (so a name bound with
`from .x import f` is covered too) and on the classes whose methods are
traced.  A span records its name, start, end and parent in flat arrays kept
in memory; `save()` writes them out and `metrics()` derives the per-layer
numbers from them.

A call made while a span or counter of the same name is open is part of
that outer call and is not recorded again, so spans of one name never nest
and their durations add up without double counting.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name): timed functions
SPAN_FUNCS = [
    ("charsums", "gauss_sum", "charsums.gauss_sum"),
    ("charsums", "norm_sum", "charsums.norm_sum"),
    ("charsums", "salie_check", "charsums.salie_check"),
    ("thetamat", "theta_matrix", "thetamat.theta_matrix"),
    ("thetamat", "theta_matrix_closed", "thetamat.theta_closed"),
    ("thetamat", "theta_matrix_closed_factored", "thetamat.theta_closed"),
    ("thetamat", "mat_mul", "thetamat.mat_mul"),
    ("thetamat", "matrices_equal", "thetamat.matrices_equal"),
    ("criterion", "inner_sum_direct", "criterion.inner_sum_direct"),
    ("criterion", "inner_sum_closed", "criterion.inner_sum_closed"),
    ("hecke", "coset_reps", "hecke.coset_reps"),
    ("hecke", "verify_reps_distinct", "hecke.verify_reps_distinct"),
    ("hecke", "verify_beta_conditions", "hecke.verify_beta_conditions"),
    ("lift", "special_jacobi_alpha", "lift.special_jacobi_alpha"),
    ("plusform", "eisenstein_star", "plusform.eisenstein_star"),
    ("ikeda", "fstar_coeff", "ikeda.fstar_coeff"),
]
# (module, attribute, counter name): functions whose calls are only counted
COUNT_FUNCS = [
    ("quadfield", "chi_component", "quadfield.chi_component"),
    ("arith", "kronecker", "arith.kronecker"),
    ("arith", "prime_divisors", "arith.prime_divisors"),
    ("lift", "beta_from_alpha", "lift.beta_from_alpha"),
]
# (module, class, methods, span name); the CycloNum dunders get the kernel
# counters on top of the span
SPAN_METHODS = [
    ("quadfield", "Character", ("__call__",), "quadfield.character_eval"),
    ("cyclotomic", "CycloNum", ("is_zero",), "cyclotomic.is_zero"),
]
KERNEL_METHODS = [
    ("CycloNum", ("__mul__", "__rmul__"), "cyclotomic.mul", True),
    ("CycloNum", ("__add__", "__radd__"), "cyclotomic.add", False),
]
COUNT_METHODS = [("hecke", "BetaTable", ("value",), "hecke.beta_value")]

VERIFY = "criterion.verify_criterion"
VERIFY_FLOAT = "criterion.verify_criterion_float"
# verdict assembly is verify_criterion's time outside these spans
NOT_ASSEMBLY = ("criterion.inner_sum_direct", "criterion.inner_sum_closed",
                "thetamat.theta_matrix", "thetamat.theta_closed", "thetamat.mat_mul")
MODULES = ("cyclotomic", "charsums", "quadfield", "thetamat", "criterion", "hecke",
           "lift", "plusform", "ikeda")


class Tracer:
    """Span and counter store for one process; install once, before the
    timed phase."""

    def __init__(self):
        self.span_names: list[str] = []
        self.counter_names: list[str] = []
        self.counts: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.term_products = 0
        self.max_order = 0
        self._open: list[int] = []   # per span name: open spans (0 or 1)
        self._stack = [-1]           # indices of the open spans, innermost last

    # -- wrappers ---------------------------------------------------------

    def _span_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
            self._open.append(0)
        return self.span_names.index(name)

    def span(self, fn, name: str):
        nid = self._span_id(name)
        opened, stack = self._open, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if opened[nid]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            opened[nid] = 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t
                stack.pop()
                opened[nid] = 0

        return wrapped

    def kernel(self, fn, name: str, products: bool):
        """A CycloNum operation: a span, the largest cyclotomic order it
        produced and, for products, the term-product count (nonzero terms x
        nonzero terms; a rational operand is one term)."""
        inner = self.span(fn, name)
        tracer = self

        def wrapped(a, b):
            if products:
                nb = len(b.coeffs) if hasattr(b, "coeffs") else (1 if b else 0)
                tracer.term_products += len(a.coeffs) * nb
            out = inner(a, b)
            order = getattr(out, "order", 0)
            if order > tracer.max_order:
                tracer.max_order = order
            return out

        return wrapped

    def counter(self, fn, name: str):
        cid = len(self.counter_names)
        self.counter_names.append(name)
        self.counts.append(0)
        counts, busy = self.counts, [0]

        def wrapped(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            counts[cid] += 1
            busy[0] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                busy[0] = 0

        return wrapped

    def verify_criterion(self, fn):
        exact = self.span(fn, VERIFY)
        floating = self.span(fn, VERIFY_FLOAT)

        def wrapped(*args, **kwargs):
            route = floating if kwargs.get("arithmetic") == "float" else exact
            return route(*args, **kwargs)

        return wrapped

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import hermlift

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hermlift" or n.startswith("hermlift."))]

        def rebind(module: str, attr: str, wrapper) -> None:
            orig = getattr(getattr(hermlift, module), attr)
            w = wrapper(orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, w)

        for module, attr, name in SPAN_FUNCS:
            rebind(module, attr, lambda f, name=name: self.span(f, name))
        for module, attr, name in COUNT_FUNCS:
            rebind(module, attr, lambda f, name=name: self.counter(f, name))
        rebind("criterion", "verify_criterion", self.verify_criterion)

        def rebind_methods(module, cls_name, methods, wrapper):
            cls = getattr(getattr(hermlift, module), cls_name)
            # one wrapper per distinct function: __rmul__ is __mul__
            done = {}
            for meth in methods:
                orig = cls.__dict__[meth]
                if id(orig) not in done:
                    done[id(orig)] = wrapper(orig)
                setattr(cls, meth, done[id(orig)])

        for module, cls_name, methods, name in SPAN_METHODS:
            rebind_methods(module, cls_name, methods, lambda f, name=name: self.span(f, name))
        for cls_name, methods, name, products in KERNEL_METHODS:
            rebind_methods("cyclotomic", cls_name, methods,
                           lambda f, name=name, products=products: self.kernel(f, name, products))
        for module, cls_name, methods, name in COUNT_METHODS:
            rebind_methods(module, cls_name, methods, lambda f, name=name: self.counter(f, name))

    # -- output -----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans (name, parent, start, end) and counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 span_names=np.array(json.dumps(self.span_names)),
                 counters=np.array(json.dumps(dict(zip(self.counter_names, self.counts)))))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers from the recorded spans (calls, inclusive and
        self seconds of every span name, per-module self seconds) and the
        counters; `wall_s` is the traced run's time to verdict."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n_names = len(self.span_names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(name, weights=dur - child, minlength=n_names)
        sid = {n: i for i, n in enumerate(self.span_names)}

        out: dict[str, float] = {}
        for n, i in sid.items():
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.s"] = float(incl[i])
            out[f"{n}.self_s"] = float(self_time[i])
        for n, c in zip(self.counter_names, self.counts):
            out[f"{n}.calls"] = c
        out["cyclotomic.mul.term_products"] = self.term_products
        out["cyclotomic.max_order"] = self.max_order
        out["criterion.verdict_assembly_s"] = out[f"{VERIFY}.s"] - self._excluded_under(
            name, parent, dur, sid[VERIFY], [sid[n] for n in NOT_ASSEMBLY])
        for m in MODULES:
            ids = [i for n, i in sid.items() if n.split(".")[0] == m]
            out[f"{m}.self_s"] = float(sum(self_time[i] for i in ids))
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - float(dur[~has_parent].sum())
        return out

    @staticmethod
    def _excluded_under(name, parent, dur, root: int, excluded: list[int]) -> float:
        """Total duration of the outermost `excluded` spans that run inside a
        `root` span."""
        marks = set(excluded) | {root}
        total = 0.0
        for idx in np.flatnonzero(np.isin(name, excluded)):
            p = parent[idx]
            while p >= 0 and name[p] not in marks:
                p = parent[p]
            if p >= 0 and name[p] == root:
                total += dur[idx]
        return total
