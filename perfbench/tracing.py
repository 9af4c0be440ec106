"""Timing wrappers put around nodepoly's public functions from outside.

`Tracer.install` replaces module functions and class methods with wrappers
and `uninstall` puts the originals back; nodepoly itself is not changed.
A module function is replaced under every name it is bound to in a loaded
nodepoly module (nodal imports partition_power_series from modular, the
package re-exports most names), so calls through any of them are seen.

Calls into cli, nodal, modular, inclexcl, chern and the PSeries kernels
become spans (name, parent, op, start, end) kept in memory.  ChernPoly
arithmetic is only counted: it runs tens of thousands of times per op.
`__radd__` and `__rmul__` are wrapped as well as `__add__` and `__mul__`:
they are aliases bound when the class is created, and `Fraction(0) + poly`
inside the series kernels reaches ChernPoly only through `__radd__`.
"""

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

SPANNED = {
    "cli": ("run",),
    "nodal": ("node_polynomials", "closed_form_symbolic", "factorize_generating_function"),
    "modular": ("euler_product", "delta_series", "partition_power_series",
                "dg2_series", "d2g2_series"),
    "inclexcl": ("modified_cardinalities", "intersection_table"),
    "chern": ("parse_surface",),
}
SERIES_OPS = {"__mul__": "mul", "__rmul__": "mul", "inverse": "inverse", "log": "log",
              "exp": "exp", "__pow__": "pow", "compose": "compose",
              "reversion": "reversion"}
CHERNPOLY_OPS = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul"}

NAME, PARENT, OP, START, END, BOOKKEEPING = range(6)


def _bits(c, poly_cls):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, poly_cls):
        return max((_bits(v, poly_cls) for v in c.terms.values()), default=0)
    return 0


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, op, start, end, bookkeeping_s]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.op = 0
        self._stack = []
        self._saved = []

    # -- installing ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nodepoly" or name.startswith("nodepoly."))]
        for modname, fnames in SPANNED.items():
            home = sys.modules[f"nodepoly.{modname}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._span(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        pseries = sys.modules["nodepoly.series"].PSeries
        chernpoly = sys.modules["nodepoly.chernpoly"].ChernPoly
        for meth, op in SERIES_OPS.items():
            self._patch(pseries, meth, self._series(op, vars(pseries)[meth], pseries, chernpoly))
        for meth, op in CHERNPOLY_OPS.items():
            self._patch(chernpoly, meth, self._counted(op, vars(chernpoly)[meth]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
        return wrapper

    def _series(self, op, fn, pseries, chernpoly):
        spans, stack, maxima = self.spans, self._stack, self.maxima

        def symbolic(x):
            if isinstance(x, pseries):
                return any(isinstance(c, chernpoly) for c in x.coeffs)
            return isinstance(x, chernpoly)

        def wrapper(*args):
            t_in = perf_counter()
            ring = "chernpoly" if any(symbolic(a) for a in args) else "fraction"
            rec = [f"series.{op}.{ring}", stack[-1] if stack else -1, self.op, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if isinstance(result, pseries):
                bits = max(_bits(c, chernpoly) for c in result.coeffs)
                if bits > maxima["series.max_coeff_bits"]:
                    maxima["series.max_coeff_bits"] = bits
            # time spent here outside [START, END] is charged to no span
            rec[BOOKKEEPING] = (rec[START] - t_in) + (perf_counter() - rec[END])
            return result
        return wrapper

    def _counted(self, op, fn):
        counts, maxima = self.counts, self.maxima
        key = f"chernpoly.{op}.calls"

        def wrapper(a, b):
            result = fn(a, b)
            if result is not NotImplemented:
                counts[key] += 1
                if len(result.terms) > maxima["chernpoly.max_terms"]:
                    maxima["chernpoly.max_terms"] = len(result.terms)
            return result
        return wrapper

    # -- export ----------------------------------------------------------------

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def absorb(self, doc, op):
        """Add a trace exported by a child process, as op number `op`."""
        base = len(self.spans)
        for name, parent, _, start, end, bookkeeping in doc["spans"]:
            self.spans.append([name, parent + base if parent >= 0 else -1, op,
                               start, end, bookkeeping])
        for key, value in doc["counts"].items():
            self.counts[key] += value
        for key, value in doc["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    def summary(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START] + rec[BOOKKEEPING]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, inner in zip(self.spans, covered):
            entry = out[rec[NAME]]
            entry[0] += 1
            entry[1] += rec[END] - rec[START]
            entry[2] += rec[END] - rec[START] - inner
        return out
