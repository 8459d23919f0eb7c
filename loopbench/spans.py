"""Span and count wrappers around loopalg's public functions and methods.

Installed from outside the package: each wrapped callable opens a span
(name, start, end, parent) on a stack.  Spans are rolled up as they close:
a span's self time is its duration minus the time its child spans cover,
and is added to its name's total, so memory stays flat however many spans
a pass opens.  Counters (matrix cells, nonzeros, cache reuse, bit growth)
are taken after a span closes, and the time they take is charged to no
span.  Per-name self times therefore add up to at most the traced wall
time of the jobs.
"""

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _cells(mat):
    return len(mat) * (len(mat[0]) if mat else 0)


def _max_bits(*mats):
    best = 0
    for mat in mats:
        for row in mat:
            for x in row:
                b = int(x).bit_length()
                if b > best:
                    best = b
    return best


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.wall_s = 0.0

    # -- spans -----------------------------------------------------------
    def wrap(self, name, fn, pre=None, post=None):
        """pre(args) -> token runs before the call; post(args, result,
        token) after the span has closed, off every span's clock."""
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            token = pre(args) if pre else None
            child = [0.0]
            stack.append(child)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            if post:
                post(args, result, token)
                if stack:
                    stack[-1][0] += _clock() - t1
            return result
        return wrapper

    def root(self, name, fn, *args):
        """Run one job as a root span; its own self time is what no
        wrapped layer covers."""
        t0 = _clock()
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.wall_s += _clock() - t0

    # -- installation ----------------------------------------------------
    def install(self):
        from loopalg import (linalg, chain, pathloop, shfamily, tensoralg,
                             vectors, cobar, formal, documents)
        count, maxima = self.counts, self.maxima

        def cells_of(key):
            def post(args, result, token):
                count[key] += _cells(args[0])
            return post

        def snf_post(args, result, token):
            count["linalg.smith_normal_form.cells"] += _cells(args[0])
            bits = _max_bits(result[1], result[2])
            if bits > maxima["linalg.smith_normal_form.max_bits"]:
                maxima["linalg.smith_normal_form.max_bits"] = bits

        def matrix_pre(args):
            cx, n = args
            return n in cx._matrices

        def matrix_post(args, result, cached):
            if cached:
                return
            count["chain.matrix.cells"] += _cells(result)
            count["chain.matrix.nnz"] += sum(1 for row in result for x in row if x)

        def psi_pre(args):
            hopf, word = args
            return word in hopf._psi_cache

        def psi_post(args, result, cached):
            if not cached:
                count["_psi.distinct"] += 1

        def basis_pre(args):
            sub, n = args
            return n in sub._bases

        def basis_post(args, result, cached):
            sub, n = args
            if not cached:
                for w in sub.blocks(n):
                    words, vecs = sub._kernels[(n, w)]
                    count["_kernel.words"] += len(words)
                    count["_kernel.rank"] += len(vecs)

        functions = [
            (linalg, "smith_normal_form", snf_post),
            (linalg, "kernel_saturated", cells_of("linalg.kernel_saturated.cells")),
            (linalg, "solve_integer", None),
            (linalg, "integer_inverse", None),
            (linalg, "rref", cells_of("linalg.rref.cells")),
            (linalg, "kernel_field", None),
            (linalg, "solve_field", None),
            (vectors, "bilinear", None),
            (documents, "coalgebra_from_document", None),
            (documents, "render_report", None),
        ]
        for mod, attr, post in functions:
            name = "%s.%s" % (mod.__name__.split(".")[-1], attr)
            self._replace(getattr(mod, attr), self.wrap(name, getattr(mod, attr),
                                                        post=post))
        methods = [
            (chain.ChainComplex, "matrix", matrix_pre, matrix_post, "chain.matrix"),
            (chain.ChainComplex, "homology", None, None, "chain.homology"),
            (chain.ChainComplex, "verify_differential", None, None,
             "chain.verify_differential"),
            (pathloop.CofixedSubalgebra, "basis", basis_pre, basis_post, None),
            (pathloop.CofixedSubalgebra, "coordinates", None, None, None),
            (pathloop.PathLoop, "nu", None, None, None),
            (shfamily.InducedHopf, "psi", psi_pre, psi_post, None),
            (shfamily.InducedHopf, "coassociativity_defects", None, None, None),
            (shfamily.AWCoalgebra, "verify", None, None, None),
            (tensoralg.FreeAlgebra, "words", None, None, None),
            (cobar.TwistedHopfTensor, "mul", None, None, None),
            (cobar.AlgebraOnHomology, "structure_constants", None, None, None),
            (formal.FormalDoubleLoop, "expand", None, None, None),
        ]
        for cls, attr, pre, post, name in methods:
            if name is None:
                name = "%s.%s.%s" % (cls.__module__.split(".")[-1],
                                     cls.__name__, attr)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), pre, post))

    @staticmethod
    def _replace(original, wrapper):
        """Rebind a function in every loopalg module that imported it by
        name, so that callers holding the name see the wrapper too."""
        for modname, mod in list(sys.modules.items()):
            if modname == "loopalg" or modname.startswith("loopalg."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- roll-up ---------------------------------------------------------
    def metrics(self):
        """Per-layer metrics: calls and self seconds per span name, the
        counters, and the derived ratios."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update((k, v) for k, v in self.counts.items() if not k.startswith("_"))
        out.update(self.maxima)
        cells = self.counts.get("chain.matrix.cells", 0)
        out["chain.matrix.density"] = (self.counts.get("chain.matrix.nnz", 0)
                                       / cells if cells else 0.0)
        psi_calls = self.calls.get("shfamily.InducedHopf.psi", 0)
        out["shfamily.InducedHopf.psi.reuse"] = (
            1.0 - self.counts.get("_psi.distinct", 0)
            / psi_calls if psi_calls else 0.0)
        words = self.counts.get("_kernel.words", 0)
        out["pathloop.kernel_yield"] = (self.counts.get("_kernel.rank", 0)
                                        / words if words else 0.0)
        out["trace.wall_s"] = self.wall_s
        out["trace.self_s_sum"] = sum(self.self_s.values())
        return out
