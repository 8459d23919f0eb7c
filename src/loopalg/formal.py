"""Bracket presentation of the double-loop model.

For a primitively generated input (reduced comultiplication zero) over a
field in which 2 is invertible, or of characteristic 2, the double-loop
model is the free algebra on iterated commutators
    [s x_1, [s x_2, ... [s x_m, s ybar] ... ]]
with inputs drawn from the desuspended generators and tails from the
desuspended acyclicity partners.  The differential is transported from
the path-loop cobar algebra through the commutator expansion: images of
generators are solved for as combinations of expanded bracket monomials,
by a linalg.Solver on the expansions.
"""

from .vectors import Vect, label_key, label_str
from .tensoralg import FreeAlgebra
from .cobar import CobarAlgebra, s_letter
from .pathloop import bar, path_object
from . import linalg


def bracket_generators(C, cutoff):
    """All labels ('br', (v_1, ..., v_m), w) with v_i desuspended
    generators and w a desuspended partner, of degree <= cutoff.  Returns
    dicts label -> degree and label -> weight."""
    vs = [(s_letter(g), C.degree(g) - 1, C.weights.get(g, 1))
          for g in sorted(C.gens, key=label_key)]
    ws = [(s_letter(bar(g)), C.degree(g) - 2, C.weights.get(g, 1))
          for g in sorted(C.gens, key=label_key)]
    degs = {}
    weights = {}

    def rec(prefix, deg, wt):
        for wl, wd, ww in ws:
            if deg + wd <= cutoff:
                label = ("br", tuple(prefix), wl)
                degs[label] = deg + wd
                weights[label] = wt + ww
        for vl, vd, vw in vs:
            if deg + vd <= cutoff:
                prefix.append(vl)
                rec(prefix, deg + vd, wt + vw)
                prefix.pop()

    rec([], 0, 0)
    return degs, weights


class FormalDoubleLoop(FreeAlgebra):
    """Free algebra on iterated brackets with the transported
    differential."""

    def __init__(self, C, name=""):
        if C.ring.kind == "Z":
            raise ValueError("the bracket model needs a field (2 invertible "
                             "or characteristic 2)")
        for g in C.gens:
            if not C.delta_red(g).is_zero():
                raise ValueError("the bracket model requires a primitively "
                                 "generated input; %s has nonzero reduced "
                                 "comultiplication" % label_str(g))
        self.C = C
        self.pc = path_object(C)
        self.omega = CobarAlgebra(self.pc)
        degs, weights = bracket_generators(C, C.cutoff)
        super().__init__(C.ring, C.cutoff, degs, weights,
                         name=name or ("FDL(%s)" % C.name))
        self._expansion_cache = {}
        self.set_differential(self._d_gen)

    # -- commutator expansion -------------------------------------------
    def expand_generator(self, label):
        """The bracket as a Vect of path-loop cobar words."""
        if label in self._expansion_cache:
            return self._expansion_cache[label]
        (_, vs, w) = label
        out = Vect.basis(self.ring, ("w", w))
        deg = self.omega.letters[w]
        for v in reversed(vs):
            vdeg = self.omega.letters[v]
            vv = Vect.basis(self.ring, ("w", v))
            left = self.omega.mul(vv, out)
            right = self.omega.mul(out, vv)
            sign = -1 if (vdeg * deg) % 2 else 1
            out = left - right.scale(sign)
            deg += vdeg
        self._expansion_cache[label] = out
        return out

    def expand(self, vect):
        """Multiplicative expansion of a Vect of bracket words."""
        fn = self.algebra_map(self.expand_generator, self.omega.mul,
                              self.omega.unit)
        return vect.map_terms(fn)

    # -- transported differential ---------------------------------------
    def _d_gen(self, label):
        """Solved once per generator; the derivation caches letter values."""
        n = self.letters[label]
        wt = self.weights[label]
        target = self.expand_generator(label).map_terms(self.omega.d_word)
        words = [u for u in self.words(n - 1, wt)
                 if self.weight(u) == wt] if n >= 1 else []
        expansions = [self.expand(Vect.basis(self.ring, u)).terms
                      for u in words]
        amb = sorted(set(target.terms).union(*expansions), key=label_key)
        try:
            sol = linalg.Solver(expansions, amb, self.ring).coordinates(
                target.terms)
        except ValueError:
            raise ValueError(
                "transported differential of %s does not lie in the "
                "bracket subalgebra" % label_str(label))
        return Vect(self.ring, list(zip(words, sol)))
