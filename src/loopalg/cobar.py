"""Cobar constructions and one-sided twisted tensor products.

The cobar algebra of a connected coalgebra is the free algebra on
desuspended generators with the differential
    d(s[c]) = -s[dc] + sum (-1)^{|c_i|} s[c_i] | s[c^i]
over the reduced comultiplication.  A one-sided twisted tensor product
M (x) Omega C or Omega C (x) N on a comodule carries the twisted
differential whose twisting cochain is the desuspension (with s[1] = 0).
TwistedHopfTensor is the left one, Omega H (x) H, on a Hopf algebra H as
a comodule over itself; it is a chain algebra, whose product is
determined by a three-term rule against single letters.
"""

from .vectors import Vect, label_key, bilinear
from .coalg import UNIT, DGCoalgebra
from .tensoralg import FreeAlgebra, UNIT_WORD, concat


def s_letter(label):
    return ("s", label)


# Sign of the twisting term in the one-sided differentials, as exponent
# coefficients (da, db, da*db, 1) in the degrees of the two coaction
# components.  These are pinned down by requiring d^2 = 0 and acyclicity
# on coalgebras with odd-degree elements and deep coassociativity; see the
# tests.
TWIST_LEFT = (0, 0, 0, 0)
TWIST_RIGHT = (1, 0, 0, 1)

# Signs in the letter commutation rule of the twisted product on
# Omega H (x) B: PROD_STRAIGHT is the exponent of the s[a] (x) b term in
# (|a|, |b|, |a||b|, 1); PROD_TWIST the exponent of the s[h.a] (x) b'
# terms in (|a|, |b|, |b'|, |a||b|, |a||b'|, |b||b'|, 1).
PROD_STRAIGHT = (0, 1, 1, 0)
PROD_TWIST = (0, 1, 0, 0, 1, 0, 0)


def _twist_sign(coeffs, da, db):
    a, b, ab, const = coeffs
    return -1 if (a * da + b * db + ab * da * db + const) % 2 else 1


def _prod_sign3(coeffs, da, db, dbp):
    a, b, bp, ab, abp, bbp, const = coeffs
    exp = (a * da + b * db + bp * dbp + ab * da * db + abp * da * dbp
           + bbp * db * dbp + const)
    return -1 if exp % 2 else 1


class CobarAlgebra(FreeAlgebra):
    """Free algebra on letters s[g], g a generator of a connected
    coalgebra, with the cobar differential."""

    def __init__(self, C, name=""):
        self.C = C
        letters = {s_letter(g): deg - 1 for g, deg in C.gens.items()}
        weights = {s_letter(g): C.weights.get(g, 1) for g in C.gens}
        super().__init__(C.ring, C.cutoff, letters, weights,
                         name=name or ("Omega(%s)" % C.name))
        self.set_differential(self._d_letter)

    def _d_letter(self, letter):
        g = letter[1]
        out = Vect(self.ring)
        for o, c in self.C.d_of(g).items():
            out.iadd_term(-c, ("w", s_letter(o)))
        for (_, a, b), c in self.C.delta_red(g).items():
            sign = -1 if self.C.degree(a) % 2 else 1
            out.iadd_term(sign * c, ("w", s_letter(a), s_letter(b)))
        return out


class Comodule:
    """A differential comodule over a coalgebra: a graded basis with a
    unit label in degree 0, a differential, and the coaction terms whose
    coalgebra slot is positive, over ('t', c, m) for a left comodule and
    ('t', m, c) for a right one."""

    def __init__(self, ring, side, basis, d, coaction, name="", weights=None,
                 unit_label=UNIT):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.ring = ring
        self.side = side
        self.name = name
        self.gens = dict(basis)
        self.d_map = dict(d)
        self.coaction_map = dict(coaction)
        self.weights = dict(weights or {})
        self.unit_label = unit_label
        self._basis = {}
        for label, deg in self.gens.items():
            self._basis.setdefault(deg, []).append(label)
        for deg in self._basis:
            self._basis[deg].sort(key=label_key)

    @classmethod
    def regular(cls, C, side, unit_label=UNIT):
        """The coalgebra as a comodule over itself via its own
        comultiplication, with unit_label standing for the unit."""
        coaction = {}
        for g in C.gens:
            pair = (g, unit_label) if side == "left" else (unit_label, g)
            coaction[g] = Vect.basis(C.ring, ("t",) + pair) + C.delta_red(g)
        return cls(C.ring, side, C.gens, C.d_map, coaction,
                   name="%s as %s comodule" % (C.name, side),
                   weights=C.weights, unit_label=unit_label)

    def degree(self, label):
        if label == self.unit_label:
            return 0
        return self.gens[label]

    def weight(self, label):
        if label == self.unit_label:
            return 0
        return self.weights.get(label, 0)

    def basis(self, n):
        if n == 0:
            return [self.unit_label] + self._basis.get(0, [])
        return self._basis.get(n, [])

    def d_of(self, label):
        return self.d_map.get(label, Vect.zero(self.ring))

    def coaction(self, label):
        return self.coaction_map.get(label, Vect.zero(self.ring))


class OneSidedCobar:
    """M (x) Omega C (side 'right') or Omega C (x) N (side 'left') with the
    twisted differential.  Labels are ('t', m, word) resp. ('t', word, m)."""

    def __init__(self, omega, M=None, side="right", name=""):
        self.omega = omega
        self.C = omega.C
        self.ring = omega.ring
        self.cutoff = omega.cutoff
        self.side = side
        if M is None:
            M = Comodule.regular(self.C, side)
        if M.side != side:
            raise ValueError("comodule side %r does not match %r" % (M.side, side))
        self.M = M
        self.name = name or (
            "%s(x)Omega" % M.name if side == "right" else "Omega(x)%s" % M.name)

    def label(self, m, word):
        if self.side == "right":
            return ("t", m, word)
        return ("t", word, m)

    def split(self, label):
        """Return (m, word) regardless of side."""
        if self.side == "right":
            return label[1], label[2]
        return label[2], label[1]

    def degree(self, label):
        m, word = self.split(label)
        return self.M.degree(m) + self.omega.degree(word)

    def basis(self, n, max_weight=None):
        """max_weight bounds the total weight across both tensor slots (the
        weight grading is preserved by the twisted differential, so capped
        blocks are honest subcomplexes)."""
        out = []
        for p in range(n + 1):
            for m in self.M.basis(p):
                room = None if max_weight is None \
                    else max_weight - self.M.weight(m)
                if room is not None and room < 0:
                    continue
                for w in self.omega.words(n - p, room):
                    out.append(self.label(m, w))
        out.sort(key=label_key)
        return out

    def diff(self, label):
        m, word = self.split(label)
        ring = self.ring
        out = Vect(ring)
        wdeg = self.omega.degree(word)
        mdeg = self.M.degree(m)
        if self.side == "right":
            # d(x (x) w) = dx (x) w + (-1)^{|x|} x (x) dw
            #              + (-1)^{|x_i|} x_i (x) s[c^i] | w
            for o, c in self.M.d_of(m).items():
                out.iadd_term(c, self.label(o, word))
            sign = -1 if mdeg % 2 else 1
            for w2, c in self.omega.d_word(word).items():
                out.iadd_term(sign * c, self.label(m, w2))
            for (_, mi, ci), c in self.M.coaction(m).items():
                s = _twist_sign(TWIST_RIGHT, self.M.degree(mi),
                                self.C.degree(ci))
                out.iadd_term(s * c,
                              self.label(mi, ("w", s_letter(ci)) + word[1:]))
        else:
            # d(w (x) x) = dw (x) x + (-1)^{|w|} w (x) dx
            #              - (-1)^{|w|} (w | s[x_i]) (x) x^i
            for w2, c in self.omega.d_word(word).items():
                out.iadd_term(c, self.label(m, w2))
            sign = -1 if wdeg % 2 else 1
            for o, c in self.M.d_of(m).items():
                out.iadd_term(sign * c, self.label(o, word))
            for (_, ci, mi), c in self.M.coaction(m).items():
                s = _twist_sign(TWIST_LEFT, self.C.degree(ci),
                                self.M.degree(mi))
                out.iadd_term(sign * s * c,
                              self.label(mi, word + (s_letter(ci),)))
        return out

    def to_chain_complex(self, max_weight=None, top=None, name=""):
        from .chain import ChainComplex
        top = self.cutoff if top is None else top
        bases = {n: self.basis(n, max_weight) for n in range(top + 1)}
        return ChainComplex.from_labels(self.ring, bases, self.diff,
                                        self.cutoff, name=name or self.name)


def coalgebra_of_hopf(H, cutoff):
    """Present the underlying coalgebra of a Hopf algebra on its graded
    basis, through the given degree, so that its cobar algebra can be
    formed.  H must provide ring, basis(n), degree, d_of, delta_red,
    and optionally weight."""
    gens, weights, d, delta = {}, {}, {}, {}
    for n in range(1, cutoff + 1):
        for h in H.basis(n):
            gens[h] = n
            if hasattr(H, "weight"):
                weights[h] = H.weight(h)
            dv = H.d_of(h)
            if not dv.is_zero():
                d[h] = dv
            dl = H.delta_red(h)
            if not dl.is_zero():
                delta[h] = dl
    return DGCoalgebra(H.ring, cutoff, gens, d, delta,
                       name=getattr(H, "name", "H"), weights=weights)


class TwistedHopfTensor(OneSidedCobar):
    """Omega H (x) H: the left one-sided cobar construction on a Hopf
    algebra H as a comodule over itself (the model of its based-path
    fibration), with its chain algebra structure.

    H must provide: ring, name, basis(n), degree(h), d_of(h),
    delta_red(h), mul(h1, h2) -> Vect (the unit included), unit_label,
    and optionally weight(h).  Labels here are ('t', word, h) with word a
    word in letters s[h]."""

    def __init__(self, H, cutoff, name=""):
        self.H = H
        M = Comodule.regular(coalgebra_of_hopf(H, cutoff), "left",
                             unit_label=H.unit_label)
        # letters of Omega H reach degree cutoff, i.e. H elements of
        # degree cutoff + 1
        omega = CobarAlgebra(coalgebra_of_hopf(H, cutoff + 1))
        super().__init__(omega, M, side="left",
                         name=name or "Omega(%s)(x)(%s)" % (H.name, H.name))
        self.cutoff = cutoff  # omega's cutoff is one higher

    def _one_letter_rule(self, b, a):
        """(1 (x) b)(s[a] (x) 1) for b a positive H element, a an H basis
        element:
          (-1)^{(|a|+1)|b|} s[a] (x) b
        + (-1)^{|b| + |a||b'|} s[h . a] (x) b'
        over the components h (x) b' of the coaction of b other than
        1 (x) b."""
        ring = self.ring
        db = self.M.degree(b)
        da = self.H.degree(a)
        out = Vect(ring)
        s = _twist_sign(PROD_STRAIGHT, da, db)
        out.iadd_term(s, ("t", ("w", s_letter(a)), b))
        for (_, h, bp), coef in self.M.coaction(b).items():
            s2 = _prod_sign3(PROD_TWIST, da, db, self.M.degree(bp))
            for y, coef2 in self.H.mul(h, a).items():
                out.iadd_term(s2 * coef * coef2,
                              ("t", ("w", s_letter(y)), bp))
        return out

    def _unit_times(self, b, word, x):
        """(1 (x) b)(word (x) x) by peeling the first letter of word."""
        ring = self.ring
        if b == self.M.unit_label:
            return Vect.basis(ring, ("t", word, x))
        if word == UNIT_WORD:
            out = Vect(ring)
            for y, coef in self.H.mul(b, x).items():
                out.iadd_term(coef, ("t", UNIT_WORD, y))
            return out
        a = word[1][1]
        rest = ("w",) + word[2:]
        out = Vect(ring)
        for (_, w1, e), coef in self._one_letter_rule(b, a).items():
            for (_, w2, y), coef2 in self._unit_times(e, rest, x).items():
                out.iadd_term(coef * coef2, ("t", concat(w1, w2), y))
        return out

    def mul_labels(self, l1, l2):
        """(v (x) c)(v' (x) x) = (v (x) 1) . [(1 (x) c)(v' (x) x)]."""
        (_, v, c) = l1
        (_, vp, x) = l2
        if self.degree(l1) + self.degree(l2) > self.cutoff:
            raise ValueError("product in degree %d exceeds cutoff %d"
                             % (self.degree(l1) + self.degree(l2), self.cutoff))
        return Vect(self.ring, [
            (("t", concat(v, w), y), coef)
            for (_, w, y), coef in self._unit_times(c, vp, x).items()])

    def mul(self, u, v):
        return bilinear(self.ring, u, v, self.mul_labels)

    def section(self, bvect):
        """The degree-0 splitting b -> 1 (x) b of the projection to H."""
        return Vect(self.ring, [(("t", UNIT_WORD, b), c)
                                for b, c in bvect.items()])

    def section_defect(self, bvect):
        """d(1 (x) b) - 1 (x) db; a chain homotopy datum.  On a basis
        element b of positive degree it is s[b] (x) 1 plus c s[h] (x) b'
        for each term c h (x) b' of the reduced comultiplication of b."""
        return (self.section(bvect).map_terms(self.diff)
                - self.section(bvect.map_terms(self.M.d_of)))

    def projection(self, vect):
        """The projection w (x) h -> counit(w) h onto H."""
        return Vect(self.ring, [(h, c) for (_, word, h), c in vect.items()
                                if word == UNIT_WORD])


class AlgebraOnHomology:
    """Homology of a chain complex together with the induced product on
    classes, reported as structure constants in the representative basis."""

    def __init__(self, complex_, mul_vect, top=None):
        self.complex = complex_
        self.ring = complex_.ring
        self.mul_vect = mul_vect
        self.top = complex_.cutoff - 1 if top is None else top
        self._h = {}

    def homology(self, n):
        if n not in self._h:
            self._h[n] = self.complex.homology(n)
        return self._h[n]

    def product_class(self, n1, i1, n2, i2):
        """Coordinates of [rep_{i1} in H_{n1}] . [rep_{i2} in H_{n2}] in
        the representative basis of H_{n1+n2}."""
        if n1 + n2 > self.top:
            raise ValueError("product degree exceeds the reliable range")
        r1 = self.homology(n1).representatives[i1]
        r2 = self.homology(n2).representatives[i2]
        return self.homology(n1 + n2).class_of(self.mul_vect(r1, r2))

    def structure_constants(self, hi=None):
        """All pairwise products of representatives with total degree in
        range, as a deterministic nested dict."""
        hi = self.top if hi is None else hi
        out = {}
        for n1 in range(hi + 1):
            for n2 in range(hi + 1 - n1):
                h1, h2 = self.homology(n1), self.homology(n2)
                for i1 in range(len(h1.representatives)):
                    for i2 in range(len(h2.representatives)):
                        out[(n1, i1, n2, i2)] = self.product_class(n1, i1, n2, i2)
        return out

