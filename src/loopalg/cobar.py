"""Cobar constructions and one-sided twisted tensor products.

The cobar algebra of a connected coalgebra is the free algebra on
desuspended generators with the differential
    d(s[c]) = -s[dc] + sum (-1)^{|c_i|} s[c_i] | s[c^i]
over the reduced comultiplication.  The one-sided twisted tensor products
C (x) Omega C and Omega C (x) C take the coalgebra C as a comodule over
itself, the regular coefficients, and carry the twisted differential
whose twisting cochain is the desuspension (with s[1] = 0); both are
acyclic.  TwistedHopfTensor is the left one, Omega H (x) H, on the
coalgebra of an induced Hopf algebra H, with the product of its
homology classes: its homology is R in degree 0, so it multiplies only
by left factors with the unit coefficient.
"""

from .vectors import Vect, label_key, label_str, bilinear
from .coalg import UNIT, DGCoalgebra
from .tensoralg import FreeAlgebra


def s_letter(label):
    return ("s", label)


class CobarAlgebra(FreeAlgebra):
    """Free algebra on letters s[g], g a generator of a connected
    coalgebra, with the cobar differential."""

    def __init__(self, C):
        self.C = C
        letters = {s_letter(g): deg - 1 for g, deg in C.gens.items()}
        weights = {s_letter(g): C.weights.get(g, 1) for g in C.gens}
        super().__init__(C.ring, C.cutoff, letters, weights)
        self.set_differential(self._d_letter)

    def _d_letter(self, l):
        g, code = self._ordered[l][1], self.code
        out = Vect(self.ring)
        for o, c in self.C.d_of(g).items():
            out.iadd_term(-c, (code[s_letter(o)],))
        for (_, a, b), c in self.C.delta_red(g).items():
            sign = -1 if self.C.degree(a) % 2 else 1
            out.iadd_term(sign * c, (code[s_letter(a)], code[s_letter(b)]))
        return out


class OneSidedCobar:
    """C (x) Omega C (side 'right') or Omega C (x) C (side 'left'), with
    C = omega.C a comodule over itself by its own comultiplication, and
    the twisted differential.  Labels are ('t', m, word) resp. ('t', word,
    m), with m a generator of C or unit (the unit of C, in degree 0 and
    weight 0) and word a word of omega, which readable() reads as letters.
    Its cap bounds the total weight across both slots: none if omega is
    of finite type, else the cutoff."""

    def __init__(self, omega, side, unit=UNIT):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.omega = omega
        self.C = omega.C
        self.ring = omega.ring
        self.cutoff = omega.cutoff
        self.side = side
        self.unit = unit
        self._coeffs = {0: [unit]}
        for g, deg in self.C.gens.items():
            self._coeffs.setdefault(deg, []).append(g)

    def label(self, m, word):
        if self.side == "right":
            return ("t", m, word)
        return ("t", word, m)

    def split(self, label):
        """Return (m, word) regardless of side."""
        if self.side == "right":
            return label[1], label[2]
        return label[2], label[1]

    def readable(self, label):
        m, word = self.split(label)
        return self.label(m, self.omega.label(word))

    def coeff_degree(self, m):
        return self.C.gens.get(m, 0)

    def coaction(self, m):
        """The coaction terms of m whose coalgebra slot is positive, over
        ('t', c, m') for side 'left' and ('t', m', c) for 'right': the
        unit term, then the reduced comultiplication of C."""
        if m == self.unit:
            return []
        pair = (m, self.unit) if self.side == "left" else (self.unit, m)
        return [(("t",) + pair, 1)] + list(self.C.delta_red(m).items())

    def degree(self, label):
        m, word = self.split(label)
        return self.coeff_degree(m) + self.omega.degree(word)

    @property
    def cap(self):
        return None if self.omega.finite_type else self.cutoff

    def basis(self, n):
        """The labels of degree n under the cap.  The twisted differential
        keeps the total weight only where d and the reduced
        comultiplication of C preserve the weights, which DGCoalgebra does
        not check; elsewhere the capped block is no subcomplex, and
        from_labels refuses the term that leaves it."""
        out, cap = [], self.cap
        for p in range(n + 1):
            for m in self._coeffs.get(p, []):
                room = None if cap is None \
                    else cap - self.C.weights.get(m, 0)
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
        mdeg = self.coeff_degree(m)
        if self.side == "right":
            # d(x (x) w) = dx (x) w + (-1)^{|x|} x (x) dw
            #              - (-1)^{|x_i|} x_i (x) s[c^i] | w
            for o, c in self.C.d_of(m).items():
                out.iadd_term(c, self.label(o, word))
            sign = -1 if mdeg % 2 else 1
            for w2, c in self.omega.d_word(word).items():
                out.iadd_term(sign * c, self.label(m, w2))
            for (_, mi, ci), c in self.coaction(m):
                # (-1)^(|m_i|+1); test_acceptance criteria 01 and 02 pin it
                s = 1 if self.coeff_degree(mi) % 2 else -1
                out.iadd_term(s * c, self.label(
                    mi, (self.omega.code[s_letter(ci)],) + word))
        else:
            # d(w (x) x) = dw (x) x + (-1)^{|w|} w (x) dx
            #              + (-1)^{|w|} (w | s[x_i]) (x) x^i
            for w2, c in self.omega.d_word(word).items():
                out.iadd_term(c, self.label(m, w2))
            sign = -1 if wdeg % 2 else 1
            for o, c in self.C.d_of(m).items():
                out.iadd_term(sign * c, self.label(o, word))
            for (_, ci, mi), c in self.coaction(m):
                # sign +1; test_cobar and the section-defect test pin it
                out.iadd_term(sign * c, self.label(
                    mi, word + (self.omega.code[s_letter(ci)],)))
        return out

    def to_chain_complex(self):
        from .chain import ChainComplex
        bases = {n: self.basis(n) for n in range(self.cutoff + 1)}
        return ChainComplex.from_labels(self.ring, bases, self.diff,
                                        self.cutoff, self.readable)


def coalgebra_of_hopf(H, cutoff):
    """The underlying coalgebra of an InducedHopf H through the given
    degree, on the labels of its words of positive degree, so that its
    cobar algebra can be formed, with letters such as s[s[x2]|s[y3]]."""
    om = H.omega
    read = {h: om.label(h) for n in range(cutoff + 1) for h in om.words(n)}
    gens = [h for h in read if h]
    return DGCoalgebra(
        H.ring, cutoff, {read[h]: om.degree(h) for h in gens},
        {read[h]: Vect(H.ring, [(read[u], c) for u, c in om.d_word(h).items()])
         for h in gens},
        {read[h]: Vect(H.ring, [(("t", read[u], read[v]), c) for (_, u, v), c
                                in H.delta_red(h).items()]) for h in gens},
        weights={read[h]: om.weight(h) for h in gens})


class TwistedHopfTensor(OneSidedCobar):
    """Omega H (x) H: the left one-sided cobar construction on an
    InducedHopf H as a comodule over itself (the model of its based-path
    fibration), with its chain algebra structure.  Labels here are ('t',
    word, h) with word a word in letters s[h] and h the label of a word of
    H.omega, as coalgebra_of_hopf gives it; its cutoff is H's."""

    def __init__(self, H):
        # letters of Omega H reach degree cutoff, i.e. H elements of
        # degree cutoff + 1; basis() stops the coefficients at the cutoff
        super().__init__(CobarAlgebra(coalgebra_of_hopf(H, H.cutoff + 1)),
                         "left", unit=H.omega.label(()))
        self.cutoff = H.cutoff  # omega's is one higher; the cap follows this

    def mul_labels(self, l1, l2):
        """(v (x) 1)(v' (x) x) = v v' (x) x.  H(Omega H (x) H) is R in
        degree 0, so every product of classes has a left factor in degree
        0, whose coefficient is the unit; any other is refused."""
        (_, v, c) = l1
        (_, vp, x) = l2
        if self.degree(l1) + self.degree(l2) > self.cutoff:
            raise ValueError("product in degree %d exceeds cutoff %d"
                             % (self.degree(l1) + self.degree(l2), self.cutoff))
        if c != self.unit:
            raise ValueError("product with left coefficient %s: only the "
                             "unit is supported" % label_str(c))
        return Vect.basis(self.ring, ("t", v + vp, x))

    def mul(self, u, v):
        return bilinear(self.ring, u, v, self.mul_labels)

    def section(self, bvect):
        """The degree-0 splitting b -> 1 (x) b of the projection to H."""
        return Vect(self.ring, [(("t", (), b), c) for b, c in bvect.items()])

    def section_defect(self, bvect):
        """d(1 (x) b) - 1 (x) db; a chain homotopy datum.  On a basis
        element b of positive degree it is s[b] (x) 1 plus c s[h] (x) b'
        for each term c h (x) b' of the reduced comultiplication of b."""
        return (self.section(bvect).map_terms(self.diff)
                - self.section(bvect.map_terms(self.C.d_of)))

    def projection(self, vect):
        """The projection w (x) h -> counit(w) h onto H."""
        return Vect(self.ring, [(h, c) for (_, word, h), c in vect.items()
                                if not word])


class AlgebraOnHomology:
    """Homology of a chain complex together with the induced product on
    classes, reported as structure constants in the representative basis."""

    def __init__(self, complex_, mul_vect):
        self.complex = complex_
        self.ring = complex_.ring
        self.mul_vect = mul_vect
        self.top = complex_.cutoff - 1
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

    def structure_constants(self):
        """All pairwise products of representatives with total degree in
        range, as a deterministic nested dict."""
        hi = self.top
        out = {}
        for n1 in range(hi + 1):
            for n2 in range(hi + 1 - n1):
                h1, h2 = self.homology(n1), self.homology(n2)
                for i1 in range(len(h1.representatives)):
                    for i2 in range(len(h2.representatives)):
                        out[(n1, i1, n2, i2)] = self.product_class(n1, i1, n2, i2)
        return out

