"""Strongly homotopy families of comultiplicative maps.

A family {theta_k : C -> C'^{(x)k}, degree k-1} induces, by total
desuspension of each level, an algebra map ind(theta) between the cobar
constructions of C and C'.  The family is homotopy coherent exactly when
ind(theta) is a chain map; coherence is checked in that form, letter by
letter, with the level-k residue read off as the length-k word component
of the chain map defect.  This characterization is sign-convention free:
all Koszul bookkeeping lives in the cobar differential and in the
desuspension sign of ind(theta).

A homotopy diagonal is a family Psi : C -> (C (x) C)^{(x)k} with Psi_1 the
full comultiplication; pushing its induced map through the letterwise
quotient Omega(C (x) C) -> Omega C (x) Omega C equips Omega C with a
comultiplication, coassociative exactly when Psi is suitably coherent.
That comultiplication psi is the regular coaction of Omega C on itself,
computed by the engine that the path-loop and fiber coactions share
(Coaction): a map of chain algebras, so on a word the value on its
prefix times that on its last letter, in Omega C (x) Omega C, on int
codes, with the antipode and the Hopf-module projection beside it.
"""

import functools

from .vectors import Vect, label_key
from .coalg import UNIT, tensor_coalgebra
from .cobar import CobarAlgebra, s_letter


class SHFamily:
    """A finitely supported family theta_k : C -> target^{(x)k}.

    components: dict level k >= 1 -> dict source generator -> Vect over
    ('t', t_1, ..., t_k) with t_i target generators."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.ring = source.ring
        self.components = {}
        for k, table in components.items():
            kept = {g: v for g, v in table.items()
                    if g in source.gens and not v.is_zero()}
            if kept:
                self.components[int(k)] = kept
        self._defects = {}

    @classmethod
    def strict(cls, source, target, letter_map):
        """The family of an ordinary coalgebra map: theta_1 only.
        letter_map: source generator -> Vect over target generators."""
        comp = {g: Vect(source.ring, [(("t", l), c) for l, c in v.items()])
                for g, v in letter_map.items()}
        return cls(source, target, {1: comp})

    def max_level(self):
        return max(self.components) if self.components else 0

    def component(self, k, gen):
        return self.components.get(k, {}).get(gen, Vect.zero(self.ring))

    def degree_problems(self):
        """theta_k must raise degree by exactly k - 1."""
        problems = []
        for k, table in self.components.items():
            for g, v in table.items():
                want = self.source.degree(g) + k - 1
                for label, _ in v.items():
                    got = sum(self.target.degree(p) for p in label[1:])
                    if len(label) - 1 != k or got != want:
                        problems.append((k, g, label))
        return problems

    @functools.cached_property
    def omegas(self):
        """The cobar algebras of source and target for the coherence check
        and a diagonal's InducedHopf, built once unless a caller sets them."""
        return CobarAlgebra(self.source), CobarAlgebra(self.target)

    def chain_map_defect(self, gen):
        """d(ind(s[gen])) - ind(d(s[gen])) in the target cobar algebra.
        The family is coherent exactly when this vanishes on every
        generator."""
        if gen not in self._defects:
            oms, omt = self.omegas
            ind = self.induced_map(oms, omt)
            letter = (oms.code[s_letter(gen)],)
            self._defects[gen] = (ind(letter).map_terms(omt.d_word)
                                  - oms.d_word(letter).map_terms(ind))
        return self._defects[gen]

    def coherence_residue(self, gen, k):
        """Length-k word component of the chain map defect; the level-k
        coherence obstruction of the family at gen."""
        return Vect(self.ring, [t for t in self.chain_map_defect(gen).items()
                                if len(t[0]) == k])

    def verify(self):
        """Check degree bookkeeping and that the induced cobar map is a
        chain map on every generator, reported level by level through one
        level above the family's top.  Returns (ok, problems)."""
        problems = [("degree", k, g, lbl) for (k, g, lbl) in self.degree_problems()]
        for g in sorted(self.source.gens, key=label_key):
            for k in range(1, self.max_level() + 2):
                res = self.coherence_residue(g, k)
                if not res.is_zero():
                    problems.append(("coherence", k, g, res))
        return (not problems), problems

    def induced_letter_value(self, c, omega_target):
        """ind(theta)(s[c]) = sum_k s^{-1 (x)k} theta_k(c), a Vect of words
        of omega_target, the target cobar algebra."""
        out, code = Vect(self.ring), omega_target.code
        for k in self.components:
            for label, coef in self.component(k, c).items():
                parts = label[1:]
                degs = [self.target.degree(p) for p in parts]
                exp = sum(degs[i] * (k - 1 - i) for i in range(k))
                sign = -1 if exp % 2 else 1
                out.iadd_term(sign * coef,
                              tuple(code[s_letter(p)] for p in parts))
        return out

    def induced_map(self, omega_source, omega_target):
        """The induced algebra map Omega C -> Omega C' on words."""
        letters = omega_source._ordered
        return omega_source.algebra_map(
            lambda l: self.induced_letter_value(letters[l][1], omega_target),
            omega_target.mul, omega_target.unit)


class TensorSquare:
    """Omega A (x) Omega B with labels ('t', wordA, wordB), the interchange
    product, and the tensor differential."""

    def __init__(self, omA, omB):
        self.omA = omA
        self.omB = omB
        self.ring = omA.ring
        self.cutoff = min(omA.cutoff, omB.cutoff)

    def unit(self):
        return Vect.basis(self.ring, ("t", (), ()))

    def mul(self, u, v):
        """(a1 (x) a2)(b1 (x) b2) = (-1)^{|a2||b1|} a1 b1 (x) a2 b2."""
        right = [(b1, b2, cb, self.omA.degree(b1) % 2)
                 for (_, b1, b2), cb in v.terms.items()]
        terms = {}
        for (_, a1, a2), ca in u.terms.items():
            odd = self.omB.degree(a2) % 2
            for b1, b2, cb, b_odd in right:
                label = ("t", a1 + b1, a2 + b2)
                c = ca * cb
                terms[label] = terms.get(label, 0) + (-c if odd and b_odd else c)
        return Vect.from_sums(self.ring, terms)

    def diff(self, label):
        (_, w1, w2) = label
        sign = -1 if self.omA.degree(w1) % 2 else 1
        return Vect(self.ring, [(("t", u, w2), c) for u, c in
                                self.omA.d_word(w1).items()] +
                    [(("t", w1, u), sign * c) for u, c in
                     self.omB.d_word(w2).items()])


def letterwise_split(omega_tensor, tsq):
    """The multiplicative quotient Omega(A (x) B) -> Omega A (x) Omega B:
    s[(a & 1)] -> s[a] (x) 1, s[(1 & b)] -> 1 (x) s[b], and letters with
    both components positive go to zero."""
    ring = omega_tensor.ring

    def letter_value(l):
        (_, a, b) = omega_tensor._ordered[l][1]
        if b == UNIT:
            return Vect.basis(ring, ("t", (tsq.omA.code[s_letter(a)],), ()))
        if a == UNIT:
            return Vect.basis(ring, ("t", (), (tsq.omB.code[s_letter(b)],)))
        return Vect.zero(ring)

    return omega_tensor.algebra_map(letter_value, tsq.mul, tsq.unit)


def psi_one(C):
    """Level 1 of every homotopy diagonal on C: the full comultiplication
    of each generator, as a dict generator -> Vect over ('t', ('tp', a,
    b))."""
    return {g: Vect(C.ring, [(("t", ("tp", a, b)), c)
                             for (_, a, b), c in C.delta_full(g).items()])
            for g in C.gens}


class AWCoalgebra:
    """A coalgebra together with a homotopy diagonal Psi: an SHFamily from
    C to C (x) C with Psi_1 the full comultiplication, and the one Hopf
    algebra that Psi induces on Omega C (hopf)."""

    def __init__(self, C, psi):
        self.C = C
        self.ring = C.ring
        self.cutoff = C.cutoff
        self.psi = psi
        self.tensorC = psi.target

    @classmethod
    def strict(cls, C):
        """The homotopy diagonal of a coassociative coalgebra: Psi_1 is the
        comultiplication and all higher components vanish."""
        return cls(C, SHFamily(C, tensor_coalgebra(C, C), {1: psi_one(C)}))

    def verify(self):
        """Psi_1 must be the full comultiplication and the family must be
        coherent."""
        want = psi_one(self.C)
        problems = [("psi1", g) for g in self.C.gens
                    if self.psi.component(1, g) != want[g]]
        ok, more = self.psi.verify()
        return (not problems) and ok, problems + more

    @functools.cached_property
    def hopf(self):
        """The InducedHopf of Psi, built on first use and kept."""
        return InducedHopf(self)


class Coaction:
    """A right coaction nu of a word algebra omega over base_hopf, the
    induced Hopf algebra on omega_base, on the algebras' words (tuples of
    letter codes, see tensoralg): a value is a dict (word, base word) ->
    nonzero coefficient.  nu is a map of chain algebras, the product of
    the letter values of _nu_letter.  A subclass sets ring, cutoff, omega,
    omega_base and base_hopf, then calls this __init__ with include, the
    letter of omega that a base letter is."""

    def __init__(self, include):
        A, B = self.omega, self.omega_base
        self._cap = A.cap  # an attribute: nu reads it on every call
        self._deg, self._wt = A.deg, A.wt
        self._odd_b = [d % 2 for d in B.deg]
        self._shapes = set(zip(self._deg, self._wt))
        self._dmin = min(self._deg, default=0)
        self._nu_cache, self._factors, self._odd = {}, {}, {}
        # iota: base code -> omega code of the letter; _base its inverse
        self._iota = [A.code[include(l)] for l in B._ordered]
        self._base = {a: b for b, a in enumerate(self._iota)}
        self._antipodes = {(): {(): self.ring.one}}

    def _nu_letter(self, l):
        """nu of the code l of an included base letter b: (iota (x)
        1)Delta(b), Delta(b) read off base_hopf.nu on codes."""
        iota = self._iota
        return {(tuple(map(iota.__getitem__, u)), v): c for (u, v), c in
                self.base_hopf.nu((self._base[l],)).items()}

    def nu(self, word):
        """The coaction of a code word: nu of the prefix times the factor
        of the last letter, (a1 (x) a2)(b1 (x) b2) = (-1)^{|a2||b1|} a1 b1
        (x) a2 b2.  Only prefixes are read again, so a word is kept only if
        some letter extends it within the cutoff and omega's cap."""
        val = self._nu_cache.get(word)
        if val is None:
            if not word:
                return {((), ()): self.ring.one}
            l, deg = word[-1], self._deg.__getitem__
            if len(word) == 1:
                val = self._nu_letter(l)
            else:
                if l not in self._factors:
                    # the terms of nu(l), then those for an odd a2
                    terms = self.nu((l,)).items()
                    self._factors[l] = [[(b1, b2, c) for (b1, b2), c in terms],
                                        [(b1, b2, -c if sum(map(deg, b1)) % 2
                                          else c) for (b1, b2), c in terms]]
                odd_of, factor, terms = self._odd, self._factors[l], {}
                for (a1, a2), ca in self.nu(word[:-1]).items():
                    odd = odd_of.get(a2)
                    if odd is None:
                        odd = odd_of[a2] = sum(map(self._odd_b.__getitem__,
                                                   a2)) % 2
                    for b1, b2, cb in factor[odd]:
                        key = (a1 + b1, a2 + b2)
                        terms[key] = terms.get(key, 0) + ca * cb
                val = self.ring.reduce(terms)
            room = self.cutoff - sum(map(deg, word))
            left = None if self._cap is None else \
                self._cap - sum(map(self._wt.__getitem__, word))
            if room >= self._dmin and (left is None or any(
                    d <= room and w <= left for d, w in self._shapes)):
                self._nu_cache[word] = val
        return val

    def antipode(self, v):
        """S(v) for a base code word v, over omega codes: on a letter b,
        S(b) = -b - sum S(b') b'' over the terms b' (x) b'' of Delta(b)
        with both factors positive, Delta(b) read off base_hopf.nu; on a
        longer word, S(u b) = (-1)^{|u||b|} S(b) S(u)."""
        val = self._antipodes.get(v)
        if val is None:
            iota, terms = self._iota, {}
            if len(v) == 1:
                terms[(iota[v[0]],)] = -self.ring.one
                for (a1, a2), c in self.base_hopf.nu(v).items():
                    if a1 and a2:
                        tail = tuple(map(iota.__getitem__, a2))
                        for s, cs in self.antipode(a1).items():
                            terms[s + tail] = terms.get(s + tail, 0) - c * cs
            else:
                odd = self._odd_b
                sign = -1 if odd[v[-1]] and sum(map(odd.__getitem__,
                                                    v[:-1])) % 2 else 1
                for s1, c1 in self.antipode(v[-1:]).items():
                    for s2, c2 in self.antipode(v[:-1]).items():
                        key = s1 + s2
                        terms[key] = terms.get(key, 0) + sign * c1 * c2
            val = self._antipodes[v] = self.ring.reduce(terms)
        return val

    def project(self, word):
        """P(word) = sum word_(0) S(word_(1)) for a code word, a dict code
        word -> nonzero coefficient."""
        terms, known = {}, self._antipodes
        for (a1, a2), c in self.nu(word).items():
            for s, cs in (known.get(a2) or self.antipode(a2)).items():
                key = a1 + s
                terms[key] = terms.get(key, 0) + c * cs
        return self.ring.reduce(terms)

    def comodule_defects(self):
        """(nu (x) 1)nu - (1 (x) Delta)nu on the letters of omega where it
        is not 0, Delta the comultiplication of base_hopf read off its nu:
        (letter, dict (code word, base code word, base code word) ->
        nonzero coefficient) pairs, none exactly when nu is a coaction.
        Both sides are algebra maps, so letters decide."""
        defects, delta = [], self.base_hopf.nu
        for l, letter in enumerate(self.omega._ordered):
            terms = {}
            for (u, v), c in self.nu((l,)).items():
                for (a, b), c2 in self.nu(u).items():
                    terms[(a, b, v)] = terms.get((a, b, v), 0) + c * c2
                for (a, b), c2 in delta(v).items():
                    terms[(u, a, b)] = terms.get((u, a, b), 0) - c * c2
            diff = self.ring.reduce(terms)
            if diff:
                defects.append((letter, diff))
        return defects

    def column(self, word):
        """nu(word) - word (x) 1."""
        col, key = dict(self.nu(word)), (word, ())
        if col.get(key) == 1:
            del col[key]
        else:
            col[key] = self.ring.norm(col.get(key, 0) - 1)
        return col

    def coaction(self, word):
        """nu of a word as a Vect over ('t', word, base word)."""
        return Vect.from_sums(self.ring, {("t", u, v): c for (u, v), c
                                          in self.nu(word).items()})


class InducedHopf(Coaction):
    """The cobar algebra of C with the comultiplication psi induced by a
    homotopy diagonal, as the regular coaction of Omega C on itself: omega
    is omega_base and include the identity.  A letter's value is ind
    Psi(letter) pushed through the letterwise split.  Serves as the Hopf
    algebra input of the twisted constructions; its elements are words of
    omega."""

    def __init__(self, aw):
        self.aw = aw
        self.ring = aw.ring
        self.cutoff = aw.cutoff
        self.omega, self.omega_tensor = aw.psi.omegas
        self.omega_base, self.base_hopf = self.omega, self
        self.tsq = TensorSquare(self.omega, self.omega)
        self._split = letterwise_split(self.omega_tensor, self.tsq)
        self._psi_cache = {}
        super().__init__(lambda letter: letter)

    def _nu_letter(self, l):
        value = self.aw.psi.induced_letter_value(self.omega._ordered[l][1],
                                                 self.omega_tensor)
        return {t[1:]: c for t, c in value.map_terms(self._split).items()}

    def psi(self, word):
        """Full comultiplication of a word, over ('t', word, word): nu as a
        Vect, kept per word."""
        val = self._psi_cache.get(word)
        if val is None:
            val = self._psi_cache[word] = self.coaction(word)
        return val

    def delta_red(self, word):
        if not word:
            return Vect.zero(self.ring)
        return self.psi(word) - Vect(self.ring, {("t", word, ()): 1,
                                                 ("t", (), word): 1})

    def coassociativity_defects(self):
        """(psi (x) 1)psi - (1 (x) psi)psi on every letter: psi is the
        regular coaction, so these are its comodule_defects.  Nonempty
        exactly when the homotopy diagonal is not balanced enough for a
        genuine Hopf structure."""
        return self.comodule_defects()

    def chain_map_defects(self):
        """psi d - (d (x) 1 + 1 (x) d) psi on every letter."""
        defects = []
        for l, letter in enumerate(self.omega._ordered):
            word = (l,)
            lhs = self.omega.d_word(word).map_terms(self.psi)
            rhs = self.psi(word).map_terms(self.tsq.diff)
            if not (lhs - rhs).is_zero():
                defects.append((letter, lhs - rhs))
        return defects

