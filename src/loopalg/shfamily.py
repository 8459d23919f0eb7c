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
That comultiplication is a map of chain algebras, so it is the product,
in the interchange algebra Omega C (x) Omega C, of its letter values: the
value on a word is that on its prefix times that on its last letter.
"""

from .vectors import Vect, label_key
from .coalg import UNIT, tensor_coalgebra, direct_sum
from .tensoralg import UNIT_WORD
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

    def _omegas(self):
        if not hasattr(self, "_om_pair"):
            self._om_pair = (CobarAlgebra(self.source),
                             CobarAlgebra(self.target))
        return self._om_pair

    def chain_map_defect(self, gen):
        """d(ind(s[gen])) - ind(d(s[gen])) in the target cobar algebra.
        The family is coherent exactly when this vanishes on every
        generator."""
        if not hasattr(self, "_defects"):
            self._defects = {}
        if gen not in self._defects:
            oms, omt = self._omegas()
            ind = self.induced_map(oms, omt)
            letter = ("w", s_letter(gen))
            self._defects[gen] = (ind(letter).map_terms(omt.d_word)
                                  - oms.d_word(letter).map_terms(ind))
        return self._defects[gen]

    def coherence_residue(self, gen, k):
        """Length-k word component of the chain map defect; the level-k
        coherence obstruction of the family at gen."""
        return Vect(self.ring, [t for t in self.chain_map_defect(gen).items()
                                if len(t[0]) == k + 1])

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

    def induced_letter_value(self, letter):
        """ind(theta)(s[c]) = sum_k s^{-1 (x)k} theta_k(c), a Vect of words
        of the target cobar algebra."""
        ring = self.ring
        c = letter[1]
        out = Vect(ring)
        for k in self.components:
            for label, coef in self.component(k, c).items():
                parts = label[1:]
                degs = [self.target.degree(p) for p in parts]
                exp = sum(degs[i] * (k - 1 - i) for i in range(k))
                sign = -1 if exp % 2 else 1
                out.iadd_term(sign * coef,
                              ("w",) + tuple(s_letter(p) for p in parts))
        return out

    def induced_map(self, omega_source, omega_target):
        """The induced algebra map Omega C -> Omega C' on words."""
        return omega_source.algebra_map(self.induced_letter_value,
                                        omega_target.mul, omega_target.unit)


class TensorSquare:
    """Omega A (x) Omega B with labels ('t', wordA, wordB), the interchange
    product, and the tensor differential."""

    def __init__(self, omA, omB):
        self.omA = omA
        self.omB = omB
        self.ring = omA.ring
        self.cutoff = min(omA.cutoff, omB.cutoff)
        self._odd = {}

    def unit(self):
        return Vect.basis(self.ring, ("t", UNIT_WORD, UNIT_WORD))

    def mul(self, u, v):
        return self.times(u, self.factor(v))

    def factor(self, v):
        """v prepared as a right factor: per term, the tails of its words,
        its coefficient and the parity of its first word."""
        return [(b1[1:], b2[1:], cb, self.omA.degree(b1) % 2)
                for (_, b1, b2), cb in v.terms.items()]

    def times(self, u, factor):
        """u times a prepared factor: (a1 (x) a2)(b1 (x) b2) =
        (-1)^{|a2||b1|} a1 b1 (x) a2 b2, each a2's parity taken once."""
        odd_of = self._odd
        terms = {}
        for (_, a1, a2), ca in u.terms.items():
            odd = odd_of.get(a2)
            if odd is None:
                odd = odd_of[a2] = self.omB.degree(a2) % 2
            for b1, b2, cb, b_odd in factor:
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

    def letter_value(letter):
        (_, a, b) = letter[1]
        if b == UNIT:
            return Vect.basis(ring, ("t", ("w", s_letter(a)), UNIT_WORD))
        if a == UNIT:
            return Vect.basis(ring, ("t", UNIT_WORD, ("w", s_letter(b))))
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
    C to C (x) C with Psi_1 the full comultiplication."""

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


class InducedHopf:
    """The cobar algebra of C with the comultiplication induced by a
    homotopy diagonal.  Serves as the Hopf algebra input of the twisted
    constructions; its element labels are cobar words."""

    def __init__(self, aw):
        self.aw = aw
        self.C = aw.C
        self.ring = aw.ring
        self.cutoff = aw.cutoff
        self.omega = CobarAlgebra(self.C)
        self.omega_tensor = CobarAlgebra(aw.tensorC)
        self.tsq = TensorSquare(self.omega, self.omega)
        self._split = letterwise_split(self.omega_tensor, self.tsq)
        self._psi_letter_cache = {}
        self._psi_cache = {}
        self._factors = {}

    def psi_letter(self, letter):
        if letter not in self._psi_letter_cache:
            ind = self.aw.psi.induced_letter_value(letter)
            self._psi_letter_cache[letter] = ind.map_terms(self._split)
        return self._psi_letter_cache[letter]

    def psi(self, word):
        """Full comultiplication of a word, over ('t', word, word).  It is
        an algebra map: psi of the prefix times psi_letter of the last
        letter, whose factor is prepared once."""
        if word not in self._psi_cache:
            if word == UNIT_WORD:
                self._psi_cache[word] = self.tsq.unit()
            else:
                l = word[-1]
                if l not in self._factors:
                    self._factors[l] = self.tsq.factor(self.psi_letter(l))
                self._psi_cache[word] = self.tsq.times(self.psi(word[:-1]),
                                                       self._factors[l])
        return self._psi_cache[word]

    def delta_red(self, word):
        if word == UNIT_WORD:
            return Vect.zero(self.ring)
        return self.psi(word) - Vect(self.ring, {("t", word, UNIT_WORD): 1,
                                                 ("t", UNIT_WORD, word): 1})

    def coassociativity_defects(self):
        """(psi (x) 1)psi - (1 (x) psi)psi on every letter; both sides are
        algebra maps, so letters decide.  Nonempty exactly when the
        homotopy diagonal is not balanced enough for a genuine Hopf
        structure."""
        defects = []
        for letter in sorted(self.omega.letters, key=label_key):
            lhs = Vect(self.ring)
            rhs = Vect(self.ring)
            for (_, u, v), c in self.psi(("w", letter)).items():
                for (_, a, b), c2 in self.psi(u).items():
                    lhs.iadd_term(c * c2, ("t", a, b, v))
                for (_, a, b), c2 in self.psi(v).items():
                    rhs.iadd_term(c * c2, ("t", u, a, b))
            if not (lhs - rhs).is_zero():
                defects.append((letter, lhs - rhs))
        return defects

    def chain_map_defects(self):
        """psi d - (d (x) 1 + 1 (x) d) psi on every letter."""
        defects = []
        for letter in sorted(self.omega.letters, key=label_key):
            word = ("w", letter)
            lhs = self.omega.d_word(word).map_terms(self.psi)
            rhs = self.psi(word).map_terms(self.tsq.diff)
            if not (lhs - rhs).is_zero():
                defects.append((letter, lhs - rhs))
        return defects


def aw_coproduct(A, Ap):
    """Homotopy diagonal on the coproduct coalgebra: each summand keeps its
    own family, pushed through the inclusions."""
    E = direct_sum(A.C, Ap.C)
    TE = tensor_coalgebra(E, E)

    def mk_push(tag):
        def wrap(l):
            return l if l == UNIT else (tag, l)

        def push(label):
            parts = []
            for p in label[1:]:
                (_, a, b) = p
                parts.append(("tp", wrap(a), wrap(b)))
            return Vect.basis(E.ring, ("t",) + tuple(parts))
        return push

    comps = {}
    for tag, src in (("inl", A), ("inr", Ap)):
        push = mk_push(tag)
        for k, table in src.psi.components.items():
            comps.setdefault(k, {})
            for g, v in table.items():
                comps[k][(tag, g)] = v.map_terms(push)
    return AWCoalgebra(E, SHFamily(E, TE, comps))
