"""Based-path objects and the loop-space tower.

P(C) adjoins an acyclibility partner bar(c) for every generator: d(c) picks
up -bar(c) and d(bar(c)) = -bar(dc); the comultiplication of bar(c) spreads
the bar across the tensor factors of Delta(c) with Koszul signs.  A homotopy
diagonal on C extends to one on P(C) the same way, slotwise.

The path-loop algebra is the cobar construction on P(C) with the induced
comultiplication; it right-coacts on itself over Omega C by erasing bars in
the second output slot.  The cofixed part of that coaction is the
double-loop model; applied to the coproduct of a source coalgebra with
P(C) along a map to C, the same construction yields the homotopy-fiber
model.  Both coactions are maps of chain algebras, built prefix by prefix
as products of letter values: a letter's comultiplication with its second
slot projected or pushed once, never the full comultiplication of a word.

A cofixed subalgebra is stored per (degree, weight) block as a kernel
basis over ambient words, from linalg.kernel on the coaction columns.
Each entry of the model's differential and product is read off at the
free words; only the vectors of a leftover Z core (none in the measured
blocks) go through a linalg.Solver.
"""

from .vectors import Vect, label_key, label_str, bilinear
from .coalg import UNIT, DGCoalgebra, tensor_coalgebra
from .tensoralg import UNIT_WORD
from .cobar import CobarAlgebra, s_letter
from .shfamily import SHFamily, AWCoalgebra, InducedHopf, TensorSquare
from . import linalg


def bar(label):
    return ("bar", label)


def _is_bar(label):
    return isinstance(label, tuple) and label[:1] == ("bar",)


def path_object(C, name=""):
    """The based-path coalgebra on X + bar(X): acyclic, with
    d(x) = dx - bar(x), d(bar x) = -bar(dx), and the comultiplication of
    bar(x) obtained by barring one tensor factor of Delta(x) at a time."""
    for g, deg in C.gens.items():
        if deg < 2:
            raise ValueError("path object needs generators in degree >= 2; "
                             "%s has degree %d" % (label_str(g), deg))
        if _is_bar(g):
            raise ValueError("path object cannot be iterated: generator "
                             "%s is already barred" % (label_str(g),))
    ring = C.ring
    gens = {}
    weights = {}
    d = {}
    delta = {}
    for g, deg in C.gens.items():
        gens[g] = deg
        gens[bar(g)] = deg - 1
        weights[g] = C.weights.get(g, 1)
        weights[bar(g)] = C.weights.get(g, 1)
        dv = Vect(ring, dict(C.d_of(g).terms))
        dv.iadd_term(-1, bar(g))
        d[g] = dv
        dbar = Vect(ring, [(bar(o), ring.neg(c)) for o, c in C.d_of(g).items()])
        if not dbar.is_zero():
            d[bar(g)] = dbar
        dl = C.delta_red(g)
        if not dl.is_zero():
            delta[g] = dl
            dlbar = Vect(ring)
            for (_, a, b), c in dl.items():
                dlbar.iadd_term(c, ("t", bar(a), b))
                s = -1 if C.degree(a) % 2 else 1
                dlbar.iadd_term(ring.mul(s, c), ("t", a, bar(b)))
            delta[bar(g)] = dlbar
    return DGCoalgebra(ring, C.cutoff, gens, d, delta,
                       name=name or ("P(%s)" % C.name), weights=weights)


# Sign rule for barring a slot of a level-k homotopy-diagonal term: the
# Koszul sign of moving the degree -1 bar operator past the earlier slots,
# plus a level correction for the pair index i that was barred (the
# desuspension signs of the induced cobar map see that pair's degree drop
# by one).  The correction exponent is
# BAR_EXTRA[0]*(k - 1 - i) + BAR_EXTRA[1]*i, and (1, 1), a global
# (-1)^(k-1), is the convention pinned by requiring all at once: the
# extended family stays coherent, the induced comultiplication on the
# path cobar algebra is a coassociative chain map, and the bar-erasing
# coaction satisfies the loop-concatenation derivation identities.
BAR_EXTRA = (1, 1)


def extend_psi(A, name=""):
    """Extend a homotopy diagonal on C to one on P(C).  Unbarred
    generators keep their components; bar(g) gets every term of Psi_k(g)
    with one slot barred (the unit cannot be barred), with Koszul and
    regrading signs."""
    PC = path_object(A.C)
    T = tensor_coalgebra(PC, PC)
    ring = A.ring
    comps = {}
    for k, table in A.psi.components.items():
        comps[k] = {}
        for g, v in table.items():
            comps[k][g] = v
            out = Vect(ring)
            for label, coef in v.items():
                flat = []
                for p in label[1:]:
                    (_, a, b) = p
                    flat.append(a)
                    flat.append(b)
                pre = 0
                for t, e in enumerate(flat):
                    if e != UNIT:
                        i = t // 2
                        exp = pre + BAR_EXTRA[0] * (k - 1 - i) + BAR_EXTRA[1] * i
                        sign = -1 if exp % 2 else 1
                        parts = []
                        for j in range(0, len(flat), 2):
                            a, b = flat[j], flat[j + 1]
                            if t == j:
                                a = bar(a)
                            elif t == j + 1:
                                b = bar(b)
                            parts.append(("tp", a, b))
                        out.iadd_term(ring.mul(sign, coef), ("t",) + tuple(parts))
                    pre += A.C.degree(e) if e != UNIT else 0
            if not out.is_zero():
                comps[k][bar(g)] = out
    fam = SHFamily(PC, T, comps, name="Psi~")
    return AWCoalgebra(PC, fam, name=name or PC.name)


class _Coaction:
    """What the path-loop and fiber coactions share.  A subclass provides
    ring, cutoff, the word algebra omega, the algebra tsq that the coaction
    lands in, and _nu_letter, the coaction of one letter; the cofixed part
    of nu is the double-loop or homotopy-fiber model."""

    def nu(self, word):
        """The full coaction, over ('t', word, base word).  It is a map of
        algebras, so it is nu of the prefix times nu of the last letter, in
        tsq; no full comultiplication of a word is built."""
        if word not in self._nu_cache:
            if word == UNIT_WORD:
                val = self.tsq.unit()
            elif len(word) == 2:
                val = self._nu_letter(word[1])
            else:
                val = self.tsq.mul(self.nu(word[:-1]), self.nu(("w", word[-1])))
            self._nu_cache[word] = val
        return self._nu_cache[word]

    def nu_bar(self, word):
        """The reduced coaction: nu(word) - word (x) 1."""
        out = Vect(self.ring, dict(self.nu(word).terms))
        out.iadd_term(-1, ("t", word, UNIT_WORD))
        return out

    def cofixed(self, max_weight=None):
        return CofixedSubalgebra(self.omega, self.nu_bar, self.cutoff,
                                 max_weight=max_weight)


class PathLoop(_Coaction):
    """The cobar algebra on P(C) with its induced comultiplication and the
    right coaction over Omega C that erases bars.  nu is the product of the
    letter coproducts with their barred second-slot terms dropped."""

    def __init__(self, A, name=""):
        self.base = A
        self.ring = A.ring
        self.cutoff = A.cutoff
        self.name = name or ("PL(%s)" % A.name)
        self.pc_aw = extend_psi(A)
        self.hopf = InducedHopf(self.pc_aw, name=self.name)
        self.omega = self.hopf.omega
        self.base_hopf = InducedHopf(A)
        self.omega_base = self.base_hopf.omega
        self.tsq = self.hopf.tsq
        self._nu_cache = {}

    def _nu_letter(self, letter):
        """(1 (x) Omega pi) psi~ of a letter, over ('t', path-loop word,
        base word): Omega pi erases every term with a barred letter in the
        second slot."""
        out = Vect(self.ring)
        for (_, u, v), c in self.hopf.psi_letter(letter).items():
            if not any(_is_bar(l[1]) for l in v[1:]):
                out.iadd_term(c, ("t", u, v))
        return out

    def kappa(self, vect):
        """The degree -1 derivation of Omega C into the path-loop algebra
        with kappa(s[c]) = -s[bar c]."""
        values = {}
        for letter in self.omega_base.letters:
            values[letter] = Vect.basis(self.ring,
                                        ("w", s_letter(bar(letter[1]))), -1)
        fn = self.omega_base.derivation(values, -1)
        return vect.map_terms(fn)

    def to_chain_complex(self, max_weight=None, top=None, name=""):
        return self.omega.to_chain_complex(max_weight, top, name or self.name)


class CofixedSubalgebra:
    """The degreewise kernel of a reduced coaction inside a word algebra,
    as a chain complex with a product.

    ambient: a free word algebra (a FreeAlgebra such as a CobarAlgebra);
    coaction_bar: word -> Vect over ('t', word, hword).
    When the ambient alphabet has degree-0 letters the computation is run
    per weight block (the coaction and differential must preserve the
    weight for the blocks to be exact; this holds in the primitive
    situations that produce degree-0 letters).

    Each block keeps its kernel basis, which basis() labels, its free
    words and a linalg.Solver on its core vectors, which together give
    the coordinates."""

    def __init__(self, ambient, coaction_bar, cutoff, max_weight=None,
                 name=""):
        self.ambient = ambient
        self.ring = ambient.ring
        self.coaction_bar = coaction_bar
        self.cutoff = cutoff
        self.max_weight = max_weight
        self.blocked = not ambient.finite_type
        if self.blocked and max_weight is None:
            raise ValueError("degree-0 letters in the ambient algebra: a "
                             "weight bound is required")
        self.name = name or ("cofixed(%s)" % getattr(ambient, "name", ""))
        self._kernels = {}
        self._bases = {}
        self._readers = {}

    def _words(self, n, w=None):
        if w is None:
            return self.ambient.words(n, self.max_weight)
        return [u for u in self.ambient.words(n, w)
                if self.ambient.weight(u) == w]

    def _kernel(self, n, w=None):
        """Kernel vectors of the reduced coaction on the (degree, weight)
        block, as Vects over ambient words: the unit vectors in the order
        of their free words, then the core vectors."""
        key = (n, w)
        if key not in self._kernels:
            words = self._words(n, w)
            images = [self.coaction_bar(u).terms for u in words]
            rows = {l: i for i, l in enumerate(sorted(
                {l for img in images for l in img}, key=label_key))}
            free, vecs = linalg.kernel(
                [dict(sorted((rows[l], c) for l, c in img.items()))
                 for img in images], self.ring)
            vecs = [Vect(self.ring, {words[j]: c for j, c in v.items()})
                    for v in vecs]
            self._kernels[key] = (words, vecs)
            self._readers[key] = (
                {words[j]: i for i, j in enumerate(free)},
                linalg.Solver([v.terms for v in vecs[len(free):]], words,
                              self.ring, "cofixed block"))
        return self._kernels[key]

    def blocks(self, n):
        if not self.blocked:
            return [None]
        return list(range(0, self.max_weight + 1))

    def basis(self, n):
        """Synthetic labels ('k', n, i) or ('k', n, w, i) per block."""
        if n in self._bases:
            return self._bases[n]
        out = []
        for w in self.blocks(n):
            _, vecs = self._kernel(n, w)
            for i in range(len(vecs)):
                out.append(("k", n, i) if w is None else ("k", n, w, i))
        self._bases[n] = out
        return out

    def vector_of(self, label):
        n, w, i = (label[1], None, label[2]) if len(label) == 3 else label[1:]
        return self._kernel(n, w)[1][i]

    def rank(self, n):
        return len(self.basis(n))

    def coordinates(self, n, vect):
        """Express a Vect over ambient words (lying in the cofixed part of
        degree n) in the synthetic basis, block by block, as a dict
        label -> nonzero coefficient: its coefficients at the free words,
        then the core Solver's coordinates of what the unit vectors leave,
        which refuses a remainder."""
        if self.blocked:
            parts = {}
            for u, c in vect.items():
                parts.setdefault(self.ambient.weight(u), {})[u] = c
        else:
            parts = {None: vect.terms}
        out = {}
        for w in (w for w in self.blocks(n) if w in parts):
            _, vecs = self._kernel(n, w)
            free, core = self._readers[(n, w)]
            head = ("k", n) if w is None else ("k", n, w)
            left = dict(parts[w])
            for i, c in sorted((free[u], c) for u, c in parts[w].items()
                               if u in free):
                out[head + (i,)] = c
                linalg.add_multiple(left, vecs[i].terms, -c, self.ring)
            for i, c in enumerate(core.coordinates(left), len(free)):
                if c:
                    out[head + (i,)] = c
        return out

    def diff(self, label):
        """Differential in synthetic coordinates."""
        dv = self.ambient.d_vect(self.vector_of(label))
        return Vect(self.ring, self.coordinates(label[1] - 1, dv))

    def mul_labels(self, l1, l2):
        prod = self.ambient.mul(self.vector_of(l1), self.vector_of(l2))
        return Vect(self.ring, self.coordinates(l1[1] + l2[1], prod))

    def mul(self, u, v):
        return bilinear(self.ring, u, v, self.mul_labels)

    def expand(self, vect):
        """Synthetic coordinates back to ambient words."""
        return vect.map_terms(self.vector_of)

    def to_chain_complex(self, top=None, name=""):
        from .chain import ChainComplex
        top = self.cutoff if top is None else top
        bases = {n: self.basis(n) for n in range(top + 1)}
        return ChainComplex(self.ring, bases, self.diff, self.cutoff,
                            name=name or self.name)


def double_loop(A, max_weight=None):
    """The cofixed part of the path-loop algebra under its coaction over
    Omega C."""
    pl = PathLoop(A)
    return pl.cofixed(max_weight), pl


class FiberCoaction(_Coaction):
    """Coaction for the homotopy-fiber model: on the cobar algebra of
    C' (+) P(C), push the second comultiplication slot through the map
    induced by (omega + pi) : C' (+) P(C) -> C.  nu is the product of the
    pushed letter coactions in Omega(C' (+) P(C)) (x) Omega C."""

    def __init__(self, Aprime, A, omega_family, name=""):
        self.ring = A.ring
        self.cutoff = min(A.cutoff, Aprime.cutoff)
        self.Aprime = Aprime
        self.A = A
        self.family = omega_family
        self.name = name
        self.aw_sum = _coproduct_with_path(Aprime, A)
        self.hopf = InducedHopf(self.aw_sum, name=name or "E")
        self.omega = self.hopf.omega
        self.omega_base = CobarAlgebra(A.C)
        self._push = self.omega.algebra_map(
            self._push_letter, self.omega_base.mul, self.omega_base.unit)
        self.tsq = TensorSquare(self.omega, self.omega_base)
        self._nu_cache = {}

    def _push_letter(self, letter):
        tag, inner = letter[1]
        if tag == "inl":
            return self.family.induced_letter_value(s_letter(inner))
        if _is_bar(inner):
            return Vect.zero(self.ring)
        return Vect.basis(self.ring, ("w", s_letter(inner)))

    def _nu_letter(self, letter):
        """psi of a letter with its second slot pushed to Omega C."""
        out = Vect(self.ring)
        for (_, u, v), c in self.hopf.psi_letter(letter).items():
            for w2, c2 in self._push(v).items():
                out.iadd_term(self.ring.mul(c, c2), ("t", u, w2))
        return out


def _coproduct_with_path(Aprime, A):
    from .shfamily import aw_coproduct
    return aw_coproduct(Aprime, extend_psi(A))


def loop_fiber(Aprime, A, omega_family, max_weight=None):
    """Homotopy-fiber model of a map (C', Psi') -> (C, Psi) given by a
    homotopy-coherent family: the cofixed part of Omega(C' (+) P(C))
    under the pushed coaction."""
    fc = FiberCoaction(Aprime, A, omega_family)
    return fc.cofixed(max_weight), fc


def identity_family(A):
    """The strict homotopy family of the identity map of C."""
    letter_map = {g: Vect.basis(A.ring, g) for g in A.C.gens}
    return SHFamily.strict(A.C, A.C, letter_map, name="id")


def trivial_family(Aprime, A):
    """The strict family of the trivial (basepoint) map C' -> C: zero on
    positive degrees."""
    return SHFamily(Aprime.C, A.C, {}, name="trivial")
