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
model.  Both coactions are maps of chain algebras, so nu is built prefix
by prefix from letter values prepared once, on int codes: a letter is its
index in label_key order, a word a tuple of codes, a term a pair of words.

A cofixed subalgebra works on word indices: each (degree, weight) block
keeps its ambient words and linalg.kernel's vectors on their indices.  A
word's kernel column is its reduced coaction, read off nu with no Vect,
its rows numbered as they first appear, not sorted.  The boundary columns
sum the ambient d_columns over a basis vector and read the sum off at the
free words; only the vectors of a leftover Z core go through a
linalg.Solver.  Vects over ambient words are built for the product alone.
"""

from .vectors import Vect, label_str, bilinear
from .coalg import UNIT, DGCoalgebra, tensor_coalgebra
from .cobar import CobarAlgebra, s_letter
from .shfamily import SHFamily, AWCoalgebra, InducedHopf, aw_coproduct
from . import linalg


def bar(label):
    return ("bar", label)


def _is_bar(label):
    return isinstance(label, tuple) and label[:1] == ("bar",)


def path_object(C):
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
    gens, weights, d, delta = {}, {}, {}, {}
    for g, deg in C.gens.items():
        gens[g] = deg
        gens[bar(g)] = deg - 1
        weights[g] = C.weights.get(g, 1)
        weights[bar(g)] = C.weights.get(g, 1)
        d[g] = C.d_of(g) - Vect.basis(ring, bar(g))
        dbar = Vect(ring, [(bar(o), -c) for o, c in C.d_of(g).items()])
        if not dbar.is_zero():
            d[bar(g)] = dbar
        dl = C.delta_red(g)
        if not dl.is_zero():
            delta[g] = dl
            dlbar = Vect(ring)
            for (_, a, b), c in dl.items():
                dlbar.iadd_term(c, ("t", bar(a), b))
                s = -1 if C.degree(a) % 2 else 1
                dlbar.iadd_term(s * c, ("t", a, bar(b)))
            delta[bar(g)] = dlbar
    return DGCoalgebra(ring, C.cutoff, gens, d, delta, weights=weights)


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


def extend_psi(A):
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
                        out.iadd_term(sign * coef, ("t",) + tuple(parts))
                    pre += A.C.degree(e) if e != UNIT else 0
            if not out.is_zero():
                comps[k][bar(g)] = out
    return AWCoalgebra(PC, SHFamily(PC, T, comps))


class _Coaction:
    """What the path-loop and fiber coactions share.  A subclass sets ring,
    cutoff, the word algebras omega and omega_base, and _nu_letter, the
    coaction of one letter over ('t', word, base word), then calls this
    __init__.  nu runs on the codes of the module docstring."""

    def __init__(self):
        A, B = self.omega, self.omega_base
        self._cap = A.cap  # an attribute: nu reads it on every call
        self._codes = [{l: i for i, l in enumerate(om._ordered)}
                       for om in (A, B)]
        self._deg = [A.letters[l] for l in A._ordered]
        self._wt = [A.weights[l] for l in A._ordered]
        self._odd_b = [B.letters[l] % 2 for l in B._ordered]
        self._shapes = set(zip(self._deg, self._wt))
        self._dmin = min(self._deg, default=0)
        self._nu_cache, self._factors, self._odd = {}, {}, {}

    def _encode(self, word, slot=0):
        return tuple(map(self._codes[slot].__getitem__, word[1:]))

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
                val = {(self._encode(u), self._encode(v, 1)): c for (_, u, v),
                       c in self._nu_letter(self.omega._ordered[l]).items()}
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

    def column(self, word):
        """nu(word) - word (x) 1 on codes, for a label word."""
        u = self._encode(word)
        col, key = dict(self.nu(u)), (u, ())
        if col.get(key) == 1:
            del col[key]
        else:
            col[key] = self.ring.norm(col.get(key, 0) - 1)
        return col

    def coaction(self, word):
        """nu of a label word, over ('t', word, base word)."""
        A, B = self.omega._ordered, self.omega_base._ordered
        return Vect(self.ring, [
            (("t", ("w", *map(A.__getitem__, u)),
              ("w", *map(B.__getitem__, v))), c)
            for (u, v), c in self.nu(self._encode(word)).items()])

    def cofixed(self):
        return CofixedSubalgebra(self.omega, self.column)


class PathLoop(_Coaction):
    """The cobar algebra on P(C) with its induced comultiplication and the
    right coaction over Omega C that erases bars.  nu is the product of the
    letter coproducts with their barred second-slot terms dropped."""

    def __init__(self, A):
        self.ring = A.ring
        self.cutoff = A.cutoff
        self.hopf = InducedHopf(extend_psi(A))
        self.omega = self.hopf.omega
        self.base_hopf = InducedHopf(A)
        self.omega_base = self.base_hopf.omega
        super().__init__()

    def _nu_letter(self, letter):
        """(1 (x) Omega pi) psi~ of a letter, over ('t', path-loop word,
        base word): Omega pi erases every term with a barred letter in the
        second slot."""
        return Vect(self.ring, [(t, c) for t, c in self.hopf.psi_letter(
            letter).items() if not any(_is_bar(l[1]) for l in t[2][1:])])

    def kappa(self, vect):
        """The degree -1 derivation of Omega C into the path-loop algebra
        with kappa(s[c]) = -s[bar c]."""
        values = {l: Vect.basis(self.ring, ("w", s_letter(bar(l[1]))), -1)
                  for l in self.omega_base.letters}
        return vect.map_terms(self.omega_base.derivation(values))


class CofixedSubalgebra:
    """The degreewise kernel of a reduced coaction inside a word algebra,
    as a chain complex with a product.

    ambient: a free word algebra (a FreeAlgebra such as a CobarAlgebra),
    whose cutoff and cap the subalgebra takes;
    column: word -> its reduced coaction, a dict row key -> nonzero
    coefficient, such as _Coaction.column.
    With a weight cap, which an ambient alphabet with degree-0 letters
    has, the computation is run per weight block (the coaction and
    differential must preserve the weight for the blocks to be exact; this
    holds in the primitive situations that produce degree-0 letters).

    A degree's ambient words are split by weight block once.  Each block
    keeps its words and its kernel basis, which basis() labels, as
    linalg.kernel's dicts word index -> coefficient, plus a linalg.Solver
    on its core vectors if it has any: together they give the
    coordinates."""

    def __init__(self, ambient, column):
        self.ambient = ambient
        self.ring = ambient.ring
        self.column = column
        self.cutoff = ambient.cutoff
        self.cap = ambient.cap
        self.blocked = self.cap is not None
        self._layouts = {}
        self._kernels = {}
        self._bases = {}
        self._readers = {}

    def _layout(self, n):
        """(word list per block, the ambient index of each of their words,
        and for each ambient word of degree n its block and index there)."""
        if n not in self._layouts:
            words = self.ambient.words(n, self.cap)
            ws = [self.ambient.weight(u) if self.blocked else 0 for u in words]
            amb = [[a for a, w in enumerate(ws) if w == k]
                   for k in range(len(self.blocks(n)))]
            place = {a: (k, j) for k, ix in enumerate(amb)
                     for j, a in enumerate(ix)}
            self._layouts[n] = [[words[a] for a in ix] for ix in amb], amb, place
        return self._layouts[n]

    def _kernel(self, n, w=None):
        """Kernel vectors of the reduced coaction on the (degree, weight)
        block, as dicts word index -> coefficient: the unit vectors in the
        order of their free words, then the core vectors.  Rows are
        numbered as they first appear: the pivots rest on dict order."""
        key = (n, w)
        if key not in self._kernels:
            words = self._layout(n)[0][w or 0]
            rows = {}
            free, vecs = linalg.kernel(
                [{rows.setdefault(l, len(rows)): c
                  for l, c in self.column(u).items()} for u in words],
                self.ring)
            core = vecs[len(free):]
            self._kernels[key] = (words, vecs)
            self._readers[key] = (
                {j: i for i, j in enumerate(free)},
                linalg.Solver(core, range(len(words)), self.ring,
                              "cofixed block") if core else None)
        return self._kernels[key]

    def blocks(self, n):
        return list(range(self.cap + 1)) if self.blocked else [None]

    def basis(self, n):
        """Synthetic labels ('k', n, i) or ('k', n, w, i) per block."""
        if n not in self._bases:
            self._bases[n] = [("k", n, i) if w is None else ("k", n, w, i)
                              for w in self.blocks(n)
                              for i in range(len(self._kernel(n, w)[1]))]
        return self._bases[n]

    def vector_of(self, label):
        n, w, i = (label[1], None, label[2]) if len(label) == 3 else label[1:]
        words, vecs = self._kernel(n, w)
        return Vect(self.ring, {words[j]: c for j, c in vecs[i].items()})

    def rank(self, n):
        return len(self.basis(n))

    def _read(self, n, acc):
        """Coordinates, as a dict basis index -> nonzero coefficient, of
        the vector of degree n with the unreduced sums acc (ambient word
        index -> c), block by block: its coefficients at the free words,
        then the core Solver's coordinates of what the unit vectors leave
        (or a refusal of a remainder)."""
        place = self._layout(n)[2]
        parts = {}
        for a, c in self.ring.reduce(acc).items():
            k, j = place[a]
            parts.setdefault(k, {})[j] = c
        out, blocks = {}, self.blocks(n)
        for k, left in sorted(parts.items()):
            vecs = self._kernel(n, blocks[k])[1]
            free, core = self._readers[(n, blocks[k])]
            start = sum(len(self._kernel(n, w)[1]) for w in blocks[:k])
            for j, c in [(j, c) for j, c in left.items() if j in free]:
                out[start + free[j]] = c
                linalg.add_multiple(left, vecs[free[j]], -c, self.ring)
            if core:
                for i, c in enumerate(core.coordinates(left),
                                      start + len(free)):
                    if c:
                        out[i] = c
            elif left:
                raise ValueError("vector outside the cofixed block")
        return out

    def coordinates(self, n, vect):
        """A Vect over ambient words of degree n in the synthetic basis
        (see _read); terms above the cap dropped, other strays refused."""
        index = {u: a for a, u in enumerate(self.ambient.words(n, self.cap))}
        acc = {}
        for u, c in vect.items():
            if u in index:
                acc[index[u]] = c
            elif not self.blocked or self.ambient.weight(u) <= self.cap:
                raise ValueError("vector leaves the stored block")
        basis = self.basis(n)
        return {basis[i]: c for i, c in self._read(n, acc).items()}

    def columns(self, n):
        """The columns of d_n: each basis vector's sum of the ambient
        d_columns of its words, read off one degree down."""
        d, amb = self.ambient.d_columns(n, self.cap), self._layout(n)[1]
        out = []
        for k, w in enumerate(self.blocks(n)):
            for vec in self._kernel(n, w)[1]:
                acc = {}
                for j, c in vec.items():
                    for r, x in d[amb[k][j]].items():
                        acc[r] = acc.get(r, 0) + c * x
                out.append(self._read(n - 1, acc) if acc else {})
        return out

    def mul_labels(self, l1, l2):
        prod = self.ambient.mul(self.vector_of(l1), self.vector_of(l2))
        return Vect(self.ring, self.coordinates(l1[1] + l2[1], prod))

    def mul(self, u, v):
        return bilinear(self.ring, u, v, self.mul_labels)

    def expand(self, vect):
        """Synthetic coordinates back to ambient words."""
        return vect.map_terms(self.vector_of)

    def to_chain_complex(self):
        from .chain import ChainComplex
        bases = {n: self.basis(n) for n in range(self.cutoff + 1)}
        return ChainComplex(self.ring, bases, self.columns, self.cutoff)


class FiberCoaction(_Coaction):
    """Coaction for the homotopy-fiber model: on the cobar algebra of
    C' (+) P(C), push the second comultiplication slot through the map
    induced by (omega + pi) : C' (+) P(C) -> C.  nu is the product of the
    pushed letter coactions in Omega(C' (+) P(C)) (x) Omega C."""

    def __init__(self, Aprime, A, omega_family):
        self.ring = A.ring
        self.cutoff = min(A.cutoff, Aprime.cutoff)
        self.family = omega_family
        self.hopf = InducedHopf(aw_coproduct(Aprime, extend_psi(A)))
        self.omega = self.hopf.omega
        self.omega_base = CobarAlgebra(A.C)
        self._push = self.omega.algebra_map(
            self._push_letter, self.omega_base.mul, self.omega_base.unit)
        super().__init__()

    def _push_letter(self, letter):
        tag, inner = letter[1]
        if tag == "inl":
            return self.family.induced_letter_value(s_letter(inner))
        if _is_bar(inner):
            return Vect.zero(self.ring)
        return Vect.basis(self.ring, ("w", s_letter(inner)))

    def _nu_letter(self, letter):
        """psi of a letter with its second slot pushed to Omega C."""
        return Vect(self.ring, [
            (("t", u, w2), c * c2)
            for (_, u, v), c in self.hopf.psi_letter(letter).items()
            for w2, c2 in self._push(v).items()])


def identity_family(A):
    """The strict homotopy family of the identity map of C."""
    letter_map = {g: Vect.basis(A.ring, g) for g in A.C.gens}
    return SHFamily.strict(A.C, A.C, letter_map)


def trivial_family(Aprime, A):
    """The strict family of the trivial (basepoint) map C' -> C: zero on
    positive degrees."""
    return SHFamily(Aprime.C, A.C, {})
