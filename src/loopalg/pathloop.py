"""Based-path objects and the loop-space tower.

P(C) adjoins an acyclibility partner bar(c) for every generator: d(c) picks
up -bar(c) and d(bar(c)) = -bar(dc); the comultiplication of bar(c) spreads
the bar across the tensor factors of Delta(c) with Koszul signs.

The path-loop algebra is the cobar construction on P(C); it right-coacts
on itself over Omega C, with psi the comultiplication of Omega C that the
homotopy diagonal induces: nu(s[c]) = (iota (x) 1)psi(s[c]) and
nu(s[bar c]) = -(kappa (x) 1)psi(s[c]), kappa the derivation with
kappa(s[c]) = -s[bar c], so that nu kappa = (kappa (x) 1)psi holds on
letters.  The cofixed part of that coaction is the double-loop model;
on the cobar algebra of the coproduct of a source coalgebra C' with
P(C), along a map theta to C, the same letter rule on P(C) and
nu(s[x]) = (1 (x) ind theta)psi'(s[x]) on C' yield the homotopy-fiber
model.  Both coactions run on the coaction engine of shfamily, as
psi itself does (the regular coaction of Omega C): nu is built prefix by
prefix from letter values prepared once, on int codes, and the letters
of Omega C and their partners read psi(s[c]) off the base Hopf algebra's
nu on codes.

Both ambient algebras M contain Omega C, on their unbarred (for the
fiber, inr) letters, where nu is its comultiplication; where that is
coassociative and nu a coaction (the commands check both), M is a right
Hopf module over Omega C.  By the fundamental theorem of Hopf modules,
P(m) = sum m_(0) S(m_(1)), with S the antipode, projects M onto its
cofixed part, and the P(w) of the start words (the empty word and the
words that end outside Omega C) are a basis of it, over Z as over a
field: P(w) - w ends in Omega C, so a cofixed vector's coordinates are
its coefficients at the start words.
"""

from .vectors import Vect, label_str, bilinear
from .coalg import DGCoalgebra, direct_sum
from .cobar import CobarAlgebra, s_letter
from .shfamily import SHFamily, Coaction


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


class _Coaction(Coaction):
    """A Coaction whose omega also holds the partner s[bar c] of each
    letter s[c] of omega_base: __init__ takes include and barred, the
    letters of omega that s[c] and s[bar c] are, and _nu_letter adds the
    barred-letter rule of the module docstring; a subclass with other
    letters extends it."""

    def __init__(self, include, barred):
        super().__init__(include)
        B = self.omega_base
        # bars: base code -> omega code of the partner; _unbar its inverse
        self._bars = [self._codes[0][barred(l)] for l in B._ordered]
        self._unbar = {a: b for b, a in enumerate(self._bars)}

    def _nu_letter(self, l):
        """nu of the letter code l of Omega C or of a barred letter.  On a
        term c s[a_1]..s[a_k] (x) v of psi(s[c]), -(kappa (x) 1) bars each
        a_j in turn, with the sign of the letters before it."""
        b = self._unbar.get(l)
        if b is None:
            return super()._nu_letter(l)
        terms, odd, iota = {}, self._odd_b, self._iota
        for (u, v), c in self.base_hopf.nu((b,)).items():
            word, pre = tuple(map(iota.__getitem__, u)), 0
            for j, a in enumerate(u):
                key = (word[:j] + (self._bars[a],) + word[j + 1:], v)
                terms[key] = terms.get(key, 0) + (-c if pre else c)
                pre ^= odd[a]
        return self.ring.reduce(terms)

    def cofixed(self):
        return CofixedSubalgebra(self)


class PathLoop(_Coaction):
    """The cobar algebra on P(C) and its right coaction over Omega C, nu
    the product of the letter values of the module docstring."""

    def __init__(self, A):
        self.ring = A.ring
        self.cutoff = A.cutoff
        self.omega = CobarAlgebra(path_object(A.C))
        self.base_hopf = A.hopf
        self.omega_base = self.base_hopf.omega
        super().__init__(lambda letter: letter,
                         lambda letter: s_letter(bar(letter[1])))

    def kappa(self, vect):
        """The degree -1 derivation of Omega C into the path-loop algebra
        with kappa(s[c]) = -s[bar c]."""
        values = {l: Vect.basis(self.ring, ("w", s_letter(bar(l[1]))), -1)
                  for l in self.omega_base.letters}
        return vect.map_terms(self.omega_base.derivation(values))


class CofixedSubalgebra:
    """The cofixed part of a coaction's word algebra, degree by degree, as
    a chain complex with a product; it takes the cutoff and cap of the
    coaction's omega, the ambient algebra.

    Degree n is spanned by the P(w) of its start words under the cap (see
    the module docstring), dicts word index -> coefficient over the
    ambient words of degree n, which basis() labels.  P keeps the weight
    where the coaction does, and the capped P(w) span a subcomplex where
    d does too, as in the primitive situations that produce degree-0
    letters; DGCoalgebra does not check a document's weights, and terms
    above the cap are left out."""

    def __init__(self, coaction):
        self.coaction = coaction
        self.ambient = coaction.omega
        self.ring = self.ambient.ring
        self.cutoff = self.ambient.cutoff
        self.cap = self.ambient.cap
        self._kernels = {}
        self._starts = {}
        self._bases = {}

    def _kernel(self, n):
        """(the ambient words of degree n under the cap, the P(w) of its
        start words w in word order, as dicts word index -> coefficient).
        _starts[n] maps a start word's index to its basis index."""
        key = (n, None)
        if key not in self._kernels:
            co = self.coaction
            words = self.ambient.words(n, self.cap)
            index = {co._encode(u): j for j, u in enumerate(words)}
            starts, vecs = {}, []
            for u, j in index.items():
                if not u or u[-1] not in co._base:
                    starts[j] = len(vecs)
                    vecs.append({index[v]: c for v, c in co.project(u).items()
                                 if v in index})
            self._kernels[key] = (words, vecs)
            self._starts[n] = starts
        return self._kernels[key]

    def blocks(self, n):
        """[None], the one key per degree of _kernels, (n, None).  Only
        the benchmark tracer reads blocks and _kernels."""
        return [None]

    def basis(self, n):
        """Synthetic labels ('k', n, i)."""
        if n not in self._bases:
            self._bases[n] = [("k", n, i)
                              for i in range(len(self._kernel(n)[1]))]
        return self._bases[n]

    def vector_of(self, label):
        words, vecs = self._kernel(label[1])
        return Vect(self.ring, {words[j]: c for j, c in vecs[label[2]].items()})

    def rank(self, n):
        return len(self.basis(n))

    def coordinates(self, n, vect):
        """A cofixed Vect over ambient words of degree n in the synthetic
        basis: its coefficients at the start words; terms above the cap
        dropped, other strays refused."""
        words = self._kernel(n)[0]
        index = {u: j for j, u in enumerate(words)}
        starts, basis, out = self._starts[n], self.basis(n), {}
        for u, c in vect.items():
            j = index.get(u)
            if j is None:
                if self.cap is None or self.ambient.weight(u) <= self.cap:
                    raise ValueError("vector leaves the stored block")
            elif j in starts:
                out[basis[starts[j]]] = c
        return out

    def columns(self, n):
        """The columns of d_n: each P(w)'s sum of the ambient d_columns of
        its words, read at the start words one degree down."""
        d = self.ambient.d_columns(n, self.cap)
        if n:
            self._kernel(n - 1)  # fills _starts[n - 1]
        rows, out = self._starts.get(n - 1, {}), []
        for vec in self._kernel(n)[1]:
            acc = {}
            for j, c in vec.items():
                for r, x in d[j].items():
                    i = rows.get(r)
                    if i is not None:
                        acc[i] = acc.get(i, 0) + c * x
            out.append(self.ring.reduce(acc))
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
    """Coaction for the homotopy-fiber model of a map theta: C' -> C, on
    the cobar algebra of C' (+) P(C).  Its inr letters take the path-loop
    rule; an inl letter takes (inl (x) ind theta)psi', psi' the
    comultiplication of Omega C' and ind theta the cobar map of the
    family."""

    def __init__(self, Aprime, A, omega_family):
        self.ring = A.ring
        self.cutoff = min(A.cutoff, Aprime.cutoff)
        self.family = omega_family
        self.omega = CobarAlgebra(direct_sum(Aprime.C, path_object(A.C)))
        self.base_hopf = A.hopf
        self.omega_base = self.base_hopf.omega
        self.source_hopf = Aprime.hopf
        self._theta = omega_family.induced_map(self.source_hopf.omega,
                                               self.omega_base)
        super().__init__(lambda letter: s_letter(("inr", letter[1])),
                         lambda letter: s_letter(("inr", bar(letter[1]))))

    def _nu_letter(self, l):
        tag, x = self.omega._ordered[l][1]
        if tag == "inr":
            return super()._nu_letter(l)
        terms, inl = {}, self._codes[0]
        for (_, u, v), c in self.source_hopf.psi(("w", s_letter(x))).items():
            left = tuple(inl[s_letter(("inl", a[1]))] for a in u[1:])
            for w, cw in self._theta(v).items():
                key = (left, self._encode(w, 1))
                terms[key] = terms.get(key, 0) + c * cw
        return self.ring.reduce(terms)


def identity_family(A):
    """The strict homotopy family of the identity map of C."""
    letter_map = {g: Vect.basis(A.ring, g) for g in A.C.gens}
    return SHFamily.strict(A.C, A.C, letter_map)


def trivial_family(Aprime, A):
    """The strict family of the trivial (basepoint) map C' -> C: zero on
    positive degrees."""
    return SHFamily(Aprime.C, A.C, {})
