"""Free associative graded algebras on a finite alphabet: word bases,
derivation extensions, and algebra-map extensions.

Words are labels ("w", letter, ..., letter); ("w",) is the unit.  Letters may
sit in degree 0 (this happens for cobar constructions on coalgebras that are
connected but not simply connected); such alphabets have infinitely many
words per degree, so enumeration then requires a weight bound.  Every letter
carries a positive integer weight (default 1); weights add along words and
give the finite blocks used for those computations.
"""

from .vectors import Vect, label_key

UNIT_WORD = ("w",)


def concat(w1, w2):
    return ("w",) + w1[1:] + w2[1:]


class FreeAlgebra:
    def __init__(self, ring, cutoff, letters, weights=None, name=""):
        """letters: dict letter label -> degree >= 0."""
        self.ring = ring
        self.cutoff = cutoff
        self.name = name
        self.letters = dict(letters)
        self.weights = {l: 1 for l in letters}
        if weights:
            for l, w in weights.items():
                if w < 1:
                    raise ValueError("letter weight must be positive")
                self.weights[l] = w
        self._ordered = sorted(self.letters, key=label_key)
        self._word_cache = {}

    @property
    def finite_type(self):
        return all(d >= 1 for d in self.letters.values())

    def degree(self, word):
        return sum(self.letters[l] for l in word[1:])

    def weight(self, word):
        return sum(self.weights[l] for l in word[1:])

    def words(self, n, max_weight=None):
        """All words of degree n (with total weight <= max_weight if given),
        in label_key order.  Requires a weight bound when the alphabet has
        degree-0 letters."""
        if max_weight is None and not self.finite_type:
            raise ValueError(
                "alphabet of %s has degree-0 letters; enumeration needs "
                "a weight bound" % (self.name or "free algebra"))
        key = (n, max_weight)
        if key in self._word_cache:
            return self._word_cache[key]
        out = []

        def rec(prefix, deg_left, weight_left):
            if deg_left == 0:
                out.append(("w",) + tuple(prefix))
            for l in self._ordered:
                d = self.letters[l]
                w = self.weights[l]
                if d > deg_left:
                    continue
                if weight_left is not None and w > weight_left:
                    continue
                prefix.append(l)
                rec(prefix, deg_left - d, None if weight_left is None else weight_left - w)
                prefix.pop()

        rec([], n, max_weight)
        # the walk takes letters in label_key order, so the words of each
        # length come out in label_key order; label_key puts shorter words
        # first, and the sort by length is stable
        out.sort(key=len)
        self._word_cache[key] = out
        return out

    def mul(self, u, v):
        """Bilinear product of two Vects of words."""
        out = Vect(self.ring)
        for w1, c1 in u.terms.items():
            for w2, c2 in v.terms.items():
                out.iadd_term(self.ring.mul(c1, c2), concat(w1, w2))
        return out

    def unit(self):
        return Vect.basis(self.ring, UNIT_WORD)

    def derivation(self, gen_values, shift, relabel=None):
        """Extend letter values (letter -> Vect of words) to a derivation of
        the given degree shift.  If relabel is given, letters left untouched
        by the derivation are mapped through it (an (f,f)-derivation into
        another word algebra).  Each letter value is taken once."""
        values = {}

        def apply_word(word):
            letters = word[1:]
            out = Vect(self.ring)
            total = 0
            for j, lj in enumerate(letters):
                if lj not in values:
                    values[lj] = gen_values(lj) if callable(gen_values) else \
                        gen_values.get(lj, Vect.zero(self.ring))
                val = values[lj]
                if not val.is_zero():
                    sign = -1 if (shift % 2) and (total % 2) else 1
                    if relabel is None:
                        pre = letters[:j]
                        post = letters[j + 1:]
                    else:
                        pre = tuple(relabel(x) for x in letters[:j])
                        post = tuple(relabel(x) for x in letters[j + 1:])
                    for w, c in val.terms.items():
                        new = ("w",) + pre + w[1:] + post
                        out.iadd_term(self.ring.mul(sign, c), new)
                total += self.letters[lj]
            return out
        return apply_word

    def set_differential(self, gen_values):
        """Install d on letters (dict or callable); words get the derivation
        extension."""
        self._diff = self.derivation(gen_values, -1)

    def d_word(self, word):
        return self._diff(word)

    def d_vect(self, vect):
        return vect.map_terms(self._diff)

    def algebra_map(self, letter_fn, target_mul, target_unit):
        """Multiplicative extension of letter values into a target algebra."""
        def apply_word(word):
            acc = target_unit()
            for l in word[1:]:
                acc = target_mul(acc, letter_fn(l))
            return acc
        return apply_word

    def to_chain_complex(self, max_weight=None, top=None, name=""):
        from .chain import ChainComplex
        top = self.cutoff if top is None else top
        bases = {n: self.words(n, max_weight) for n in range(top + 1)}
        return ChainComplex(self.ring, bases, self.d_word, self.cutoff,
                            name=name or self.name)
