"""Free associative graded algebras on a finite alphabet: word bases,
derivation extensions, algebra-map extensions, and the differential on
word indices (d_columns), from which the word complexes are built.

Words are labels ("w", letter, ..., letter); ("w",) is the unit.  Letters may
sit in degree 0 (this happens for cobar constructions on coalgebras that are
connected but not simply connected); such alphabets have infinitely many
words per degree, so enumeration then requires a weight bound.  Every letter
carries a positive integer weight (default 1); weights add along words and
give the finite blocks used for those computations.  An algebra's own cap
is that bound: none for a finite-type alphabet, else its cutoff.
"""

from bisect import bisect_right

from .vectors import Vect, label_key

UNIT_WORD = ("w",)


def concat(w1, w2):
    return ("w",) + w1[1:] + w2[1:]


class FreeAlgebra:
    def __init__(self, ring, cutoff, letters, weights=None):
        """letters: dict letter label -> degree >= 0."""
        self.ring = ring
        self.cutoff = cutoff
        self.letters = dict(letters)
        self.weights = {l: 1 for l in letters}
        if weights:
            for l, w in weights.items():
                if w < 1:
                    raise ValueError("letter weight must be positive")
                self.weights[l] = w
        self._ordered = sorted(self.letters, key=label_key)
        self.cap = None if self.finite_type else cutoff
        self._word_cache = {}
        self._columns = {}

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
            raise ValueError("alphabet has degree-0 letters; enumeration "
                             "needs a weight bound")
        return self._words(n, max_weight)[0]

    def _words(self, n, max_weight):
        """(words(), dict letter l -> (key of the suffix list of l, the
        index of l.u for each u there)), built once from the cached lists
        of its suffixes."""
        key = (n, max_weight)
        if key not in self._word_cache:
            # label_key puts shorter words first, so each suffix list is a
            # run of words per length; the words of one length are l.u for
            # each letter l in order and that length's run of its suffixes
            runs, prefix = {}, {}
            for l in self._ordered:
                d, left = self.letters[l], max_weight
                if left is not None:
                    left -= self.weights[l]
                if d <= n and (left is None or left >= 0):
                    sub = self._words(n - d, left)[0]
                    prefix[l] = (n - d, left), [0] * len(sub)
                    lo = 0
                    while lo < len(sub):
                        hi = bisect_right(sub, len(sub[lo]), lo, key=len)
                        runs.setdefault(len(sub[lo]), []).append(
                            (l, sub, lo, hi))
                        lo = hi
            words = [UNIT_WORD] if n == 0 else []
            for k in sorted(runs):
                for l, sub, lo, hi in runs[k]:
                    at = len(words)
                    prefix[l][1][lo:hi] = range(at, at + hi - lo)
                    words += [("w", l) + u[1:] for u in sub[lo:hi]]
            self._word_cache[key] = words, prefix
        return self._word_cache[key]

    def mul(self, u, v):
        """Bilinear product of two Vects of words."""
        return Vect(self.ring, [(concat(w1, w2), c1 * c2) for w1, c1 in
                                u.terms.items() for w2, c2 in v.terms.items()])

    def unit(self):
        return Vect.basis(self.ring, UNIT_WORD)

    def derivation(self, gen_values):
        """Extend letter values (letter -> Vect of words) to a derivation of
        degree -1.  Each letter value is taken once."""
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
                    sign = -1 if total % 2 else 1
                    pre, post = ("w",) + letters[:j], letters[j + 1:]
                    for w, c in val.terms.items():
                        out.iadd_term(sign * c, pre + w[1:] + post)
                total += self.letters[lj]
            return out
        return apply_word

    def set_differential(self, gen_values):
        """Install d on letters (dict or callable); words get the derivation
        extension."""
        self._diff = self.derivation(gen_values)

    def d_word(self, word):
        return self._diff(word)

    def d_columns(self, n, cap=None):
        """d_n on word indices, built once per (n, cap): for each word of
        words(n, cap), in order, a dict index in words(n - 1, cap) ->
        nonzero coefficient, leaving out terms above the cap.  The column
        of l.u is d(l).u plus (-1)^|l| l.(the column of u), carried over
        by l's prefix map.  No two terms meet: their first letters differ."""
        key = (n, cap)
        if key not in self._columns:
            words, prefix = self._words(n, cap)
            rows, lifts = self._words(n - 1, cap)
            index = {u: i for i, u in enumerate(rows)}
            cols = [{}] * len(words)
            minus = self.ring.p or 0
            for l, (sub, place) in prefix.items():
                below = self.d_columns(*sub)
                heads = [(v[1:], c) for v, c in self.d_word(("w", l)).items()]
                lift = lifts.get(l, (None, None))[1]
                odd = self.letters[l] % 2
                for i, u in enumerate(self._words(*sub)[0]):
                    col = cols[place[i]] = {index.get(("w",) + v + u[1:]): c
                                            for v, c in heads}
                    col.pop(None, None)  # terms above the cap
                    col.update({lift[r]: minus - x if odd else x
                                for r, x in below[i].items()})
            self._columns[key] = cols
        return self._columns[key]

    def algebra_map(self, letter_fn, target_mul, target_unit):
        """Multiplicative extension of letter values into a target algebra."""
        def apply_word(word):
            acc = target_unit()
            for l in word[1:]:
                acc = target_mul(acc, letter_fn(l))
            return acc
        return apply_word

    def to_chain_complex(self):
        """The word complex through the cutoff under the cap, on
        d_columns.  If d raises a letter's weight, a capped one refuses, by
        the label route, what leaves the basis."""
        from .chain import ChainComplex
        cap = self.cap
        bases = {n: self.words(n, cap) for n in range(self.cutoff + 1)}
        if cap is not None and any(
                self.weight(v) > self.weights[l] for l in self.letters
                for v in self.d_word(("w", l)).terms):
            return ChainComplex.from_labels(self.ring, bases, self.d_word,
                                            self.cutoff)
        return ChainComplex(self.ring, bases,
                            lambda n: self.d_columns(n, cap), self.cutoff)
