"""Free associative graded algebras on a finite alphabet: word bases,
derivation extensions, algebra-map extensions, and the differential on
word indices (d_columns), from which the word complexes are built.

A letter's code is its index in the label_key order of the letters, a
word the tuple of its letters' codes, () the unit; within one length,
code order is label order.  Letter values are taken on codes, and
label(word), the one decoder, gives ("w", letter, ...) for what a person
reads.  Letters may sit in degree 0 (this happens for cobar
constructions on coalgebras that are connected but not simply
connected); such alphabets have infinitely many words per degree, so
enumeration then requires a weight bound.  Every letter carries a
positive integer weight (default 1); weights add along words, and a
bound on them keeps those computations finite.  An algebra's own cap is
that bound: none for a finite-type alphabet, else its cutoff.
"""

from bisect import bisect_right

from .vectors import Vect, label_key


class FreeAlgebra:
    def __init__(self, ring, cutoff, letters, weights=None):
        """letters: dict letter label -> degree >= 0."""
        self.ring = ring
        self.cutoff = cutoff
        self.letters = dict(letters)
        weights = weights or {}
        if any(w < 1 for w in weights.values()):
            raise ValueError("letter weight must be positive")
        self._ordered = sorted(self.letters, key=label_key)
        self.code = {l: i for i, l in enumerate(self._ordered)}
        self.deg = [self.letters[l] for l in self._ordered]
        self.wt = [weights.get(l, 1) for l in self._ordered]
        self.cap = None if self.finite_type else cutoff
        self._word_cache = {}
        self._columns = {}

    @property
    def finite_type(self):
        return all(d >= 1 for d in self.deg)

    def label(self, word):
        """The label ("w", letter, ...) of a word, for what a person reads."""
        return ("w",) + tuple(map(self._ordered.__getitem__, word))

    def degree(self, word):
        return sum(map(self.deg.__getitem__, word))

    def weight(self, word):
        return sum(map(self.wt.__getitem__, word))

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
            # shorter words come first, so each suffix list is a run of
            # words per length; the words of one length are l.u for each
            # letter l in order and that length's run of its suffixes
            runs, prefix = {}, {}
            for l, d in enumerate(self.deg):
                left = max_weight
                if left is not None:
                    left -= self.wt[l]
                if d <= n and (left is None or left >= 0):
                    sub = self._words(n - d, left)[0]
                    prefix[l] = (n - d, left), [0] * len(sub)
                    lo = 0
                    while lo < len(sub):
                        hi = bisect_right(sub, len(sub[lo]), lo, key=len)
                        runs.setdefault(len(sub[lo]), []).append(
                            (l, sub, lo, hi))
                        lo = hi
            words = [()] if n == 0 else []
            for k in sorted(runs):
                for l, sub, lo, hi in runs[k]:
                    at = len(words)
                    prefix[l][1][lo:hi] = range(at, at + hi - lo)
                    words += [(l,) + u for u in sub[lo:hi]]
            self._word_cache[key] = words, prefix
        return self._word_cache[key]

    def mul(self, u, v):
        """Bilinear product of two Vects of words."""
        return Vect(self.ring, [(w1 + w2, c1 * c2) for w1, c1 in
                                u.terms.items() for w2, c2 in v.terms.items()])

    def unit(self):
        return Vect.basis(self.ring, ())

    def derivation(self, gen_values):
        """Extend letter values (letter code -> Vect of words, a dict or a
        callable) to a derivation of degree -1.  Each letter value is
        taken once."""
        values = {}

        def apply_word(word):
            out = Vect(self.ring)
            total = 0
            for j, lj in enumerate(word):
                if lj not in values:
                    values[lj] = gen_values(lj) if callable(gen_values) else \
                        gen_values.get(lj, Vect.zero(self.ring))
                val = values[lj]
                if not val.is_zero():
                    sign = -1 if total % 2 else 1
                    pre, post = word[:j], word[j + 1:]
                    for w, c in val.terms.items():
                        out.iadd_term(sign * c, pre + w + post)
                total += self.deg[lj]
            return out
        return apply_word

    def set_differential(self, gen_values):
        """Install d on letter codes (dict or callable); words get the
        derivation extension."""
        self._diff = self.derivation(gen_values)

    def d_word(self, word):
        return self._diff(word)

    def d_columns(self, n, cap=None):
        """d_n on word indices: for each word of words(n, cap), in order,
        a dict index in words(n - 1, cap) -> nonzero coefficient, leaving
        out terms above the cap.  The column of l.u is d(l).u plus
        (-1)^|l| l.(the column of u), carried over by l's prefix map.  No
        two terms meet: their first letters differ.  Each (n, cap) is
        built once and kept, except at the algebra's own cap: the suffix
        recursion reads only lower bounds, so that list, which its one
        reader (a chain complex) keeps, is returned unstored."""
        key = (n, cap)
        if key not in self._columns:
            words, prefix = self._words(n, cap)
            rows, lifts = self._words(n - 1, cap)
            index = {u: i for i, u in enumerate(rows)}
            cols = [{}] * len(words)
            minus = self.ring.p or 0
            for l, (sub, place) in prefix.items():
                below = self.d_columns(*sub)
                heads = self.d_word((l,)).terms.items()
                lift = lifts.get(l, (None, None))[1]
                odd = self.deg[l] % 2
                for i, u in enumerate(self._words(*sub)[0]):
                    col = cols[place[i]] = {index.get(v + u): c
                                            for v, c in heads}
                    col.pop(None, None)  # terms above the cap
                    col.update({lift[r]: minus - x if odd else x
                                for r, x in below[i].items()})
            if cap is not None and cap == self.cap:
                return cols
            self._columns[key] = cols
        return self._columns[key]

    def algebra_map(self, letter_fn, target_mul, target_unit):
        """Multiplicative extension of letter values (on codes) into a
        target algebra."""
        def apply_word(word):
            acc = target_unit()
            for l in word:
                acc = target_mul(acc, letter_fn(l))
            return acc
        return apply_word

    def to_chain_complex(self):
        """The word complex through the cutoff under the cap, on
        d_columns, its words read through label.  If d raises a letter's
        weight, a capped one refuses, by the label route, what leaves the
        basis."""
        from .chain import ChainComplex
        cap = self.cap
        bases = {n: self.words(n, cap) for n in range(self.cutoff + 1)}
        if cap is not None and any(
                self.weight(v) > w for l, w in enumerate(self.wt)
                for v in self.d_word((l,)).terms):
            return ChainComplex.from_labels(self.ring, bases, self.d_word,
                                            self.cutoff, self.label)
        return ChainComplex(self.ring, bases,
                            lambda n: self.d_columns(n, cap), self.cutoff,
                            self.label)
