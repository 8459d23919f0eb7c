"""Sparse homogeneous vectors over a structured label alphabet.

Labels are strings or nested tuples whose first entry is a constructor tag:
    "x3"                       atomic generator
    ("bar", l)                 desuspended copy in a based-path object
    ("inl", l) / ("inr", l)    direct-sum inclusions
    ("tp", a, b)               generator of a tensor-product coalgebra
    ("s", l)                   cobar letter s^{-1}l
    ("w", l1, ..., lk)         a free-algebra word as read (("w",) the unit),
                               stored as the tuple of its letter codes
    ("t", l1, ..., lk)         element of a tensor product of modules
    ("br", (v...), w)          iterated-bracket generator of the formal model
label_key is the canonical total order on labels.  The builders establish
it (word enumeration emits it, the other bases sort by it) and a
ChainComplex keeps the order it is given, so every matrix is deterministic.

A Vect keeps its coefficients in the ring's normal form (see rings):
iadd_term normalizes each new sum, and sums, scalings, linear and
bilinear extensions add raw products of normal values into a dict that
Ring.reduce brings to normal form once.
"""


def label_key(label):
    """The sort key of a label."""
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, int):
        return (2, label)
    return (1, len(label), tuple(label_key(x) for x in label))


def label_str(label):
    """Human-readable rendering, used in reports and error messages."""
    if isinstance(label, str):
        return label
    tag = label[:1] and label[0]  # a word of codes has no tag
    if tag == "bar":
        return "bar(%s)" % label_str(label[1])
    if tag == "inl":
        return "L." + label_str(label[1])
    if tag == "inr":
        return "R." + label_str(label[1])
    if tag == "tp":
        return "(%s&%s)" % (label_str(label[1]), label_str(label[2]))
    if tag == "s":
        return "s[%s]" % label_str(label[1])
    if tag == "w":
        return "1" if len(label) == 1 else "|".join(label_str(x) for x in label[1:])
    if tag == "t":
        return "(" + " (x) ".join(label_str(x) for x in label[1:]) + ")"
    if tag == "br":
        out = label_str(label[2])
        for v in reversed(label[1]):
            out = "[%s,%s]" % (label_str(v), out)
        return out
    return repr(label)


class Vect:
    """A sparse linear combination of labels with coefficients in a Ring,
    stored as a dict label -> nonzero normal coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for label, c in terms.items() if isinstance(terms, dict) else terms:
                self.iadd_term(c, label)

    @classmethod
    def from_sums(cls, ring, sums):
        """The Vect of a dict label -> sum of products of normal values,
        brought to normal form once."""
        out = cls(ring)
        out.terms = ring.reduce(sums)
        return out

    def iadd_term(self, c, label):
        """Add c, an int or Fraction, at label, normalizing the new sum."""
        c = self.ring.norm(self.terms.get(label, 0) + c)
        if c:
            self.terms[label] = c
        else:
            self.terms.pop(label, None)
        return self

    @classmethod
    def basis(cls, ring, label, c=1):
        v = cls(ring)
        v.iadd_term(c, label)
        return v

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def _plus(self, other, f):
        sums = dict(self.terms)
        for label, c in other.terms.items():
            sums[label] = sums.get(label, 0) + f * c
        return Vect.from_sums(self.ring, sums)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        c = self.ring.norm(c)
        return Vect.from_sums(self.ring,
                              {label: c * a for label, a in self.terms.items()})

    def map_terms(self, fn):
        """Linear extension of fn: label -> Vect."""
        sums = {}
        for label, c in self.terms.items():
            for label2, c2 in fn(label).terms.items():
                sums[label2] = sums.get(label2, 0) + c * c2
        return Vect.from_sums(self.ring, sums)

    def __eq__(self, other):
        return isinstance(other, Vect) and self.ring == other.ring and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for label, c in sorted(self.terms.items(),
                               key=lambda kv: label_key(kv[0])):
            bits.append("%s*%s" % (c, label_str(label)))
        return " + ".join(bits)


def bilinear(ring, u, v, pair_fn):
    """Bilinear extension of pair_fn: (label, label) -> Vect."""
    sums = {}
    for la, ca in u.terms.items():
        for lb, cb in v.terms.items():
            c = ca * cb
            for label, c2 in pair_fn(la, lb).terms.items():
                sums[label] = sums.get(label, 0) + c * c2
    return Vect.from_sums(ring, sums)

