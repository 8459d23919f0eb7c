"""Sparse homogeneous vectors over a structured label alphabet.

Labels are strings or nested tuples whose first entry is a constructor tag:
    "x3"                       atomic generator
    ("bar", l)                 desuspended copy in a based-path object
    ("inl", l) / ("inr", l)    direct-sum inclusions
    ("tp", a, b)               generator of a tensor-product coalgebra
    ("s", l)                   cobar letter s^{-1}l
    ("w", l1, ..., lk)         word in a free algebra (("w",) is the unit)
    ("t", l1, ..., lk)         element of a tensor product of modules
    ("br", (v...), w)          iterated-bracket generator of the formal model
    ("k", n, [w,] i)           synthetic basis vector of a cofixed subalgebra
label_key is the canonical total order on labels.  The builders establish
it (word enumeration emits it, the other bases sort by it) and a
ChainComplex keeps the order it is given, so every matrix is deterministic.
"""


def label_key(label):
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, int):
        return (2, label)
    return (1, len(label), tuple(label_key(x) for x in label))


def label_str(label):
    """Human-readable rendering, used in reports and error messages."""
    if isinstance(label, str):
        return label
    tag = label[0]
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
    if tag == "k":
        return "k" + ".".join(str(x) for x in label[1:])
    return repr(label)


class Vect:
    """A sparse linear combination of labels with coefficients in a Ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for label, c in terms.items() if isinstance(terms, dict) else terms:
                self.iadd_term(c, label)

    def iadd_term(self, c, label):
        c = self.ring.norm(c)
        if self.ring.is_zero(c):
            return self
        cur = self.terms.get(label)
        if cur is None:
            self.terms[label] = c
        else:
            new = self.ring.add(cur, c)
            if self.ring.is_zero(new):
                del self.terms[label]
            else:
                self.terms[label] = new
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

    def __add__(self, other):
        out = Vect(self.ring, dict(self.terms))
        for label, c in other.terms.items():
            out.iadd_term(c, label)
        return out

    def __sub__(self, other):
        out = Vect(self.ring, dict(self.terms))
        for label, c in other.terms.items():
            out.iadd_term(self.ring.neg(c), label)
        return out

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.ring.norm(c)
        out = Vect(self.ring)
        if self.ring.is_zero(c):
            return out
        for label, a in self.terms.items():
            out.iadd_term(self.ring.mul(c, a), label)
        return out

    def map_terms(self, fn):
        """Linear extension of fn: label -> Vect."""
        out = Vect(self.ring)
        for label, c in self.terms.items():
            img = fn(label)
            for label2, c2 in img.terms.items():
                out.iadd_term(self.ring.mul(c, c2), label2)
        return out

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
    out = Vect(ring)
    for la, ca in u.terms.items():
        for lb, cb in v.terms.items():
            img = pair_fn(la, lb)
            c = ring.mul(ca, cb)
            for label, c2 in img.terms.items():
                out.iadd_term(ring.mul(c, c2), label)
    return out


def tensor_label(parts):
    return ("t",) + tuple(parts)


def tensor_apply(ring, fs, shifts, degs, tlabel):
    """Apply f_1 (x) ... (x) f_k to a tensor label with Koszul signs.

    fs: component maps label -> Vect; shifts: their degrees; degs: the degree
    of each component of tlabel.  Sign convention:
    (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w).
    """
    parts = tlabel[1:]
    k = len(parts)
    sign_exp = 0
    for j in range(k):
        if shifts[j] % 2:
            sign_exp += sum(degs[i] for i in range(j))
    outs = [fs[j](parts[j]) for j in range(k)]
    result = Vect(ring)
    sign = -1 if sign_exp % 2 else 1

    def rec(j, acc_label, acc_coeff):
        if j == k:
            result.iadd_term(acc_coeff, tensor_label(acc_label))
            return
        for label, c in outs[j].terms.items():
            rec(j + 1, acc_label + [label], ring.mul(acc_coeff, c))

    rec(0, [], ring.norm(sign))
    return result
