"""Exact coefficient rings: integers, rationals, and prime fields.

Coefficients are plain Python values in one normal form per ring: int for
Z, Fraction for Q, and int in [0, p) for F_p, so a normal value is zero
exactly when it is falsy.  Arithmetic is Python's own: callers add and
multiply normal values and bring the result back to normal form once,
with norm for one value or reduce for a dict of sums.  inv gives the
inverse of a unit.
"""

from fractions import Fraction


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Miller-Rabin on the first 12 primes as bases, which decides every
    p below 3.1e23; Ring refuses p >= 2^64."""
    if p < 2 or any(p % b == 0 for b in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        # b^d, b^2d, ..., b^(2^(s-1) d): a prime p gives 1 first or -1
        seq = [pow(b, d << i, p) for i in range(s)]
        if seq[0] != 1 and p - 1 not in seq:
            return False
    return True


class Ring:
    """An exact coefficient ring: 'Z', 'Q', or 'Fp' with a prime p."""

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError("unknown ring kind %r" % (kind,))
        if kind == "Fp":
            if p is not None and p >= 2 ** 64:
                raise ValueError("Fp requires p below 2^64, got %d" % p)
            if p is None or not _is_prime(p):
                raise ValueError("Fp requires a prime p, got %r" % (p,))
        elif p is not None:
            raise ValueError("p only makes sense for Fp")
        self.kind = kind
        self.p = p

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def norm(self, c):
        """The normal form of an int or Fraction, such as a sum or product
        of normal values.  Raises ValueError on a non-integral Fraction
        over Z."""
        if type(c) is int and self.kind != "Q":
            return c if self.kind == "Z" else c % self.p
        if self.kind == "Z":
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError("non-integral coefficient over Z: %s" % c)
                return int(c)
            return int(c)
        if self.kind == "Q":
            return Fraction(c)
        if isinstance(c, Fraction):
            num, den = c.numerator, c.denominator
            return (num * pow(den, -1, self.p)) % self.p
        return int(c) % self.p

    def reduce(self, sums):
        """The nonzero normal forms in a dict of unreduced sums."""
        if self.kind == "Fp":
            return {k: c % self.p for k, c in sums.items() if c % self.p}
        return {k: c for k, c in sums.items() if c}

    def inv(self, a):
        if self.kind == "Q":
            return 1 / Fraction(a)
        if self.kind == "Fp":
            return pow(int(a), -1, self.p)
        if a in (1, -1):
            return a
        raise ValueError("nonunit %r over Z" % (a,))

    @property
    def name(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        return "F2" if self.p == 2 else "Fp:%d" % self.p

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Ring(%s)" % self.name


ZZ = Ring("Z")
QQ = Ring("Q")
F2 = Ring("Fp", 2)


def ring_from_name(name):
    """Parse a ring name: 'Z', 'Q', 'F2', or 'Fp:<p>'."""
    name = name.strip()
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name == "F2":
        return F2
    if name.startswith("Fp:") and name[3:].isdecimal():
        return Ring("Fp", int(name[3:]))
    raise ValueError("cannot parse ring name %r" % (name,))
