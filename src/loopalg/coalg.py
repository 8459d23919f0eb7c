"""Differential graded coalgebras presented by generators in positive
degrees, with the unit/counit implicit and comultiplications stored reduced.

The label "1" is reserved for the implicit unit wherever a formula needs it
(full comultiplications, coactions); it never appears in a stored basis.
"""

from .vectors import Vect, tensor_apply


UNIT = "1"


class DGCoalgebra:
    def __init__(self, ring, cutoff, gens, d=None, delta=None, name="",
                 weights=None):
        """gens: dict label -> positive degree; d: dict label -> Vect over
        gens (degree -1); delta: dict label -> Vect over ('t', a, b) pairs of
        generators (the reduced comultiplication).  weights: optional dict
        label -> positive integer, an auxiliary grading preserved by d and
        delta; cobar constructions on this coalgebra inherit it, which keeps
        degreewise computations finite when cobar letters land in degree 0."""
        self.ring = ring
        self.cutoff = cutoff
        self.name = name
        self.gens = {}
        for label, deg in gens.items():
            if deg < 1:
                raise ValueError("generator %r in nonpositive degree %d" % (label, deg))
            if deg <= cutoff:
                self.gens[label] = deg
        self.weights = {l: 1 for l in self.gens}
        if weights:
            for l, w in weights.items():
                if l in self.gens:
                    self.weights[l] = w
        self.d_map = {l: v for l, v in (d or {}).items() if l in self.gens}
        self.delta_map = {l: v for l, v in (delta or {}).items() if l in self.gens}

    def degree(self, label):
        if label == UNIT:
            return 0
        return self.gens[label]

    def d_of(self, label):
        if label == UNIT:
            return Vect.zero(self.ring)
        return self.d_map.get(label, Vect.zero(self.ring))

    def delta_red(self, label):
        """Reduced comultiplication, a Vect over ('t', a, b) with a, b
        generators."""
        if label == UNIT:
            return Vect.zero(self.ring)
        return self.delta_map.get(label, Vect.zero(self.ring))

    def delta_full(self, label):
        """Full comultiplication including the primitive part, over
        ('t', a, b) with a, b generators or the unit."""
        if label == UNIT:
            return Vect.basis(self.ring, ("t", UNIT, UNIT))
        out = Vect.basis(self.ring, ("t", label, UNIT))
        out.iadd_term(1, ("t", UNIT, label))
        return out + self.delta_red(label)

    def verify(self):
        """Check co-Leibniz and coassociativity on every generator.
        Returns (ok, list of (kind, generator, residue))."""
        problems = []
        ident = lambda l: Vect.basis(self.ring, l)
        for label in self.gens:
            # degree bookkeeping of stored values
            for out, _ in self.d_of(label).items():
                if self.degree(out) != self.degree(label) - 1:
                    problems.append(("d-degree", label, out))
            for out, _ in self.delta_red(label).items():
                if self.degree(out[1]) + self.degree(out[2]) != self.degree(label):
                    problems.append(("delta-degree", label, out))
            # co-Leibniz (reduced form)
            lhs = self.d_of(label).map_terms(self.delta_red)
            rhs = self.delta_red(label).map_terms(
                lambda t: tensor_apply(self.ring, [self.d_of, ident], [-1, 0],
                                       [self.degree(t[1]), self.degree(t[2])], t)
                + tensor_apply(self.ring, [ident, self.d_of], [0, -1],
                               [self.degree(t[1]), self.degree(t[2])], t))
            if not (lhs - rhs).is_zero():
                problems.append(("co-Leibniz", label, lhs - rhs))
            # coassociativity of the reduced comultiplication
            left = Vect(self.ring)
            right = Vect(self.ring)
            for (_, a, b), c in self.delta_red(label).items():
                for (_, a1, a2), c2 in self.delta_red(a).items():
                    left.iadd_term(c * c2, ("t", a1, a2, b))
                for (_, b1, b2), c2 in self.delta_red(b).items():
                    right.iadd_term(c * c2, ("t", a, b1, b2))
            if not (left - right).is_zero():
                problems.append(("coassociativity", label, left - right))
        return (not problems), problems


def _pair(a, b):
    return ("tp", a, b)


def _pair_label(a, b):
    """Pair label with units collapsed: (1,1) is the unit itself."""
    if a == UNIT and b == UNIT:
        return UNIT
    return _pair(a, b)


def tensor_coalgebra(C, Cp):
    """Tensor product coalgebra with generators ('tp', a, b); the Koszul
    shuffle comultiplication and the tensor differential."""
    if C.ring != Cp.ring:
        raise ValueError("coefficient rings differ")
    ring = C.ring
    cutoff = min(C.cutoff, Cp.cutoff)
    gens = {}
    weights = {}
    for a, da in list(C.gens.items()) + [(UNIT, 0)]:
        for b, db in list(Cp.gens.items()) + [(UNIT, 0)]:
            if a == UNIT and b == UNIT:
                continue
            if da + db <= cutoff:
                gens[_pair(a, b)] = da + db
                weights[_pair(a, b)] = (C.weights.get(a, 0)
                                        + Cp.weights.get(b, 0))
    d = {}
    delta = {}
    for (tag, a, b) in gens:
        label = _pair(a, b)
        dv = Vect(ring)
        for out, c in C.d_of(a).items():
            dv.iadd_term(c, _pair(out, b))
        sign = -1 if C.degree(a) % 2 else 1
        for out, c in Cp.d_of(b).items():
            dv.iadd_term(sign * c, _pair(a, out))
        if not dv.is_zero():
            d[label] = dv
        # Delta(a@b) = sum (-1)^{|b1||a2|} (a1@b1) (x) (a2@b2), then reduced
        dl = Vect(ring)
        for (_, a1, a2), ca in C.delta_full(a).items():
            for (_, b1, b2), cb in Cp.delta_full(b).items():
                left = _pair_label(a1, b1)
                right = _pair_label(a2, b2)
                if left == UNIT or right == UNIT:
                    continue
                s = -1 if (Cp.degree(b1) * C.degree(a2)) % 2 else 1
                dl.iadd_term(s * ca * cb, ("t", left, right))
        if not dl.is_zero():
            delta[label] = dl
    return DGCoalgebra(ring, cutoff, gens, d, delta, weights=weights)


def direct_sum(C, Cp):
    """Coproduct of coaugmented coalgebras: generators tagged inl/inr."""
    if C.ring != Cp.ring:
        raise ValueError("coefficient rings differ")
    ring = C.ring
    cutoff = min(C.cutoff, Cp.cutoff)
    gens = {}
    weights = {}
    d = {}
    delta = {}
    for tag, src in (("inl", C), ("inr", Cp)):
        wrap = lambda l, tag=tag: (tag, l)
        for g, deg in src.gens.items():
            gens[wrap(g)] = deg
            weights[wrap(g)] = src.weights.get(g, 1)
            dv = Vect(ring, [(wrap(o), c) for o, c in src.d_of(g).items()])
            if not dv.is_zero():
                d[wrap(g)] = dv
            dl = Vect(ring, [((("t", wrap(t[1]), wrap(t[2]))), c)
                             for t, c in src.delta_red(g).items()])
            if not dl.is_zero():
                delta[wrap(g)] = dl
    return DGCoalgebra(ring, cutoff, gens, d, delta, weights=weights)
