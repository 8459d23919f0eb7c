"""Model builders and readings that only the tests use: sphere
coalgebras, the double-loop and fiber models together with their
coactions and their reduced coactions over labels, the homotopy diagonals
on P(C) and on a coproduct from which the coactions were once built and
which now serve as their oracle, the tensor square of two cobar algebras
as a chain complex, a complex's Betti numbers, and quasi-isomorphic
variants of a document."""

from loopalg.chain import ChainComplex
from loopalg.coalg import UNIT, DGCoalgebra, direct_sum, tensor_coalgebra
from loopalg.pathloop import PathLoop, FiberCoaction, bar, path_object
from loopalg.shfamily import AWCoalgebra, SHFamily
from loopalg.tensoralg import UNIT_WORD
from loopalg.vectors import Vect, label_key


def sphere_model(n, ring, cutoff, label=None):
    """The coalgebra R + R.x_n of an n-sphere: one primitive generator."""
    if n < 2:
        raise ValueError("sphere model requires n >= 2 (simple connectivity)")
    return DGCoalgebra(ring, cutoff, {label or ("x%d" % n): n},
                       name="sphere%d" % n)


def wedge_contractible(doc, k):
    """A coalgebra document quasi-isomorphic to doc: doc wedged with the
    contractible pair e_{k+1}, f_k, d e = f.  Every loop-space invariant
    of the variant is that of doc."""
    e, f = "e%d" % (k + 1), "f%d" % k
    return dict(doc, name="%s+%s%s" % (doc["name"], e, f),
                generators=doc["generators"] + [
                    {"label": e, "degree": k + 1}, {"label": f, "degree": k}],
                d=dict(doc.get("d") or {}, **{e: [[1, f]]}))


def double_loop(A):
    """The cofixed part of the path-loop algebra under its coaction over
    Omega C, and the path-loop algebra."""
    pl = PathLoop(A)
    return pl.cofixed(), pl


def loop_fiber(Aprime, A, omega_family):
    """Homotopy-fiber model of a map (C', Psi') -> (C, Psi) given by a
    homotopy-coherent family: the cofixed part of Omega(C' (+) P(C))
    under the pushed coaction, and the coaction."""
    fc = FiberCoaction(Aprime, A, omega_family)
    return fc.cofixed(), fc


def extend_psi(A):
    """Extend a homotopy diagonal on C to one on P(C).  Unbarred
    generators keep their components; bar(g) gets every term of Psi_k(g)
    with one slot barred (the unit cannot be barred), with the sign
    (-1)^(pre+k-1): the Koszul sign of moving the degree -1 bar past the
    earlier slots, of total degree pre, and a level correction (-1)^(k-1)
    from the desuspensions of the induced cobar map."""
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
                        # (-1)^(pre+k-1); test_extend_psi_coherent pins it
                        sign = -1 if (pre + k - 1) % 2 else 1
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


def aw_coproduct(A, Ap):
    """Homotopy diagonal on the coproduct coalgebra: each summand keeps its
    own family, pushed through the inclusions."""
    E = direct_sum(A.C, Ap.C)
    TE = tensor_coalgebra(E, E)

    def mk_push(tag):
        def wrap(l):
            return l if l == UNIT else (tag, l)

        def push(label):
            parts = []
            for p in label[1:]:
                (_, a, b) = p
                parts.append(("tp", wrap(a), wrap(b)))
            return Vect.basis(E.ring, ("t",) + tuple(parts))
        return push

    comps = {}
    for tag, src in (("inl", A), ("inr", Ap)):
        push = mk_push(tag)
        for k, table in src.psi.components.items():
            comps.setdefault(k, {})
            for g, v in table.items():
                comps[k][(tag, g)] = v.map_terms(push)
    return AWCoalgebra(E, SHFamily(E, TE, comps))


def reduced_coaction(co):
    """word -> coaction(word) - word (x) 1 of a path-loop or fiber
    coaction, over ('t', word, base word)."""
    return lambda u: co.coaction(u) - Vect.basis(co.ring, ("t", u, UNIT_WORD))


def tensor_square_complex(tsq):
    """Omega A (x) Omega B with the tensor differential, through the
    smaller cutoff, each basis in label_key order."""
    bases = {n: sorted((("t", wa, wb) for p in range(n + 1)
                        for wa in tsq.omA.words(p)
                        for wb in tsq.omB.words(n - p)), key=label_key)
             for n in range(tsq.cutoff + 1)}
    return ChainComplex.from_labels(tsq.ring, bases, tsq.diff, tsq.cutoff)


def betti(cx, lo=0, hi=None):
    """The free ranks of H_lo .. H_hi of a ChainComplex (hi defaults to
    the last reliable degree, cutoff - 1)."""
    hi = cx.cutoff - 1 if hi is None else hi
    return [cx.homology(n).free_rank for n in range(lo, hi + 1)]
