"""Model builders and readings that only the tests use: sphere
coalgebras, the double-loop and fiber models together with their
coactions and their reduced coactions over labels, the tensor square of
two cobar algebras as a chain complex, and a complex's Betti numbers."""

from loopalg.chain import ChainComplex
from loopalg.coalg import DGCoalgebra
from loopalg.pathloop import PathLoop, FiberCoaction
from loopalg.tensoralg import UNIT_WORD
from loopalg.vectors import Vect, label_key


def sphere_model(n, ring, cutoff, label=None):
    """The coalgebra R + R.x_n of an n-sphere: one primitive generator."""
    if n < 2:
        raise ValueError("sphere model requires n >= 2 (simple connectivity)")
    return DGCoalgebra(ring, cutoff, {label or ("x%d" % n): n},
                       name="sphere%d" % n)


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
