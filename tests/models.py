"""Model builders that only the tests use: the double-loop and fiber
models together with their coactions, and the tensor square of two cobar
algebras as a chain complex."""

from loopalg.chain import ChainComplex
from loopalg.pathloop import PathLoop, FiberCoaction
from loopalg.vectors import label_key


def double_loop(A, max_weight=None):
    """The cofixed part of the path-loop algebra under its coaction over
    Omega C, and the path-loop algebra."""
    pl = PathLoop(A)
    return pl.cofixed(max_weight), pl


def loop_fiber(Aprime, A, omega_family, max_weight=None):
    """Homotopy-fiber model of a map (C', Psi') -> (C, Psi) given by a
    homotopy-coherent family: the cofixed part of Omega(C' (+) P(C))
    under the pushed coaction, and the coaction."""
    fc = FiberCoaction(Aprime, A, omega_family)
    return fc.cofixed(max_weight), fc


def tensor_square_complex(tsq):
    """Omega A (x) Omega B with the tensor differential, through the
    smaller cutoff, each basis in label_key order."""
    bases = {n: sorted((("t", wa, wb) for p in range(n + 1)
                        for wa in tsq.omA.words(p)
                        for wb in tsq.omB.words(n - p)), key=label_key)
             for n in range(tsq.cutoff + 1)}
    return ChainComplex(tsq.ring, bases, tsq.diff, tsq.cutoff)
