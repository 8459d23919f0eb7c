"""Formal bracket model of the double-loop algebra."""

import pytest

from loopalg.rings import ZZ, QQ, F2
from loopalg.shfamily import AWCoalgebra
from loopalg.formal import bracket_generators, FormalDoubleLoop

from models import double_loop, betti, sphere_model


def test_rejects_integers_and_nonprimitive():
    with pytest.raises(ValueError):
        FormalDoubleLoop(sphere_model(3, ZZ, 8))
    assert FormalDoubleLoop(sphere_model(3, QQ, 8)) is not None
    # a tensor product has decomposable comultiplication terms
    from loopalg.coalg import tensor_coalgebra
    T = tensor_coalgebra(sphere_model(2, QQ, 6), sphere_model(3, QQ, 6))
    with pytest.raises(ValueError):
        FormalDoubleLoop(T)


def test_bracket_generator_count_fibonacci_ranks():
    # for S^3 the bracket alphabet gives Fibonacci degreewise ranks
    fm = FormalDoubleLoop(sphere_model(3, QQ, 8))
    cx = fm.to_chain_complex()
    assert [len(cx.bases[n]) for n in range(9)] == [1, 1, 1, 2, 3, 5, 8, 13, 21]
    ok, label, _ = cx.verify_differential()
    assert ok, label


def test_bracket_generators_degrees():
    degs, wts = bracket_generators(sphere_model(3, QQ, 8), 8)
    assert min(degs.values()) == 1
    assert all(d <= 8 for d in degs.values())
    assert all(w >= 1 for w in wts.values())


def test_matches_double_loop_betti():
    for ring in (F2, QQ):
        C = sphere_model(3, ring, 8)
        fm = FormalDoubleLoop(C)
        dl, _ = double_loop(AWCoalgebra.strict(C))
        assert betti(fm.to_chain_complex(), 0, 7) == \
            betti(dl.to_chain_complex(), 0, 7)

