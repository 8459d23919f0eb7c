"""Cobar constructions, twisted one-sided complexes, and the twisted
Hopf tensor algebra."""

import itertools
import os
import re

import pytest

from loopalg.rings import ZZ, F2
from loopalg.vectors import Vect, label_str
from loopalg.tensoralg import UNIT_WORD, concat
from loopalg.coalg import DGCoalgebra
from loopalg.cobar import (CobarAlgebra, OneSidedCobar, TwistedHopfTensor,
                           AlgebraOnHomology, coalgebra_of_hopf, s_letter)
from loopalg.shfamily import AWCoalgebra, InducedHopf
from loopalg.documents import coalgebra_from_document, load_json

from models import sphere_model, betti

NONPRIMITIVE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sample_inputs", "nonprimitive.json")


def hopf(n, ring=ZZ, cutoff=8):
    return InducedHopf(AWCoalgebra.strict(sphere_model(n, ring, cutoff)))


def test_cobar_sphere_d2_and_letters():
    for n in (2, 3, 5):
        om = CobarAlgebra(sphere_model(n, ZZ, 8))
        assert om.letters == {("s", "x%d" % n): n - 1}
        cx = om.to_chain_complex()
        ok, label, _ = cx.verify_differential()
        assert ok, label


def test_cobar_nonprimitive_d2():
    C, _ = coalgebra_from_document(load_json(NONPRIMITIVE))
    om = CobarAlgebra(C)
    ok, label, _ = om.to_chain_complex().verify_differential()
    assert ok, label


def test_cobar_differential_on_letter():
    # d(s[v]) = -s[dv] + sum (-1)^{|a|} s[a]|s[b] over the reduced
    # comultiplication
    from loopalg.coalg import DGCoalgebra
    C = DGCoalgebra(ZZ, 8, {"a": 2, "b": 3, "v": 5, "w": 4},
                    d={"v": Vect(ZZ, [("w", 1)])},
                    delta={"v": Vect(ZZ, [(("t", "a", "b"), 1)]),
                           "w": Vect(ZZ, [(("t", "a", "a"), 1)])})
    om = CobarAlgebra(C)
    dv = om.d_word(("w", s_letter("v")))
    assert dv.terms == {
        ("w", s_letter("w")): -1,
        ("w", s_letter("a"), s_letter("b")): 1,
    }


def test_one_sided_cobar_acyclic_both_sides():
    for n in (3, 5):
        om = CobarAlgebra(sphere_model(n, ZZ, 8))
        for side in ("right", "left"):
            osc = OneSidedCobar(om, side=side)
            cx = osc.to_chain_complex()
            ok, label, _ = cx.verify_differential()
            assert ok, (side, label)
            assert betti(cx, 0, 7) == [1, 0, 0, 0, 0, 0, 0, 0], side


def test_one_sided_cobar_needs_a_side():
    om = CobarAlgebra(sphere_model(3, ZZ, 6))
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        OneSidedCobar(om, side="up")


def test_one_sided_cobar_blocked():
    # the cobar letter of S2 sits in degree 1, the circle's in degree 0
    for C, cap in ((sphere_model(2, ZZ, 6), None),
                   (DGCoalgebra(ZZ, 6, {"e1": 1}), 6)):
        osc = OneSidedCobar(CobarAlgebra(C), side="right")
        assert osc.cap == cap
        cx = osc.to_chain_complex()
        ok, label, _ = cx.verify_differential()
        assert ok, label
        assert betti(cx, 0, 5) == [1, 0, 0, 0, 0, 0]


def test_twisted_hopf_tensor_d2_and_acyclic():
    H = hopf(3)
    tw = TwistedHopfTensor(H)
    cx = tw.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    assert betti(cx, 0, 7) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_twisted_hopf_tensor_multiplies_by_the_unit_coefficient_only():
    """The products that cotor --hopf self forms have a left factor v (x)
    1, and (v (x) 1)(v' (x) x) = v v' (x) x; a left factor with another
    coefficient is refused, naming it."""
    tw = TwistedHopfTensor(hopf(3, cutoff=8))
    small = [l for n in range(4) for l in tw.basis(n)]
    units = [l for l in small if l[2] == UNIT_WORD]
    others = [l for l in small if l[2] != UNIT_WORD]
    assert len(units) > 1 and others
    for l1, l2 in itertools.product(units, small):
        assert tw.mul(Vect.basis(ZZ, l1), Vect.basis(ZZ, l2)).terms == \
            {("t", concat(l1[1], l2[1]), l2[2]): 1}
    for l1 in others:
        with pytest.raises(ValueError, match=re.escape(
                "left coefficient %s:" % label_str(l1[2]))):
            tw.mul_labels(l1, units[0])


def test_section_and_defect_identities():
    _, A = coalgebra_from_document(load_json(NONPRIMITIVE), cutoff=6)
    for H in (hopf(3), InducedHopf(A)):
        tw = TwistedHopfTensor(H)
        ring = tw.ring
        for n in range(0, 7):
            for b in H.omega.words(n):
                v = Vect.basis(ring, b)
                # h(b) = d(s(b)) - s(db) is s[b] (x) 1 plus s[h] (x) b' over
                # the reduced comultiplication (zero on the unit);
                # proj s = id, proj h = 0
                want = Vect(ring)
                if n:
                    want.iadd_term(1, ("t", ("w", s_letter(b)), ("w",)))
                    for (_, h, bp), c in H.delta_red(b).items():
                        want.iadd_term(c, ("t", ("w", s_letter(h)), bp))
                assert tw.section_defect(v) == want, b
                assert tw.section(v).map_terms(tw.diff) == \
                    tw.section(H.omega.d_word(b)) + want, b
                assert (tw.projection(tw.section(v)) - v).is_zero(), b
                assert tw.projection(tw.section_defect(v)).is_zero(), b


def test_product_exceeding_cutoff_raises():
    H = hopf(3, cutoff=4)
    tw = TwistedHopfTensor(H)
    l = tw.basis(4)[0]
    with pytest.raises(ValueError):
        tw.mul_labels(l, l)


def test_cotor_trivial_is_loop_homology():
    # Cotor over Omega(S^3) with trivial coefficients recovers the double
    # loop ranks in low degrees; here just check H_0 = R and H_2 rank 1
    omega = CobarAlgebra(coalgebra_of_hopf(hopf(3, cutoff=6), 6))
    a = AlgebraOnHomology(omega.to_chain_complex(), omega.mul)
    assert a.homology(0).free_rank == 1
    assert a.homology(1).free_rank == 1


def test_cotor_regular_is_acyclic():
    tw = TwistedHopfTensor(hopf(3, cutoff=6))
    a = AlgebraOnHomology(tw.to_chain_complex(), tw.mul)
    assert betti(a.complex, 0, 5) == [1, 0, 0, 0, 0, 0]


def test_homology_product_tensor_algebra():
    # H(Omega S^3) = tensor algebra on one degree-2 class: products of the
    # generators of H_2 and H_4 are nonzero
    om = CobarAlgebra(sphere_model(3, ZZ, 8))
    a = AlgebraOnHomology(om.to_chain_complex(), om.mul)
    assert betti(a.complex, 0, 7) == [1, 0, 1, 0, 1, 0, 1, 0]
    assert a.product_class(2, 0, 2, 0) != [0]
    assert a.product_class(2, 0, 4, 0) != [0]


def test_cotor_builds_one_solver_per_degree(monkeypatch):
    """Structure constants reuse each degree's solver: a Z cotor of S^3
    builds at most one solver on the cycles of each degree, and one for the
    inverse of each degree's Smith transform, however many classes it
    reads off."""
    from loopalg import linalg
    built = []

    class Counting(linalg.Solver):
        def __init__(self, vectors, keys, *args):
            built.append(keys)
            super().__init__(vectors, keys, *args)

    monkeypatch.setattr(linalg, "Solver", Counting)
    omega = CobarAlgebra(coalgebra_of_hopf(hopf(3, cutoff=8), 8))
    cx = omega.to_chain_complex()
    constants = AlgebraOnHomology(cx, omega.mul).structure_constants()
    on_cycles = [n for n in cx.degrees() for keys in built
                 if keys is cx.basis(n)]
    assert len(constants) > 2 * len(cx.degrees())
    assert len(set(on_cycles)) == len(on_cycles) == 8
    assert len(built) - len(on_cycles) <= len(on_cycles)
