"""Strongly homotopy coalgebra-map families, homotopy diagonals, and the
induced Hopf structure on the cobar algebra."""

import os
import random
from fractions import Fraction

import pytest

from loopalg.rings import ZZ, QQ, F2, Ring
from loopalg.vectors import Vect
from loopalg.coalg import DGCoalgebra, tensor_coalgebra
from loopalg.cobar import CobarAlgebra, s_letter
from loopalg.tensoralg import UNIT_WORD, concat
from loopalg.shfamily import (SHFamily, TensorSquare, letterwise_split,
                              AWCoalgebra, InducedHopf, aw_coproduct)
from loopalg.pathloop import extend_psi
from loopalg.documents import coalgebra_from_document, load_json

from models import tensor_square_complex, sphere_model

RINGS = [ZZ, F2, Ring("Fp", 3)]
RING_IDS = ["Z", "F2", "Fp3"]
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(HERE, "sample_inputs")
DOCUMENTS = {"S3": os.path.join(SAMPLES, "sphere3.json"),
             "S3xS5": os.path.join(HERE, "tests", "golden", "inputs",
                                   "product3-5.json"),
             "nonprimitive": os.path.join(SAMPLES, "nonprimitive.json")}


def aw_sphere(n, ring, cutoff):
    """The strict homotopy diagonal on a sphere coalgebra."""
    return AWCoalgebra.strict(sphere_model(n, ring, cutoff))


def test_strict_identity_family_is_coherent():
    C = sphere_model(3, ZZ, 8)
    fam = SHFamily.strict(C, C, {g: Vect.basis(ZZ, g) for g in C.gens})
    ok, problems = fam.verify()
    assert ok, problems
    assert fam.max_level() == 1
    # the induced cobar map is the identity on letters
    v = fam.induced_letter_value(s_letter("x3"))
    assert v.terms == {("w", s_letter("x3")): 1}


def test_degree_problems_detected():
    C = sphere_model(3, ZZ, 8)
    Cp = sphere_model(2, ZZ, 8)
    fam = SHFamily.strict(C, Cp, {"x3": Vect.basis(ZZ, "x2")})
    assert fam.degree_problems()
    ok, problems = fam.verify()
    assert not ok
    assert any(kind == "degree" for kind, *_ in problems)


def test_nonprimitive_family_is_coherent():
    C, aw = coalgebra_from_document(load_json(DOCUMENTS["nonprimitive"]))
    ok, problems = aw.verify()
    assert ok, problems


def test_incoherent_family_detected():
    # a Psi_2 value hitting a decomposable tensor generator has a nonzero
    # cobar differential that nothing else cancels
    from loopalg.coalg import DGCoalgebra
    C = DGCoalgebra(ZZ, 8, {"a2": 2, "w7": 7})
    T = tensor_coalgebra(C, C)
    bad = SHFamily(C, T, {2: {"w7": Vect.basis(
        ZZ, ("t", ("tp", "a2", "a2"), ("tp", "a2", "a2")))}})
    assert not bad.degree_problems()
    ok, problems = bad.verify()
    assert not ok
    coh = [p for p in problems if p[0] == "coherence"]
    assert coh and any(g == "w7" for _, _, g, _ in coh)


def test_noncoassoc_document_fails_coassociativity_only():
    C, aw = coalgebra_from_document(
        load_json(os.path.join(SAMPLES, "noncoassoc.json")))
    ok, problems = aw.verify()
    assert ok, problems
    H = InducedHopf(aw)
    assert not H.chain_map_defects()
    assert H.coassociativity_defects()


def test_tensor_square_d2_and_sign():
    omA = CobarAlgebra(sphere_model(2, ZZ, 6))
    omB = CobarAlgebra(sphere_model(2, ZZ, 6))
    tsq = TensorSquare(omA, omB)
    cx = tensor_square_complex(tsq)
    ok, label, _ = cx.verify_differential()
    assert ok, label
    # interchange sign: (1 (x) b)(a (x) 1) = (-1)^{|b||a|} a (x) b,
    # both letters in degree 1 here
    a = ("w", s_letter("x2"))
    u = Vect.basis(ZZ, ("t", UNIT_WORD, a))
    v = Vect.basis(ZZ, ("t", a, UNIT_WORD))
    assert tsq.mul(u, v).terms == {("t", a, a): -1}
    assert tsq.mul(v, u).terms == {("t", a, a): 1}


def test_letterwise_split_chain_map():
    C = sphere_model(2, ZZ, 6)
    Cp = sphere_model(3, ZZ, 6)
    omT = CobarAlgebra(tensor_coalgebra(C, Cp))
    omA, omB = CobarAlgebra(C), CobarAlgebra(Cp)
    tsq = TensorSquare(omA, omB)
    split = letterwise_split(omT, tsq)
    for n in range(1, 6):
        for w in omT.words(n):
            lhs = omT.d_word(w).map_terms(split)
            rhs = split(w).map_terms(tsq.diff)
            assert (lhs - rhs).is_zero(), w


def test_induced_hopf_sphere():
    H = InducedHopf(aw_sphere(3, ZZ, 8))
    assert not H.coassociativity_defects()
    assert not H.chain_map_defects()
    w = ("w", s_letter("x3"))
    # the letter is primitive
    assert H.delta_red(w).is_zero()
    # the square of the degree-2 letter has the binomial middle term
    ww = ("w", s_letter("x3"), s_letter("x3"))
    assert H.delta_red(ww).terms == {("t", w, w): 2}
    assert H.delta_red(UNIT_WORD).is_zero()


def test_induced_hopf_nonprimitive():
    _, aw = coalgebra_from_document(load_json(DOCUMENTS["nonprimitive"]))
    H = InducedHopf(aw)
    assert not H.coassociativity_defects()
    assert not H.chain_map_defects()
    # the degree-5 letter is not primitive for the induced structure
    assert not H.delta_red(("w", s_letter("v5"))).is_zero()


def test_aw_coproduct_verifies():
    A = aw_sphere(2, ZZ, 6)
    Ap = aw_sphere(3, ZZ, 6)
    E = aw_coproduct(A, Ap)
    ok, problems = E.verify()
    assert ok, problems
    assert ("inl", "x2") in E.C.gens and ("inr", "x3") in E.C.gens


def test_tensor_square_mul_is_the_interchange_product():
    """Random Vects with odd-degree words in both slots, over two
    different alphabets, against the pairwise interchange rule."""
    rng = random.Random(5)
    for ring in (ZZ, QQ, Ring("Fp", 3)):
        omA = CobarAlgebra(DGCoalgebra(ring, 6, {"a2": 2, "b3": 3}))
        omB = CobarAlgebra(DGCoalgebra(ring, 6, {"c4": 4, "e2": 2}))
        tsq = TensorSquare(omA, omB)
        labels = [("t", wa, wb) for p in range(4) for q in range(4)
                  for wa in omA.words(p) for wb in omB.words(q)]
        assert any(omA.degree(l[1]) % 2 and omB.degree(l[2]) % 2
                   for l in labels)

        def coeff():
            c = rng.randint(-4, 4)
            return Fraction(c, rng.randint(1, 3)) if ring == QQ else c

        for _ in range(30):
            u, v = [Vect(ring, [(rng.choice(labels), coeff())
                                for _ in range(8)]) for _ in range(2)]
            want = Vect(ring)
            for (_, a1, a2), ca in u.items():
                for (_, b1, b2), cb in v.items():
                    sign = -1 if omB.degree(a2) * omA.degree(b1) % 2 else 1
                    want.iadd_term(sign * ca * cb,
                                   ("t", concat(a1, b1), concat(a2, b2)))
            assert tsq.mul(u, v) == want


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("doc", sorted(DOCUMENTS))
def test_psi_is_the_algebra_map_of_its_letter_values(doc, ring):
    """psi built from the prefix is the multiplicative extension of
    psi_letter from the unit, on every word through cutoff 8, for the base
    and the path-loop comultiplication."""
    _, A = coalgebra_from_document(load_json(DOCUMENTS[doc]), ring=ring,
                                   cutoff=8)
    for H in (InducedHopf(A), InducedHopf(extend_psi(A))):
        oracle = H.omega.algebra_map(H.psi_letter, H.tsq.mul, H.tsq.unit)
        for n in range(9):
            for w in H.omega.words(n):
                assert H.psi(w) == oracle(w), w
