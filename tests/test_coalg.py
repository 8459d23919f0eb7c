"""Coalgebra presentations: verification, spheres, tensor products, sums."""

import os

import pytest

from loopalg.rings import ZZ, Ring
from loopalg.vectors import Vect
from loopalg.coalg import UNIT, DGCoalgebra, tensor_coalgebra, direct_sum
from loopalg.documents import coalgebra_from_document, load_json
from loopalg.pathloop import bar, path_object

from models import sphere_model


def test_sphere_model():
    C = sphere_model(3, ZZ, 8)
    assert C.gens == {"x3": 3}
    assert C.delta_red("x3").is_zero()
    full = C.delta_full("x3")
    assert full.terms == {("t", "x3", UNIT): 1, ("t", UNIT, "x3"): 1}
    ok, _ = C.verify()
    assert ok
    with pytest.raises(ValueError):
        sphere_model(1, ZZ, 8)


def test_cutoff_truncates_generators():
    C = DGCoalgebra(ZZ, 4, {"a": 3, "b": 5})
    assert "b" not in C.gens


def test_nonpositive_degree_rejected():
    with pytest.raises(ValueError):
        DGCoalgebra(ZZ, 4, {"a": 0})


def test_verify_catches_broken_coleibniz():
    # delta(dv) != (d (x) 1 + 1 (x) d) delta(v)
    C = DGCoalgebra(ZZ, 8, {"a": 2, "b": 3, "v": 5, "w": 4},
                    d={"v": Vect(ZZ, [("w", 1)])},
                    delta={"v": Vect(ZZ, [(("t", "a", "b"), 1)]),
                           "w": Vect(ZZ, [(("t", "a", "a"), 1)])})
    ok, problems = C.verify()
    assert not ok
    assert any(kind == "co-Leibniz" for kind, _, _ in problems)


@pytest.mark.parametrize("ring", [ZZ, Ring("Fp", 3)], ids=["Z", "F3"])
def test_coleibniz_koszul_sign_on_a_path_object(ring):
    """In P(S3 x S5), d(g) = -bar(g) on x3, y5 and z8, and Delta(z8) =
    x3 (x) y5 - y5 (x) x3 has a differential on both factors: co-Leibniz
    at z8 holds only with the sign (-1)^|a| on a (x) d(b)."""
    doc = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "inputs", "product3-5.json")
    C, _ = coalgebra_from_document(load_json(doc), ring=ring)
    PC = path_object(C)
    assert any(not PC.d_of(a).is_zero() and not PC.d_of(b).is_zero()
               for g in PC.gens for (_, a, b) in PC.delta_red(g).terms)
    ok, problems = PC.verify()
    assert ok, problems


@pytest.mark.parametrize("ring", [ZZ, Ring("Fp", 2)], ids=["Z", "F2"])
def test_verify_catches_a_differential_that_does_not_square_to_zero(ring):
    """d a5 = b4 and d b4 = c3 keep every degree and, with no
    comultiplication, co-Leibniz and coassociativity; only d d a5 = c3
    shows, at a5 alone; their path object shows it at a5 and bar(a5)."""
    C = DGCoalgebra(ring, 8, {"a5": 5, "b4": 4, "c3": 3},
                    d={"a5": Vect(ring, [("b4", 1)]),
                       "b4": Vect(ring, [("c3", 1)])})
    ok, problems = C.verify()
    assert not ok
    assert problems == [("d-square", "a5", Vect.basis(ring, "c3"))]
    ok, problems = path_object(C).verify()
    assert [(kind, g) for kind, g, _ in problems] == [
        ("d-square", "a5"), ("d-square", bar("a5"))]
    # at cutoff 4, which drops a5, d squares to zero
    assert DGCoalgebra(ring, 4, C.gens, d=C.d_map).verify() == (True, [])


def test_verify_catches_noncoassociative():
    C = DGCoalgebra(ZZ, 8, {"a": 2, "u4": 4, "b": 2, "c": 2, "v": 6},
                    delta={"v": Vect(ZZ, [(("t", "a", "u4"), 1)]),
                           "u4": Vect(ZZ, [(("t", "b", "c"), 1)])})
    ok, problems = C.verify()
    assert not ok
    assert any(kind == "coassociativity" for kind, _, _ in problems)


def test_tensor_coalgebra():
    C = sphere_model(2, ZZ, 8)
    Cp = sphere_model(3, ZZ, 8)
    T = tensor_coalgebra(C, Cp)
    ok, problems = T.verify()
    assert ok, problems
    assert T.gens[("tp", "x2", "x3")] == 5
    assert T.gens[("tp", "x2", UNIT)] == 2
    # reduced comultiplication of the product generator has the two
    # splittings, with the Koszul shuffle sign
    dl = T.delta_red(("tp", "x2", "x3"))
    assert dl.terms == {
        ("t", ("tp", "x2", UNIT), ("tp", UNIT, "x3")): 1,
        ("t", ("tp", UNIT, "x3"), ("tp", "x2", UNIT)): 1,
    }
    # weights add across the factors
    assert T.weights[("tp", "x2", "x3")] == 2
    assert T.weights[("tp", "x2", UNIT)] == 1


def test_direct_sum():
    C = sphere_model(2, ZZ, 8)
    Cp = sphere_model(3, ZZ, 8)
    S = direct_sum(C, Cp)
    ok, _ = S.verify()
    assert ok
    assert S.gens[("inl", "x2")] == 2
    assert S.gens[("inr", "x3")] == 3
    assert S.weights[("inl", "x2")] == 1


def test_mismatched_rings_rejected():
    from loopalg.rings import F2
    with pytest.raises(ValueError):
        tensor_coalgebra(sphere_model(2, ZZ, 8), sphere_model(2, F2, 8))
    with pytest.raises(ValueError):
        direct_sum(sphere_model(2, ZZ, 8), sphere_model(2, F2, 8))
