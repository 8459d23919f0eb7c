"""Sparse vectors, label ordering and rendering, and bilinear maps."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopalg.rings import ZZ, F2, Ring
from loopalg.vectors import Vect, label_key, label_str, bilinear


def test_basic_algebra():
    v = Vect(ZZ, [("a", 2), ("b", -1)])
    w = Vect(ZZ, [("b", 1), ("c", 3)])
    assert (v + w).terms == {"a": 2, "c": 3}
    assert (v - v).is_zero()
    assert v.scale(-1).terms == {"a": -2, "b": 1}
    assert v.scale(0).is_zero()
    assert Vect.basis(ZZ, "x", 0).is_zero()


def test_mod2_cancellation():
    v = Vect(F2, [("a", 1), ("a", 1)])
    assert v.is_zero()


F3 = Ring("Fp", 3)


def test_coefficients_in_normal_form():
    # a Fraction over F_p is its residue; over Z it must be integral
    v = Vect(F3, [("a", Fraction(1, 2)), ("b", -1), ("c", Fraction(4, 2))])
    assert v.terms == {"a": 2, "b": 2, "c": 2}
    assert all(type(c) is int for c in v.terms.values())
    assert v.scale(Fraction(1, 2)).terms == {"a": 1, "b": 1, "c": 1}
    assert Vect(ZZ, [("a", Fraction(4, 2))]).terms == {"a": 2}
    with pytest.raises(ValueError, match="non-integral"):
        Vect(ZZ, [("a", Fraction(1, 2))])
    with pytest.raises(ValueError, match="non-integral"):
        Vect.basis(ZZ, "a").scale(Fraction(1, 3))


def test_cancelled_terms_are_dropped():
    v = Vect(F3, [("a", 1), ("b", 1)])
    w = Vect(F3, [("a", 2), ("b", 1)])
    assert (v + w).terms == {"b": 2}
    assert (v - v.scale(4)).terms == {}
    assert Vect(ZZ, [("a", 2), ("a", -2), ("b", 1)]).terms == {"b": 1}
    assert Vect.basis(F3, "a").iadd_term(2, "a").terms == {}
    assert v.scale(3).terms == {}
    img = v.map_terms(lambda l: Vect.basis(F3, "c", 2 if l == "a" else 1))
    assert img.terms == {}


@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-9, 9)),
                max_size=6),
       st.lists(st.tuples(st.sampled_from("abc"), st.integers(-9, 9)),
                max_size=6),
       st.sampled_from([2, 3, 5]))
def test_map_terms_and_bilinear_stay_reduced(us, vs, p):
    ring = Ring("Fp", p)
    u, v = Vect(ring, us), Vect(ring, vs)
    img = u.map_terms(lambda l: Vect(ring, [(l + "x", 7), ("y", -5)]))
    out = bilinear(ring, u, v, lambda x, y: Vect(ring, [(x + y, -4), ("z", 9)]))
    for w in (img, out):
        assert all(type(c) is int and 0 < c < p for c in w.terms.values())
    # against sums of plain integers reduced at the end
    want = {}
    for la, ca in u.items():
        for lb, cb in v.items():
            for label, c in ((la + lb, -4), ("z", 9)):
                want[label] = want.get(label, 0) + ca * cb * c
    assert out.terms == {k: c % p for k, c in want.items() if c % p}


def test_label_order_total():
    labels = ["z", ("s", "a"), ("w",), ("w", ("s", "a")), ("bar", "a"), "a"]
    keys = [label_key(l) for l in labels]
    assert len(set(keys)) == len(keys)
    assert sorted(labels, key=label_key)[0] == "a"


def test_label_str():
    assert label_str(("s", "x3")) == "s[x3]"
    assert label_str(("w",)) == "1"
    assert label_str(("w", ("s", "a"), ("s", "b"))) == "s[a]|s[b]"
    assert label_str(("bar", "x")) == "bar(x)"
    assert label_str(("tp", "a", "1")) == "(a&1)"
    assert label_str(("t", "a", "b")) == "(a (x) b)"


def test_map_terms_linear():
    v = Vect(ZZ, [("a", 2), ("b", 3)])
    img = v.map_terms(lambda l: Vect(ZZ, [((l, l), 1), ("c", 1)]))
    assert img.terms == {("a", "a"): 2, ("b", "b"): 3, "c": 5}


def test_bilinear():
    u = Vect(ZZ, [("a", 2)])
    v = Vect(ZZ, [("b", 3)])
    out = bilinear(ZZ, u, v, lambda x, y: Vect.basis(ZZ, (x, y)))
    assert out.terms == {("a", "b"): 6}


coeffs = st.integers(-5, 5)
labels = st.sampled_from(["a", "b", "c", "d"])
vects = st.lists(st.tuples(labels, coeffs), max_size=6).map(
    lambda ts: Vect(ZZ, ts))


@given(vects, vects, coeffs)
def test_vector_space_axioms(u, v, c):
    assert (u + v).terms == (v + u).terms
    assert (u + v).scale(c).terms == (u.scale(c) + v.scale(c)).terms
    assert (u - v + v).terms == u.terms
