"""Coefficient ring arithmetic and name parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopalg.rings import Ring, ZZ, QQ, F2, ring_from_name


def test_kinds_and_fields():
    assert ZZ.name == "Z" and QQ.name == "Q" and F2.name == "F2"
    assert Ring("Fp", 7).name == "Fp:7"


def test_bad_constructions():
    with pytest.raises(ValueError):
        Ring("R")
    with pytest.raises(ValueError):
        Ring("Fp", 6)
    with pytest.raises(ValueError):
        Ring("Fp")
    with pytest.raises(ValueError):
        Ring("Z", 3)


def test_parse_names():
    assert ring_from_name("Z") is ZZ
    assert ring_from_name(" Q ") is QQ
    assert ring_from_name("F2") is F2
    assert ring_from_name("Fp:5") == Ring("Fp", 5)
    with pytest.raises(ValueError):
        ring_from_name("F3")
    with pytest.raises(ValueError):
        ring_from_name("Fp:4")


def test_norm():
    assert ZZ.norm(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.norm(Fraction(1, 2))
    assert QQ.norm(3) == Fraction(3)
    assert F2.norm(-1) == 1
    assert F2.norm(Fraction(1, 3)) == 1  # 3 is invertible mod 2


def test_inverse():
    assert ZZ.inv(-1) == -1
    with pytest.raises(ValueError):
        ZZ.inv(2)
    assert QQ.mul(QQ.inv(Fraction(2, 3)), Fraction(2, 3)) == 1
    p7 = Ring("Fp", 7)
    for a in range(1, 7):
        assert p7.mul(p7.inv(a), a) == 1


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms_f5(a, b, c):
    r = Ring("Fp", 5)
    a, b, c = r.norm(a), r.norm(b), r.norm(c)
    assert r.add(a, b) == r.add(b, a)
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.is_zero(r.add(a, r.neg(a)))
