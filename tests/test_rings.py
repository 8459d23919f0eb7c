"""Coefficient rings: normal forms, inverses and name parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopalg.rings import Ring, ZZ, QQ, F2, ring_from_name, _is_prime


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


def test_primality_below_2_to_the_64():
    """Miller-Rabin on the first 12 prime bases is exact below 2^64: it
    takes Carmichael numbers and 3825123056546413051, a strong
    pseudoprime to every prime base up to 23, for composites.  Ring
    refuses p >= 2^64 and names the bound."""
    small = [p for p in range(200) if all(p % d for d in range(2, p))]
    assert [p for p in range(200) if _is_prime(p)] == small[2:]
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051,
              1073741789 * (2 ** 31 - 1)):
        assert not _is_prime(n), n
    for p in (2 ** 31 - 1, 1073741789, 2 ** 61 - 1, 2 ** 64 - 59):
        assert _is_prime(p), p
    with pytest.raises(ValueError, match=r"below 2\^64"):
        Ring("Fp", 2 ** 64 + 13)


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
    assert QQ.inv(Fraction(2, 3)) * Fraction(2, 3) == 1
    p7 = Ring("Fp", 7)
    for a in range(1, 7):
        assert p7.norm(p7.inv(a) * a) == 1


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms_f5(a, b, c):
    # sums and products of normal values, normalized once, are the ring
    # operations of F5: norm is a ring map from Z
    r = Ring("Fp", 5)
    x, y, z = r.norm(a), r.norm(b), r.norm(c)
    assert r.norm(x + y) == r.norm(a + b) == r.norm(y + x)
    assert r.norm(x * (y + z)) == r.norm(a * (b + c)) == r.norm(x * y + x * z)
    assert r.norm(x - x) == 0 and r.norm(-x) == r.norm(-a)
    assert 0 <= r.norm(x * y - z) < 5


def test_reduce_drops_zero_sums():
    assert Ring("Fp", 3).reduce({"a": 3, "b": -1, "c": 7}) == {"b": 2, "c": 1}
    assert ZZ.reduce({"a": 0, "b": -2}) == {"b": -2}
    assert QQ.reduce({"a": Fraction(0), "b": Fraction(1, 2)}) == \
        {"b": Fraction(1, 2)}
