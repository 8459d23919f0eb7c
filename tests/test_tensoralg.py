"""Free algebras on graded alphabets: word enumeration, derivations,
algebra maps."""

import pytest
from hypothesis import given, settings, strategies as st

from loopalg.rings import ZZ
from loopalg.vectors import Vect, label_key
from loopalg.tensoralg import FreeAlgebra, UNIT_WORD, concat


def compositions(n, parts):
    """Oracle: ordered compositions of n into the given parts."""
    if n == 0:
        return 1
    return sum(compositions(n - p, parts) for p in parts if p <= n)


def test_word_counts_match_compositions():
    alg = FreeAlgebra(ZZ, 10, {"a": 1, "b": 2, "c": 4})
    for n in range(0, 9):
        assert len(alg.words(n)) == compositions(n, [1, 2, 4])


def test_degree_and_weight():
    alg = FreeAlgebra(ZZ, 10, {"a": 1, "b": 2}, weights={"b": 3})
    w = ("w", "a", "b", "a")
    assert alg.degree(w) == 4
    assert alg.weight(w) == 5
    assert alg.degree(UNIT_WORD) == 0


def test_degree_zero_needs_weight_bound():
    alg = FreeAlgebra(ZZ, 10, {"a": 0, "b": 2})
    assert not alg.finite_type
    with pytest.raises(ValueError):
        alg.words(2)
    words = alg.words(2, max_weight=3)
    # b alone, plus b padded with at most two copies of a
    assert ("w", "b") in words and ("w", "a", "b", "a") in words
    assert all(alg.weight(w) <= 3 for w in words)


def test_positive_weight_required():
    with pytest.raises(ValueError):
        FreeAlgebra(ZZ, 4, {"a": 1}, weights={"a": 0})


def test_mul_and_unit():
    alg = FreeAlgebra(ZZ, 6, {"a": 1})
    u = Vect.basis(ZZ, ("w", "a"))
    assert alg.mul(alg.unit(), u).terms == u.terms
    assert alg.mul(u, u).terms == {("w", "a", "a"): 1}
    assert concat(UNIT_WORD, ("w", "a")) == ("w", "a")


def test_derivation_leibniz():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 2})
    vals = {"b": Vect.basis(ZZ, ("w", "a", "a"))}
    d = alg.derivation(vals, -1)
    for w1 in alg.words(3):
        for w2 in alg.words(2):
            lhs = d(concat(w1, w2))
            sign = -1 if alg.degree(w1) % 2 else 1
            rhs = alg.mul(d(w1), Vect.basis(ZZ, w2)) + \
                alg.mul(Vect.basis(ZZ, w1), d(w2)).scale(sign)
            assert (lhs - rhs).is_zero(), (w1, w2)


def test_set_differential_squares_to_zero():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 3})
    alg.set_differential({"b": Vect.basis(ZZ, ("w", "a", "a"))})
    for n in range(0, 7):
        for w in alg.words(n):
            assert alg.d_word(w).map_terms(alg.d_word).is_zero()


def test_algebra_map_multiplicative():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 2})
    tgt = FreeAlgebra(ZZ, 8, {"x": 1})
    fn = alg.algebra_map(
        lambda l: Vect.basis(ZZ, ("w", "x")) if l == "a"
        else Vect.basis(ZZ, ("w", "x", "x"), 2),
        tgt.mul, tgt.unit)
    assert fn(UNIT_WORD).terms == {UNIT_WORD: 1}
    assert fn(("w", "a", "b")).terms == {("w", "x", "x", "x"): 2}


def test_to_chain_complex_unit_in_degree_zero():
    alg = FreeAlgebra(ZZ, 4, {"a": 2})
    alg.set_differential({})
    cx = alg.to_chain_complex()
    assert cx.basis(0) == [UNIT_WORD]
    assert cx.betti(0, 3) == [1, 0, 1, 0]


@given(st.lists(st.sampled_from(["a", "b"]), max_size=4),
       st.lists(st.sampled_from(["a", "b"]), max_size=4))
def test_concat_associative_words(l1, l2):
    w1 = ("w",) + tuple(l1)
    w2 = ("w",) + tuple(l2)
    assert concat(w1, w2)[1:] == tuple(l1) + tuple(l2)


# letters of every shape a word algebra meets: generators, cobar letters
# of barred generators, and integer labels
LETTERS = st.one_of(
    st.text("abxy", min_size=1, max_size=2),
    st.integers(0, 12),
    st.tuples(st.just("s"), st.text("abx", min_size=1, max_size=2)),
    st.tuples(st.just("s"), st.tuples(st.just("bar"),
                                      st.text("ab", min_size=1, max_size=2))))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(LETTERS,
                       st.tuples(st.integers(0, 3), st.integers(1, 3)),
                       min_size=1, max_size=4),
       st.integers(0, 5), st.one_of(st.none(), st.integers(0, 5)))
def test_words_come_in_label_key_order(alphabet, n, max_weight):
    """words() emits label_key order itself: ChainComplex keeps the order
    it is given, and every matrix and pivot follows from it."""
    alg = FreeAlgebra(ZZ, 6, {l: d for l, (d, _) in alphabet.items()},
                      weights={l: w for l, (_, w) in alphabet.items()})
    if max_weight is None and not alg.finite_type:
        max_weight = 5
    words = alg.words(n, max_weight)
    assert words == sorted(set(words), key=label_key)
