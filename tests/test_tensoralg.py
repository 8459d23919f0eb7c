"""Free algebras on graded alphabets: word enumeration, derivations,
algebra maps, all on words of letter codes, and the labels they are read
as."""

import ast
import os
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import loopalg
from loopalg.rings import ZZ, F2, Ring
from loopalg.vectors import Vect, label_key
from loopalg.tensoralg import FreeAlgebra
from loopalg.cobar import CobarAlgebra
from loopalg.shfamily import AWCoalgebra
from loopalg.pathloop import PathLoop, FiberCoaction, trivial_family
from loopalg.formal import FormalDoubleLoop
from loopalg.documents import coalgebra_from_document, load_json

from models import betti, sphere_model

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "golden", "inputs")
PRODUCT23 = os.path.join(INPUTS, "product2-3.json")


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
    a, b = alg.code["a"], alg.code["b"]
    w = (a, b, a)
    assert alg.degree(w) == 4
    assert alg.weight(w) == 5
    assert alg.degree(()) == 0


def test_codes_are_label_key_order_and_label_reads_them():
    alg = FreeAlgebra(ZZ, 10, {("s", "b"): 2, "z": 1, ("s", "a"): 3, 4: 1})
    assert alg._ordered == ["z", ("s", "a"), ("s", "b"), 4]
    assert alg.code == {"z": 0, ("s", "a"): 1, ("s", "b"): 2, 4: 3}
    assert alg.deg == [1, 3, 2, 1] and alg.wt == [1, 1, 1, 1]
    assert alg.label(()) == ("w",)
    assert alg.label((2, 0, 3)) == ("w", ("s", "b"), "z", 4)


def test_degree_zero_needs_weight_bound():
    alg = FreeAlgebra(ZZ, 10, {"a": 0, "b": 2})
    assert not alg.finite_type
    with pytest.raises(ValueError):
        alg.words(2)
    words = alg.words(2, max_weight=3)
    # b alone, plus b padded with at most two copies of a
    a, b = alg.code["a"], alg.code["b"]
    assert (b,) in words and (a, b, a) in words
    assert all(alg.weight(w) <= 3 for w in words)


def test_positive_weight_required():
    with pytest.raises(ValueError):
        FreeAlgebra(ZZ, 4, {"a": 1}, weights={"a": 0})


def test_mul_and_unit():
    alg = FreeAlgebra(ZZ, 6, {"a": 1})
    u = Vect.basis(ZZ, (0,))
    assert alg.unit().terms == {(): 1}
    assert alg.mul(alg.unit(), u).terms == u.terms
    assert alg.mul(u, u).terms == {(0, 0): 1}


def test_derivation_leibniz():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 2})
    a, b = alg.code["a"], alg.code["b"]
    vals = {b: Vect.basis(ZZ, (a, a))}
    d = alg.derivation(vals)
    for w1 in alg.words(3):
        for w2 in alg.words(2):
            lhs = d(w1 + w2)
            sign = -1 if alg.degree(w1) % 2 else 1
            rhs = alg.mul(d(w1), Vect.basis(ZZ, w2)) + \
                alg.mul(Vect.basis(ZZ, w1), d(w2)).scale(sign)
            assert (lhs - rhs).is_zero(), (w1, w2)


def test_set_differential_squares_to_zero():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 3})
    a, b = alg.code["a"], alg.code["b"]
    alg.set_differential({b: Vect.basis(ZZ, (a, a))})
    for n in range(0, 7):
        for w in alg.words(n):
            assert alg.d_word(w).map_terms(alg.d_word).is_zero()


def test_algebra_map_multiplicative():
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 2})
    tgt = FreeAlgebra(ZZ, 8, {"x": 1})
    a, b, x = alg.code["a"], alg.code["b"], tgt.code["x"]
    fn = alg.algebra_map(
        lambda l: Vect.basis(ZZ, (x,)) if l == a
        else Vect.basis(ZZ, (x, x), 2),
        tgt.mul, tgt.unit)
    assert fn(()).terms == {(): 1}
    assert fn((a, b)).terms == {(x, x, x): 2}


def test_to_chain_complex_unit_in_degree_zero():
    alg = FreeAlgebra(ZZ, 4, {"a": 2})
    alg.set_differential({})
    cx = alg.to_chain_complex()
    assert cx.basis(0) == [()]
    assert cx.label((0,)) == ("w", "a")
    assert betti(cx, 0, 3) == [1, 0, 1, 0]


@given(st.lists(st.sampled_from(["a", "b"]), max_size=4),
       st.lists(st.sampled_from(["a", "b"]), max_size=4))
def test_concat_associative_words(l1, l2):
    """The product of two words is the concatenation of their codes,
    read as the concatenation of their letters."""
    alg = FreeAlgebra(ZZ, 8, {"a": 1, "b": 1})
    w1, w2 = (tuple(map(alg.code.__getitem__, l)) for l in (l1, l2))
    assert alg.mul(Vect.basis(ZZ, w1), Vect.basis(ZZ, w2)).terms == \
        {w1 + w2: 1}
    assert alg.label(w1 + w2)[1:] == tuple(l1) + tuple(l2)


# letters of every shape a word algebra meets: generators, cobar letters
# of barred generators, and integer labels
LETTERS = st.one_of(
    st.text("abxy", min_size=1, max_size=2),
    st.integers(0, 12),
    st.tuples(st.just("s"), st.text("abx", min_size=1, max_size=2)),
    st.tuples(st.just("s"), st.tuples(st.just("bar"),
                                      st.text("ab", min_size=1, max_size=2))))


# alphabets of letter -> (degree, weight), degree-0 letters included
ALPHABETS = st.dictionaries(LETTERS,
                            st.tuples(st.integers(0, 3), st.integers(1, 3)),
                            min_size=1, max_size=4)


def free_algebra(alphabet):
    return FreeAlgebra(ZZ, 6, {l: d for l, (d, _) in alphabet.items()},
                       weights={l: w for l, (_, w) in alphabet.items()})


@settings(max_examples=150, deadline=None)
@given(ALPHABETS, st.integers(0, 5), st.one_of(st.none(), st.integers(0, 5)))
def test_words_come_in_label_key_order(alphabet, n, max_weight):
    """words() emits the label_key order of the words' labels itself:
    ChainComplex keeps the order it is given, and every matrix and pivot
    follows from it."""
    alg = free_algebra(alphabet)
    if max_weight is None and not alg.finite_type:
        max_weight = 5
    labels = list(map(alg.label, alg.words(n, max_weight)))
    assert labels == sorted(set(labels), key=label_key)


@settings(max_examples=150, deadline=None)
@given(ALPHABETS, st.integers(0, 5), st.one_of(st.none(), st.integers(0, 5)))
def test_words_are_the_letter_sequences_of_the_degree(alphabet, n,
                                                      max_weight):
    """Oracle: filter every letter sequence short enough to qualify (each
    letter has degree >= 1 or weight >= 1)."""
    alg = free_algebra(alphabet)
    if max_weight is None and not alg.finite_type:
        max_weight = 5
    longest = min(([n] if alg.finite_type else [])
                  + ([] if max_weight is None else [max_weight]))
    expected = [("w",) + seq for k in range(longest + 1)
                for seq in product(alphabet, repeat=k)
                if sum(alphabet[l][0] for l in seq) == n
                and (max_weight is None
                     or sum(alphabet[l][1] for l in seq) <= max_weight)]
    assert list(map(alg.label, alg.words(n, max_weight))) == \
        sorted(expected, key=label_key)


class CountingCache(dict):
    """A word cache that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("letters,weights,max_weight", [
    ({"a": 1, "b": 2, "c": 3}, None, None),
    ({"a": 1, "b": 2, "c": 3}, {"b": 2}, 5),
    ({"a": 0, "b": 1, "c": 2}, {"c": 2}, 4)],
    ids=["unbounded", "bounded", "degree-0"])
def test_each_word_list_is_built_once(letters, weights, max_weight):
    alg = FreeAlgebra(ZZ, 9, letters, weights=weights)
    alg._word_cache = cache = CountingCache()
    first = [alg.words(n, max_weight) for n in range(10)]
    again = [alg.words(n, max_weight) for n in range(10)]
    assert all(a is b for a, b in zip(first, again))
    assert set(cache.stores.values()) == {1}
    assert all(cache.stores[(n, max_weight)] == 1 for n in range(10))


def test_words_is_entered_only_by_its_callers(monkeypatch):
    """Shorter words come from the cache, not from the public words(),
    whose call count the benchmark's layer metrics read."""
    calls = []
    words = FreeAlgebra.words
    monkeypatch.setattr(FreeAlgebra, "words", lambda self, *args:
                        calls.append(args) or words(self, *args))
    for letters, max_weight in [({"a": 1, "b": 2}, None),
                                ({"a": 0, "b": 1, "c": 3}, 6)]:
        alg = FreeAlgebra(ZZ, 8, letters)
        for n in range(9):
            alg.words(n, max_weight)
    assert len(calls) == 18


def sorted_word_lists(alg, n, cap):
    """Oracle: the word list and prefix maps of (n, cap) by sorts, from
    the cached suffix lists: every l.u in letter order, the indices sorted
    stably by length, and sorted again to invert that permutation."""
    out, starts = [()] if n == 0 else [], {}
    for l, d in enumerate(alg.deg):
        left = cap
        if left is not None:
            left -= alg.wt[l]
        if d <= n and (left is None or left >= 0):
            starts[l] = (n - d, left), len(out)
            out += [(l,) + u for u in alg._words(n - d, left)[0]]
    order = sorted(range(len(out)), key=lambda i: len(out[i]))
    place = sorted(range(len(out)), key=order.__getitem__)
    return [out[j] for j in order], {
        l: (sub, place[s:s + len(alg._words(*sub)[0])])
        for l, (sub, s) in starts.items()}


@pytest.mark.parametrize("path,caps,top", [
    (os.path.join(os.path.dirname(HERE), "sample_inputs", "sphere3.json"),
     [None], 12),
    (os.path.join(INPUTS, "product3-5.json"), [None], 11),
    (PRODUCT23, range(7), 6)], ids=["S3", "S3xS5", "S2xS3"])
def test_word_lists_are_the_sort_by_length(path, caps, top):
    """Runs of equal length, taken length by length, give the word lists
    and prefix maps of the sort by length, for every (degree, cap) that a
    path-loop alphabet builds, its suffix lists included."""
    _, A = coalgebra_from_document(load_json(path), ring=F2, cutoff=top)
    om = PathLoop(A).omega
    for cap in caps:
        for n in range(top + 1):
            om.words(n, cap)
    assert len(om._word_cache) > top
    for (n, cap), built in om._word_cache.items():
        assert built == sorted_word_lists(om, n, cap), (n, cap)


@pytest.mark.parametrize("ring", [ZZ, F2, Ring("Fp", 3)],
                         ids=["Z", "F2", "F3"])
def test_d_columns_are_d_word_column_by_column(ring):
    """d_columns(n, cap) is d_word on each word of words(n, cap), in
    order, as a column over words(n - 1, cap) without the terms above the
    cap: on cobar, path-loop, fiber and formal-dl algebras, capped where
    letters sit in degree 0 (S2) or d raises the weight (S2xS3)."""
    A3, A5 = (AWCoalgebra.strict(sphere_model(k, ring, 7)) for k in (3, 5))
    A2 = AWCoalgebra.strict(sphere_model(2, ring, 6))
    _, A23 = coalgebra_from_document(load_json(PRODUCT23), ring=ring,
                                     cutoff=5)
    algebras = [(CobarAlgebra(A3.C), None, 7), (PathLoop(A3).omega, None, 7),
                (FiberCoaction(A5, A3, trivial_family(A5, A3)).omega, None, 7),
                (PathLoop(A2).omega, 6, 6), (PathLoop(A23).omega, 5, 5)]
    if ring.kind != "Z":
        algebras.append((FormalDoubleLoop(A3.C), None, 7))
    checked = dropped = 0
    for alg, cap, top in algebras:
        for n in range(top + 1):
            words = alg.words(n, cap)
            rows = {u: i for i, u in enumerate(alg.words(n - 1, cap))}
            cols = alg.d_columns(n, cap)
            assert len(cols) == len(words)
            for w, col in zip(words, cols):
                d = alg.d_word(w)
                assert col == {rows[u]: c for u, c in d.items() if u in rows}
                checked += 1
                dropped += len(d.terms) - len(col)
    assert checked > 1500 and dropped > 0


def _word_format_leaks(tree):
    """The ("w", ...) tuples of a module's syntax tree and its names of
    the label-to-code translation, as (line, what) pairs."""
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and node.elts and isinstance(
                node.elts[0], ast.Constant) and node.elts[0].value == "w":
            leaks.append((node.lineno, '("w", ...)'))
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                else node.arg if isinstance(node, ast.arg) else None)
        if name in ("concat", "_encode", "_codes"):
            leaks.append((getattr(node, "lineno", None), name))
    return leaks


def test_word_format_lives_in_tensoralg():
    """Words are tuples of letter codes everywhere; only tensoralg builds
    their labels ("w", letter, ...), and no module translates labels to
    codes of its own."""
    src = os.path.dirname(loopalg.__file__)
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    assert "tensoralg.py" in names and "shfamily.py" in names
    leaks = {}
    for name in names:
        with open(os.path.join(src, name)) as fh:
            found = _word_format_leaks(ast.parse(fh.read()))
        if found and name != "tensoralg.py":
            leaks[name] = found
    assert leaks == {}
    # the check sees what it looks for
    assert sorted(_word_format_leaks(ast.parse(
        'w = ("w", l) + concat(u, v)\nc = self._codes[0]\n'
        'def _encode(word): pass\n'))) == [
        (1, '("w", ...)'), (1, "concat"), (2, "_codes"), (3, "_encode")]
