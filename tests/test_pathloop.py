"""Path objects, path-loop algebras, the cofixed double-loop subalgebra,
and loop homotopy fibers."""

import json
import os
import random
from fractions import Fraction

import pytest

from loopalg.rings import ZZ, QQ, F2, Ring
from loopalg.vectors import Vect
from loopalg.coalg import DGCoalgebra
from loopalg.cobar import s_letter
from loopalg.shfamily import AWCoalgebra, InducedHopf, TensorSquare
from loopalg.pathloop import (bar, path_object, extend_psi, PathLoop,
                              CofixedSubalgebra, FiberCoaction,
                              identity_family, trivial_family)
from loopalg.documents import (coalgebra_from_document, load_json,
                                shmap_from_document)
from loopalg import linalg

from models import (double_loop, loop_fiber, betti, sphere_model,
                    reduced_coaction)


HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(HERE, "sample_inputs")
LOOPBENCH = os.path.join(HERE, "loopbench")


def aw(n, ring=ZZ, cutoff=8):
    return AWCoalgebra.strict(sphere_model(n, ring, cutoff))


def test_path_object_gens_and_verify():
    C = sphere_model(3, ZZ, 8)
    PC = path_object(C)
    assert PC.gens["x3"] == 3
    assert PC.gens[bar("x3")] == 2
    ok, problems = PC.verify()
    assert ok, problems
    # d(g) = dg - bar(g); bar of a cycle is a cycle
    assert PC.d_of("x3").terms == {bar("x3"): -1}
    assert PC.d_of(bar("x3")).is_zero()


def test_path_object_degree_guard():
    C = DGCoalgebra(ZZ, 8, {"a": 1})
    with pytest.raises(ValueError):
        path_object(C)


def test_path_object_cannot_iterate():
    PC = path_object(sphere_model(3, ZZ, 8))
    with pytest.raises(ValueError):
        path_object(PC)


def test_extend_psi_coherent():
    for n in (2, 3):
        E = extend_psi(aw(n))
        ok, problems = E.verify()
        assert ok, problems


def test_pathloop_acyclic():
    pl = PathLoop(aw(3, ZZ, 6))
    cx = pl.omega.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    assert betti(cx, 0, 5) == [1, 0, 0, 0, 0, 0]


def test_kappa_anti_chain_map_small():
    pl = PathLoop(aw(3, ZZ, 8))
    ob = pl.omega_base
    for deg in range(0, 5):
        for w in ob.words(deg):
            v = Vect.basis(pl.ring, w)
            res = (pl.kappa(v.map_terms(ob.d_word))
                   + pl.kappa(v).map_terms(pl.omega.d_word))
            assert res.is_zero(), w


def test_cofixed_closure_and_coordinates():
    dl, pl = double_loop(aw(3, ZZ, 6))
    ring, nu_bar = dl.ring, reduced_coaction(pl)
    for n in range(0, 6):
        basis = dl.basis(n)
        assert len(basis) == dl.rank(n)
        for label in basis:
            v = dl.vector_of(label)
            # basis vectors are cofixed: the reduced coaction kills them
            acc = Vect(ring)
            for u, c in v.items():
                acc = acc + nu_bar(u).scale(c)
            assert acc.is_zero(), label
            # coordinates round trip
            assert dl.coordinates(n, v) == {label: 1}
            # the differential stays inside the subalgebra
            if n:
                dl.coordinates(n - 1, v.map_terms(pl.omega.d_word))


def test_cofixed_blocked_takes_its_cap_from_the_ambient():
    """The path-loop alphabet of S2 has the degree-0 letter s[bar(x2)]:
    the double loop and the bracket model are both capped at the cutoff,
    and agree."""
    from loopalg.formal import FormalDoubleLoop
    C2 = sphere_model(2, F2, 5)
    dl, pl = double_loop(AWCoalgebra.strict(C2))
    assert dl.blocked and dl.cap == pl.omega.cap == 5
    cx = dl.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    fm = FormalDoubleLoop(C2)
    assert fm.cap == 5
    assert betti(cx) == betti(fm.to_chain_complex())


def test_double_loop_s3_mod2_betti():
    dl, _ = double_loop(aw(3, F2, 8))
    cx = dl.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    assert betti(cx, 0, 7) == [1, 1, 1, 2, 2, 2, 3, 4]


def test_loop_fiber_identity_acyclic():
    A = aw(3, ZZ, 6)
    hf, _ = loop_fiber(A, A, identity_family(A))
    cx = hf.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    assert betti(cx, 0, 5) == [1, 0, 0, 0, 0, 0]


def test_loop_fiber_trivial_map():
    A5 = aw(5, ZZ, 6)
    A3 = aw(3, ZZ, 6)
    hf, _ = loop_fiber(A5, A3, trivial_family(A5, A3))
    cx = hf.to_chain_complex()
    ok, label, _ = cx.verify_differential()
    assert ok, label
    # through degree 5 this is Omega S5 (x) DL(S3)
    dl, _ = double_loop(aw(3, ZZ, 6))
    d3 = betti(dl.to_chain_complex(), 0, 5)
    o5 = [1, 0, 0, 0, 1, 0]
    conv = [sum(o5[p] * d3[n - p] for p in range(n + 1)) for n in range(6)]
    assert betti(cx, 0, 5) == conv


def _coaction_kills(ring, coaction_bar, v):
    acc = Vect(ring)
    for u, c in v.items():
        acc = acc + coaction_bar(u).scale(c)
    return acc.is_zero()


def _check_coordinates(sub, coaction_bar, top, seed=0):
    """Round trips through coordinates, and its two refusals, on every
    degree of a cofixed subalgebra through top."""
    rng = random.Random(seed)
    ring = sub.ring
    amb = sub.ambient
    for n in range(top + 1):
        basis = sub.basis(n)
        vecs = [sub.vector_of(label) for label in basis]
        for v in vecs:
            assert _coaction_kills(ring, coaction_bar, v)
            if n:
                sub.coordinates(n - 1, v.map_terms(amb.d_word))
        # random combinations of the basis come back with their coefficients
        for _ in range(4):
            coeffs = [ring.norm(rng.randint(-3, 3)) for _ in basis]
            v = Vect(ring)
            for c, vec in zip(coeffs, vecs):
                v = v + vec.scale(c)
            assert sub.coordinates(n, v) == {
                label: c for label, c in zip(basis, coeffs) if c}
        # a single word is in the cofixed block exactly when the reduced
        # coaction kills it
        for u in amb.words(n, sub.cap):
            single = Vect.basis(ring, u)
            if coaction_bar(u).is_zero():
                coords = sub.coordinates(n, single)
                assert sub.expand(Vect(ring, coords)) == single
            else:
                with pytest.raises(ValueError,
                                   match="outside the cofixed block"):
                    sub.coordinates(n, single)
        # a word of the next degree, in a block with basis vectors, is not
        # among the stored words
        if basis:
            label = basis[-1]
            w = label[2] if len(label) == 4 else None
            stray = next(u for u in amb.words(n + 1, w if sub.blocked
                                              else sub.cap)
                         if w is None or amb.weight(u) == w)
            v = sub.vector_of(label) + Vect.basis(ring, stray)
            with pytest.raises(ValueError, match="leaves the stored block"):
                sub.coordinates(n, v)


@pytest.mark.parametrize("ring", [ZZ, F2, Ring("Fp", 3)],
                         ids=["Z", "F2", "Fp3"])
def test_double_loop_coordinates_round_trip(ring):
    dl, pl = double_loop(aw(3, ring, 9))
    _check_coordinates(dl, reduced_coaction(pl), 9)


def test_blocked_double_loop_coordinates_round_trip():
    dl, pl = double_loop(AWCoalgebra.strict(sphere_model(2, F2, 5)))
    assert dl.blocked
    _check_coordinates(dl, reduced_coaction(pl), 5)


def test_fiber_coordinates_round_trip_over_z():
    A5, A3 = aw(5, ZZ, 9), aw(3, ZZ, 9)
    hf, fc = loop_fiber(A5, A3, trivial_family(A5, A3))
    _check_coordinates(hf, reduced_coaction(fc), 9)


def test_integer_double_loop_runs_without_field_elimination(monkeypatch,
                                                            capsys):
    """The double loop and the fiber take their cofixed bases and their
    homology ranks from the sparse unit-pivot elimination alone: with
    every dense kernel, rref, Smith normal form and dense matrix refused,
    the reports are unchanged.  The Z double loop of S3 at cutoff 15,
    where a dense saturated kernel had grown entries past a million bits,
    then runs and agrees with the benchmark's oracle."""
    from loopalg import linalg
    from loopalg.cli import main
    sphere3 = os.path.join(SAMPLES, "sphere3.json")
    sphere5 = os.path.join(SAMPLES, "sphere5.json")
    jobs = [["double-loop", sphere3, "--ring", "Z"],
            ["double-loop", sphere3, "--ring", "F2"],
            ["fiber", sphere5, sphere3, "--ring", "F2"]]
    expected = []
    for argv in jobs:
        assert main(argv + ["--cutoff", "8", "--format", "json"]) == 0
        expected.append(capsys.readouterr().out)

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError("%s called" % name)
        return refused

    for name in ("kernel_saturated", "kernel_field", "rref",
                 "smith_normal_form", "zeros"):
        monkeypatch.setattr(linalg, name, refuse(name))
    for argv, out in zip(jobs, expected):
        assert main(argv + ["--cutoff", "8", "--format", "json"]) == 0
        assert capsys.readouterr().out == out

    assert main(jobs[0] + ["--cutoff", "15", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    monkeypatch.syspath_prepend(LOOPBENCH)
    from oracle import homology_mismatches
    job = {"command": "double-loop", "args": [], "ring": "Z", "cutoff": 15,
           "spaces": [{"family": "sphere", "dims": [3]}]}
    assert homology_mismatches(job, report) == []


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_cofixed_coordinates_with_a_non_unit_pivot(ring):
    """The reduced coaction a -> t, b -> -2t has the cofixed line spanned
    by 2a + b, with free word b.  A vector's coordinate is its
    coefficient at b, so the word a (coordinate 0) is refused for the
    remainder it leaves, over Z as over Q: the basis is saturated, so an
    integral vector in its Q-span has integral coordinates, and a is not
    in that span.

    Over Z, a -> 2t, b -> 3t has no unit entry.  The whole block is the
    core of linalg.kernel, whose saturated kernel is spanned by 3a - 2b,
    and coordinates go through the Solver on it."""
    from loopalg.tensoralg import FreeAlgebra
    alg = FreeAlgebra(ring, 3, {"a": 1, "b": 1})
    a, b = ("w", "a"), ("w", "b")

    def cofixed(ca, cb):
        def column(word):
            c = {a: ca, b: cb}.get(word, 0)
            return {"t": c} if c else {}
        sub = CofixedSubalgebra(alg, column)
        (v,) = [sub.vector_of(label) for label in sub.basis(1)]
        return sub, v

    sub, v = cofixed(1, -2)
    (label,) = sub.basis(1)
    sign = v.terms[b]
    assert v.terms[a] == 2 * sign
    line = Vect(ring, [(a, 2), (b, 1)])
    assert sub.coordinates(1, line.scale(3)) == {label: ring.norm(3 * sign)}
    if ring.kind == "Q":
        assert sub.coordinates(1, line.scale(Fraction(1, 2))) == \
            {label: Fraction(sign, 2)}
    for word in (a, b):
        with pytest.raises(ValueError, match="outside the cofixed block"):
            sub.coordinates(1, Vect.basis(ring, word))
    if ring.kind != "Z":
        return

    sub, v = cofixed(2, 3)
    (label,) = sub.basis(1)
    sign = v.terms[a] // 3
    assert v == Vect(ring, [(a, 3), (b, -2)]).scale(sign)
    assert sub.coordinates(1, Vect(ring, [(a, 6), (b, -4)])) == \
        {label: 2 * sign}
    with pytest.raises(ValueError, match="not integral"):
        sub.coordinates(1, Vect.basis(ring, a))
    with pytest.raises(ValueError, match="leaves the stored block"):
        sub.coordinates(1, Vect.basis(ring, ("w", "a", "a")))


COACTION_DOCUMENTS = {"S3": os.path.join(SAMPLES, "sphere3.json"),
                      "S3xS5": os.path.join(HERE, "tests", "golden",
                                            "inputs", "product3-5.json"),
                      "nonprimitive": os.path.join(SAMPLES,
                                                   "nonprimitive.json")}
RINGS = [ZZ, F2, Ring("Fp", 3)]
RING_IDS = ["Z", "F2", "Fp3"]


def _check_nu_is_projected_psi(pl, top, max_weight=None):
    """nu(w) is the full comultiplication of w with every term that has a
    barred letter in the second slot dropped."""
    ring = pl.ring
    checked = 0
    for n in range(top + 1):
        for w in pl.omega.words(n, max_weight):
            want = Vect(ring)
            for (_, u, v), c in pl.hopf.psi(w).items():
                if not any(isinstance(l[1], tuple) and l[1][0] == "bar"
                           for l in v[1:]):
                    want.iadd_term(c, ("t", u, v))
            assert pl.coaction(w) == want, w
            checked += 1
    return checked


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("doc", sorted(COACTION_DOCUMENTS))
def test_nu_is_the_bar_filtered_comultiplication(doc, ring):
    _, A = coalgebra_from_document(load_json(COACTION_DOCUMENTS[doc]),
                                   ring=ring, cutoff=8)
    assert _check_nu_is_projected_psi(PathLoop(A), 8)


def test_weight_capped_nu_is_the_bar_filtered_comultiplication():
    pl = PathLoop(AWCoalgebra.strict(sphere_model(2, F2, 5)))
    assert not pl.omega.finite_type
    assert _check_nu_is_projected_psi(pl, 4, max_weight=6)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("family", ["trivial", "identity"])
def test_fiber_nu_is_the_pushed_comultiplication(family, ring):
    """On S5 -> S3 (trivial map) and S3 -> S3 (identity), nu(w) is the full
    comultiplication of w with its second slot pushed to Omega C."""
    A3 = aw(3, ring, 8)
    if family == "trivial":
        A5 = aw(5, ring, 8)
        fc = FiberCoaction(A5, A3, trivial_family(A5, A3))
    else:
        fc = FiberCoaction(A3, A3, identity_family(A3))
    for n in range(9):
        for w in fc.omega.words(n):
            want = Vect(ring)
            for (_, u, v), c in fc.hopf.psi(w).items():
                for w2, c2 in fc._push(v).items():
                    want.iadd_term(c * c2, ("t", u, w2))
            assert fc.coaction(w) == want, w


# map documents on sphere models: the degree-2 self-map of S3, and the
# quaternionic Hopf map S7 -> S4, a strongly homotopy map given by its
# level-2 component alone
MAPS = {"degree2": (3, 3, {"1": {"x3": [[2, ["x3"]]]}}),
        "hopf": (7, 4, {"2": {"x7": [[1, ["x4", "x4"]]]}})}


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("model", ["double-loop", "trivial", "identity"]
                         + sorted(MAPS))
def test_kernels_are_the_kernels_of_the_label_columns(model, ring):
    """The kernels built on the coded coaction are linalg.kernel of the
    label columns of the reduced coaction, with rows numbered as they
    first appear: the same vectors, not only the same ranks."""
    A3 = aw(3, ring, 10)
    if model == "double-loop":
        co = PathLoop(A3)
    elif model == "trivial":
        A5 = aw(5, ring, 10)
        co = FiberCoaction(A5, A3, trivial_family(A5, A3))
    elif model == "identity":
        co = FiberCoaction(A3, A3, identity_family(A3))
    else:
        p, q, components = MAPS[model]
        Ap, A = aw(p, ring, 10), aw(q, ring, 10)
        co = FiberCoaction(Ap, A, shmap_from_document(
            {"components": components}, Ap.C, A.C))
    sub, nu_bar = co.cofixed(), reduced_coaction(co)
    for n in range(11):
        words, rows = co.omega.words(n), {}
        cols = [{rows.setdefault(l, len(rows)): c
                 for l, c in nu_bar(u).items()} for u in words]
        assert sub._kernel(n) == (words, linalg.kernel(cols, ring)[1]), n


def test_double_loop_builds_no_comultiplication_of_a_word(monkeypatch):
    """nu comes from letter values on codes: during a Z double loop of S3
    at cutoff 9, psi is never asked for a path-loop word and no
    TensorSquare product runs.  nu is asked for words of int codes, works
    out each word once, and keeps fewer of them than it is asked for: only
    the words that a letter can still extend."""
    psi_calls, products, nu_calls, worked = [], [], [], []
    psi, mul, times, nu = (InducedHopf.psi, TensorSquare.mul,
                           TensorSquare.times, PathLoop.nu)

    def counting_psi(self, word):
        psi_calls.append((self, word))
        return psi(self, word)

    def counting(fn):
        def product(self, *args):
            products.append(fn)
            return fn(self, *args)
        return product

    def recording_nu(self, word):
        nu_calls.append(word)
        if word not in self._nu_cache:
            worked.append(word)
        return nu(self, word)

    monkeypatch.setattr(InducedHopf, "psi", counting_psi)
    monkeypatch.setattr(PathLoop, "nu", recording_nu)
    dl, pl = double_loop(aw(3, ZZ, 9))
    # the letter values themselves are products in the letterwise split;
    # take them first, so that only products of words are counted
    for letter in pl.omega.letters:
        pl.hopf.psi_letter(letter)
    monkeypatch.setattr(TensorSquare, "mul", counting(mul))
    monkeypatch.setattr(TensorSquare, "times", counting(times))
    cx = dl.to_chain_complex()
    # rationally the double loop of S3 is a circle
    assert betti(cx, 0, 8) == [1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert not [w for h, w in psi_calls if h is pl.hopf]
    assert not products
    assert all(type(x) is int for w in nu_calls for x in w)
    assert len(worked) == len(set(worked)) == len(set(nu_calls)) > 100
    assert set(pl._nu_cache) < set(worked) and len(worked) < len(nu_calls)


def _index_diff_matches_label_route(sub, top):
    """The columns of d_n, read off the ambient d_columns, are the label
    route for every basis label through top: the coordinates one degree
    down of d of its vector."""
    checked = 0
    for n in range(1, top + 1):
        lower = sub.basis(n - 1)
        for label, col in zip(sub.basis(n), sub.columns(n)):
            want = sub.coordinates(n - 1, sub.vector_of(label).map_terms(
                sub.ambient.d_word))
            assert {lower[i]: c for i, c in col.items()} == want, label
            checked += 1
    return checked


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("doc", sorted(COACTION_DOCUMENTS))
def test_index_diff_is_the_label_route_on_double_loops(doc, ring):
    _, A = coalgebra_from_document(load_json(COACTION_DOCUMENTS[doc]),
                                   ring=ring, cutoff=7)
    assert _index_diff_matches_label_route(PathLoop(A).cofixed(), 7) > 10


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("family", ["trivial", "identity"])
def test_index_diff_is_the_label_route_on_fibers(family, ring):
    A3 = aw(3, ring, 8)
    if family == "trivial":
        A5 = aw(5, ring, 8)
        fc = FiberCoaction(A5, A3, trivial_family(A5, A3))
    else:
        fc = FiberCoaction(A3, A3, identity_family(A3))
    assert _index_diff_matches_label_route(fc.cofixed(), 8) > 10


def test_index_diff_is_the_label_route_with_a_weight_cap():
    dl, _ = double_loop(AWCoalgebra.strict(sphere_model(2, F2, 5)))
    assert dl.blocked
    assert _index_diff_matches_label_route(dl, 5) > 10


def _core_algebra(coaction, d):
    """Letters a, b in degree 1 and c, e in degree 2 over Z with the given
    differential; the reduced coaction takes a single letter l to
    coaction[l] times a fixed tensor of its degree, and every other word
    to 0."""
    from loopalg.tensoralg import FreeAlgebra
    alg = FreeAlgebra(ZZ, 3, {"a": 1, "b": 1, "c": 2, "e": 2})
    alg.set_differential({l: Vect(ZZ, [(("w", t), x) for t, x in v])
                          for l, v in d.items()})

    def column(word):
        c = coaction.get(word[1], 0) if len(word) == 2 else 0
        return {len(word): c} if c else {}
    return CofixedSubalgebra(alg, column)


def test_index_diff_is_the_label_route_through_a_core():
    """a -> 2t, b -> 3t and c -> 2t', e -> 3t' have no unit entry: the
    blocks' cofixed lines 3a - 2b and 3c - 2e are cores of
    linalg.kernel, and d(3c - 2e) = 3a - 2b is read off through the core
    Solver."""
    sub = _core_algebra({"a": 2, "b": 3, "c": 2, "e": 3},
                        {"c": [("a", 1)], "e": [("b", 1)]})
    assert _index_diff_matches_label_route(sub, 2) == 6
    assert sub._readers[(1, None)][1] and sub._readers[(2, None)][1]
    (line,) = [l for l in sub.basis(2) if len(sub.vector_of(l).terms) == 2]
    assert sub.columns(2)[sub.basis(2).index(line)] == {0: 1}


def test_index_diff_refuses_an_image_outside_the_block():
    """d(c) = a: with a -> t, c is cofixed and a is not; with the cores
    3a - 2b and 3c - 2e, d(3c - 2e) = 3a is outside the line 3a - 2b.
    The remainder check of the differential refuses both."""
    for coaction in ({"a": 1}, {"a": 2, "b": 3, "c": 2, "e": 3}):
        sub = _core_algebra(coaction, {"c": [("a", 1)]})
        assert any(("w", "c") in sub.vector_of(l).terms
                   for l in sub.basis(2))
        with pytest.raises(ValueError, match="outside the cofixed block"):
            sub.columns(2)


def test_homology_takes_each_d_word_once_and_no_vector(monkeypatch):
    """The Z double loop of S3 at cutoff 11: its homology, which agrees
    with the benchmark's oracle, builds each word's column once, among
    them every ambient word that a basis vector uses, takes d_word only
    on single letters, and makes no Vect of a kernel vector."""
    from loopalg.tensoralg import FreeAlgebra
    dl, pl = double_loop(aw(3, ZZ, 11))
    built, d_words = [], []
    d_columns, d_word = FreeAlgebra.d_columns, FreeAlgebra.d_word

    def counting(self, n, cap=None):
        if self is pl.omega and (n, cap) not in self._columns:
            built.extend(self.words(n, cap))
        return d_columns(self, n, cap)

    def letters_only(self, word):
        if self is pl.omega:
            d_words.append(word)
        return d_word(self, word)

    def refused(self, label):
        raise AssertionError("vector_of called")

    monkeypatch.setattr(FreeAlgebra, "d_columns", counting)
    monkeypatch.setattr(FreeAlgebra, "d_word", letters_only)
    monkeypatch.setattr(CofixedSubalgebra, "vector_of", refused)
    cx = dl.to_chain_complex()
    report = {"homology": {str(n): {"rank": h.free_rank, "torsion": h.torsion}
                           for n in range(11) for h in [cx.homology(n)]}}
    monkeypatch.syspath_prepend(LOOPBENCH)
    from oracle import homology_mismatches
    job = {"command": "double-loop", "args": [], "ring": "Z", "cutoff": 11,
           "spaces": [{"family": "sphere", "dims": [3]}]}
    assert homology_mismatches(job, report) == []
    used = {words[j] for words, vecs in dl._kernels.values()
            for v in vecs for j in v}
    assert len(built) == len(set(built)) and len(used) > 300
    assert used <= set(built)
    assert d_words and all(len(w) == 2 for w in d_words)
