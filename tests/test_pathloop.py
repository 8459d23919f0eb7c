"""Path objects, path-loop algebras, the cofixed double-loop subalgebra,
and loop homotopy fibers."""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from loopalg.rings import ZZ, QQ, F2, Ring
from loopalg.vectors import Vect
from loopalg.coalg import DGCoalgebra
from loopalg.cobar import CobarAlgebra, s_letter
from loopalg.shfamily import AWCoalgebra, InducedHopf, TensorSquare
from loopalg.pathloop import (bar, path_object, PathLoop,
                              CofixedSubalgebra, FiberCoaction,
                              identity_family, trivial_family)
from loopalg.documents import (coalgebra_from_document, load_json,
                                shmap_from_document)
from loopalg import linalg

from models import (double_loop, loop_fiber, betti, sphere_model,
                    reduced_coaction, extend_psi, aw_coproduct)


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
    assert dl.cap == pl.omega.cap == 5
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
    """Round trips through coordinates, and its refusal of a stray word,
    on every degree of a cofixed subalgebra through top."""
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
        # a single word that the reduced coaction kills is a cofixed
        # vector, and comes back from its coordinates
        for u in amb.words(n, sub.cap):
            single = Vect.basis(ring, u)
            if coaction_bar(u).is_zero():
                coords = sub.coordinates(n, single)
                assert sub.expand(Vect(ring, coords)) == single
        # a word of the next degree, under a cap of the weight of a basis
        # vector, is not among the stored words
        if basis:
            label = basis[-1]
            w = None if sub.cap is None else amb.weight(
                next(iter(sub.vector_of(label).terms)))
            stray = next(u for u in amb.words(n + 1, w)
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
    assert dl.cap == 5
    _check_coordinates(dl, reduced_coaction(pl), 5)


@pytest.mark.parametrize("ring", [ZZ, F2], ids=["Z", "F2"])
@pytest.mark.parametrize("model", ["double-loop", "identity", "trivial"])
def test_capped_cofixed_vectors_have_one_weight(model, ring):
    """Under a weight cap each degree has one kernel, over all its words:
    every basis vector of the S2 double loop, of the identity fiber of S2
    and of the trivial fiber S3 -> S2 still has words of a single
    weight."""
    A2 = AWCoalgebra.strict(sphere_model(2, ring, 6))
    if model == "double-loop":
        sub, _ = double_loop(A2)
    elif model == "identity":
        sub, _ = loop_fiber(A2, A2, identity_family(A2))
    else:
        A3 = aw(3, ring, 6)
        sub, _ = loop_fiber(A3, A2, trivial_family(A3, A2))
    assert sub.cap == 6
    weights = set()
    for n in range(7):
        for label in sub.basis(n):
            ws = {sub.ambient.weight(u) for u in sub.vector_of(label).terms}
            assert len(ws) == 1, label
            weights |= ws
    assert len(weights) > 3


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
    """The degree-2 self-map of S3 pushes s[L.x3] to 2 s[x3], so the
    reduced coaction of the fiber model has the entry 2, which is no
    pivot over Z.  The projection needs none: the cofixed vector of the
    start word s[L.x3] is s[L.x3] - 2 s[R.x3], and a vector's coordinate
    is its coefficient at that word, integral over Z and a fraction over
    Q.  In every degree each basis vector is 1 at its own start word and
    0 at the others."""
    A = aw(3, ring, 6)
    sub = FiberCoaction(A, A, shmap_from_document(
        {"components": MAPS["degree2"][2]}, A.C, A.C)).cofixed()
    left, right = (("w", s_letter((tag, "x3"))) for tag in ("inl", "inr"))
    line = Vect(ring, [(left, 1), (right, -2)])
    assert reduced_coaction(sub.coaction)(left) == Vect(
        ring, [(("t", ("w",), ("w", s_letter("x3"))), 2)])
    (label,) = [l for l in sub.basis(2) if sub.vector_of(l) == line]
    assert sub.coordinates(2, line.scale(3)) == {label: 3}
    if ring.kind == "Q":
        assert sub.coordinates(2, line.scale(Fraction(1, 2))) == \
            {label: Fraction(1, 2)}
    for n in range(7):
        basis, words = sub.basis(n), sub.ambient.words(n)
        starts = [words[j] for j in sub._starts[n]]
        for label, start in zip(basis, starts):
            v = sub.vector_of(label)
            assert {u: v.terms.get(u, 0) for u in starts} == \
                {u: 1 if u == start else 0 for u in starts}


COACTION_DOCUMENTS = {"S3": os.path.join(SAMPLES, "sphere3.json"),
                      "S3xS5": os.path.join(HERE, "tests", "golden",
                                            "inputs", "product3-5.json"),
                      "nonprimitive": os.path.join(SAMPLES,
                                                   "nonprimitive.json")}
RINGS = [ZZ, F2, Ring("Fp", 3)]
RING_IDS = ["Z", "F2", "Fp3"]


# noncoassoc and wedge3-5: documents on which verify's cofreeness suite
# still reads nu; oddprefix: a level-2 diagonal with the two-letter first
# slot s[a4]s[b3], whose first letter is odd, so that nu(s[bar c6]) bars
# s[b3] with a sign
NU_DOCUMENTS = dict(COACTION_DOCUMENTS, **{
    "noncoassoc": os.path.join(SAMPLES, "noncoassoc.json"),
    "wedge3-5": os.path.join(HERE, "tests", "golden", "inputs",
                             "wedge3-5.json"),
    "oddprefix": {"name": "oddprefix", "ring": "Z", "cutoff": 8,
                  "generators": [{"label": "a4", "degree": 4},
                                 {"label": "b3", "degree": 3},
                                 {"label": "c6", "degree": 6}],
                  "psi": {"2": {"c6": [[1, ["a4", "1"], ["b3", "1"]]]}}}})

# map documents on sphere models: the degree-2 self-map of S3, and the
# quaternionic Hopf map S7 -> S4, a strongly homotopy map given by its
# level-2 component alone
MAPS = {"degree2": (3, 3, {"1": {"x3": [[2, ["x3"]]]}}),
        "hopf": (7, 4, {"2": {"x7": [[1, ["x4", "x4"]]]}})}


def _check_nu_is_projected_psi(pl, top, max_weight=None):
    """nu(w) is the full comultiplication of w for the homotopy diagonal
    extended to P(C) (tests/models.py) with every term that has a barred
    letter in the second slot dropped."""
    ring, hopf = pl.ring, InducedHopf(extend_psi(pl.base_hopf.aw))
    checked = 0
    for n in range(top + 1):
        for w in pl.omega.words(n, max_weight):
            want = Vect(ring)
            for (_, u, v), c in hopf.psi(w).items():
                if not any(isinstance(l[1], tuple) and l[1][0] == "bar"
                           for l in v[1:]):
                    want.iadd_term(c, ("t", u, v))
            assert pl.coaction(w) == want, w
            checked += 1
    return checked


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("doc", sorted(NU_DOCUMENTS))
def test_nu_is_the_bar_filtered_comultiplication(doc, ring):
    doc = NU_DOCUMENTS[doc]
    _, A = coalgebra_from_document(
        doc if isinstance(doc, dict) else load_json(doc), ring=ring,
        cutoff=8)
    assert _check_nu_is_projected_psi(PathLoop(A), 8)


def test_weight_capped_nu_is_the_bar_filtered_comultiplication():
    pl = PathLoop(AWCoalgebra.strict(sphere_model(2, F2, 5)))
    assert not pl.omega.finite_type
    assert _check_nu_is_projected_psi(pl, 4, max_weight=6)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("family", ["trivial", "identity"] + sorted(MAPS)
                         + ["nonprimitive"])
def test_fiber_nu_is_the_pushed_comultiplication(family, ring):
    """On S5 -> S3 (trivial map), S3 -> S3 (identity), the maps of MAPS
    and the identity of nonprimitive, whose level-2 diagonal reaches the
    inl letters, nu(w) is the full comultiplication of w for the
    coproduct's homotopy diagonal (tests/models.py) with its second slot
    pushed to Omega C: inl letters through the family, unbarred inr
    letters to themselves and barred ones to 0."""
    if family == "nonprimitive":
        _, A = coalgebra_from_document(load_json(
            COACTION_DOCUMENTS[family]), ring=ring, cutoff=8)
        fc = FiberCoaction(A, A, identity_family(A))
    else:
        fc = _coaction_of(family, ring, 8)
    hopf = InducedHopf(aw_coproduct(fc.source_hopf.aw,
                                    extend_psi(fc.base_hopf.aw)))

    def push_letter(letter):
        tag, inner = letter[1]
        if tag == "inl":
            return fc.family.induced_letter_value(s_letter(inner))
        if isinstance(inner, tuple) and inner[0] == "bar":
            return Vect.zero(ring)
        return Vect.basis(ring, ("w", s_letter(inner)))

    push = hopf.omega.algebra_map(push_letter, fc.omega_base.mul,
                                  fc.omega_base.unit)
    for n in range(9):
        for w in fc.omega.words(n):
            want = Vect(ring)
            for (_, u, v), c in hopf.psi(w).items():
                for w2, c2 in push(v).items():
                    want.iadd_term(c * c2, ("t", u, w2))
            assert fc.coaction(w) == want, w


def _in_omega_c(co, letter):
    """Whether a letter of a coaction's word algebra is one of Omega C:
    unbarred, and for a fiber on the target side."""
    g = letter[1]
    if isinstance(co, FiberCoaction):
        if g[0] != "inr":
            return False
        g = g[1]
    return not (isinstance(g, tuple) and g[0] == "bar")


def _coaction_of(model, ring, cutoff):
    A3 = aw(3, ring, cutoff)
    if model == "double-loop":
        return PathLoop(A3)
    if model == "S2":
        return PathLoop(AWCoalgebra.strict(sphere_model(2, ring, cutoff)))
    if model in COACTION_DOCUMENTS:
        _, A = coalgebra_from_document(load_json(COACTION_DOCUMENTS[model]),
                                       ring=ring, cutoff=cutoff)
        return PathLoop(A)
    if model == "trivial":
        A5 = aw(5, ring, cutoff)
        return FiberCoaction(A5, A3, trivial_family(A5, A3))
    if model == "identity":
        return FiberCoaction(A3, A3, identity_family(A3))
    p, q, components = MAPS[model]
    Ap, A = aw(p, ring, cutoff), aw(q, ring, cutoff)
    return FiberCoaction(Ap, A, shmap_from_document(
        {"components": components}, Ap.C, A.C))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("model", ["double-loop", "trivial", "identity"]
                         + sorted(MAPS) + ["S3xS5", "nonprimitive", "S2"])
def test_kernels_are_the_kernels_of_the_label_columns(model, ring):
    """The projections P(w) of the start words span the kernel of the
    label columns of the reduced coaction: each is killed by it, P(w) - w
    has only words that end in a letter of Omega C (so the P(w) are 1 at
    their own start word and 0 at the others, and independent), and
    their number is the nullity of the label columns, by rank-nullity.
    The S2 double loop is capped, with a degree-0 letter."""
    cutoff = {"S3xS5": 8, "nonprimitive": 8, "S2": 6}.get(model, 9)
    co = _coaction_of(model, ring, cutoff)
    sub, nu_bar = co.cofixed(), reduced_coaction(co)
    assert (sub.cap is not None) == (model == "S2")
    for n in range(cutoff + 1):
        words, rows = co.omega.words(n, sub.cap), {}
        cols = [{rows.setdefault(l, len(rows)): c
                 for l, c in nu_bar(u).items()} for u in words]
        rank, _ = linalg.rank_and_torsion(cols, ring)
        assert sub.rank(n) == len(words) - rank, n
        starts = [words[j] for j in sub._starts[n]]
        assert starts == [u for u in words
                          if u == ("w",) or not _in_omega_c(co, u[-1])]
        for label, start in zip(sub.basis(n), starts):
            v = sub.vector_of(label)
            assert _coaction_kills(ring, nu_bar, v), label
            rest = v - Vect.basis(ring, start)
            assert all(u != ("w",) and _in_omega_c(co, u[-1])
                       for u in rest.terms), label


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("model", ["double-loop", "identity", "S2"]
                         + sorted(MAPS))
def test_coactions_are_comodules(model, ring):
    """(nu (x) 1)nu = (1 (x) Delta)nu on every letter of the double-loop
    and fiber coactions that the commands accept."""
    assert _coaction_of(model, ring, 8).comodule_defects() == []


def test_a_fiber_over_a_non_coassociative_target_is_no_comodule():
    """On the identity map of noncoassoc, Omega C is not coassociative at
    s[u7], and nu restricts to its comultiplication on s[R.u7]: nu is no
    coaction there, nor on the letters of u7 in the source and of bar(u7).
    comodule_defects names them with the nonzero difference of the two
    sides, on codes.  At cutoff 6, which drops u7, there is none."""
    for cutoff, want in ((8, [("inl", "u7"), ("inr", "u7"),
                              ("inr", bar("u7"))]), (6, [])):
        _, A = coalgebra_from_document(load_json(os.path.join(
            SAMPLES, "noncoassoc.json")), cutoff=cutoff)
        defects = FiberCoaction(A, A, identity_family(A)).comodule_defects()
        assert [letter for letter, _ in defects] == list(map(s_letter, want))
        assert all(residue for _, residue in defects)


def _run_recording_builds(monkeypatch, capsys, argv):
    """Run a command and record what it builds: the coactions and the
    words that their nu is asked for and works out, each InducedHopf, the
    coalgebra of each CobarAlgebra, the number of tensor coalgebras,
    whichever module calls for them, and each TensorSquare.mul as (inside
    an InducedHopf letter value, its right factor)."""
    from loopalg import coalg
    from loopalg.cli import main
    built = {"coactions": [], "hopfs": [], "omegas": [], "tensors": 0,
             "asked": [], "worked": [], "products": []}
    init, nu, tensor = InducedHopf.__init__, PathLoop.nu, \
        coalg.tensor_coalgebra
    omega_init = CobarAlgebra.__init__
    nu_letter, mul = InducedHopf._nu_letter, TensorSquare.mul
    inside = []

    def recording_nu_letter(self, l):
        inside.append(l)
        try:
            return nu_letter(self, l)
        finally:
            inside.pop()

    def recording_mul(self, u, v):
        built["products"].append((bool(inside), v))
        return mul(self, u, v)

    def recording_init(self, aw):
        built["hopfs"].append(self)
        init(self, aw)

    def recording_omega(self, C):
        built["omegas"].append(C)
        omega_init(self, C)

    def recording_nu(self, word):
        if self not in built["coactions"]:
            built["coactions"].append(self)
        built["asked"].append(word)
        if word and word not in self._nu_cache:
            built["worked"].append(word)
        return nu(self, word)

    def counting_tensor(C, Cp):
        built["tensors"] += 1
        return tensor(C, Cp)

    monkeypatch.setattr(InducedHopf, "__init__", recording_init)
    monkeypatch.setattr(CobarAlgebra, "__init__", recording_omega)
    monkeypatch.setattr(InducedHopf, "_nu_letter", recording_nu_letter)
    monkeypatch.setattr(TensorSquare, "mul", recording_mul)
    for cls in (PathLoop, FiberCoaction):
        monkeypatch.setattr(cls, "nu", recording_nu)
    for name, module in list(sys.modules.items()):
        if name.startswith("loopalg") and \
                getattr(module, "tensor_coalgebra", None) is tensor:
            monkeypatch.setattr(module, "tensor_coalgebra", counting_tensor)
    assert main(argv + ["--format", "json"]) == 0
    built["report"] = json.loads(capsys.readouterr().out)
    return built


def _check_nu_on_codes(built):
    """nu is asked for words of int codes, works out each word once, and
    keeps fewer of them than it is asked for: only the words that a
    letter can still extend."""
    (co,), asked, worked = built["coactions"], built["asked"], \
        built["worked"]
    assert all(type(x) is int for w in asked for x in w)
    assert len(worked) == len(set(worked)) == len(set(asked) - {()}) > 100
    assert set(co._nu_cache) < set(worked) and len(worked) < len(asked)
    _check_one_product_path(built)
    return co


def _check_one_product_path(built):
    """No label product of words is formed: every TensorSquare.mul is a
    step of the letterwise split inside a letter value of an InducedHopf,
    its right factor one letter's image."""
    assert built["products"]
    for inside, v in built["products"]:
        assert inside and len(v.terms) <= 1, v
        assert all(len(a) + len(b) == 3 for _, a, b in v.terms), v


def _check_one_omega_per_coalgebra(built, count):
    """The command builds count cobar algebras, no two on one coalgebra,
    and each InducedHopf reads the Omega C and Omega(C (x) C) of its
    diagonal's coherence check."""
    assert len(built["omegas"]) == len(set(map(id, built["omegas"]))) == count
    for hopf in built["hopfs"]:
        assert (hopf.omega, hopf.omega_tensor) == hopf.aw.psi.omegas
        assert hopf is hopf.aw.hopf


def test_double_loop_builds_no_comultiplication_of_a_word(monkeypatch,
                                                          capsys):
    """nu comes from the letter values of the base diagonal, on codes:
    the Z double loop of S3 at cutoff 9 builds no InducedHopf but the
    coaction's base_hopf, no tensor coalgebra but the document's own, and
    no cobar algebra but Omega C, Omega(C (x) C) and Omega P(C)."""
    built = _run_recording_builds(monkeypatch, capsys, [
        "double-loop", os.path.join(SAMPLES, "sphere3.json"), "--ring", "Z",
        "--cutoff", "9"])
    # rationally the double loop of S3 is a circle
    assert built["report"]["betti"] == [1, 1, 0, 0, 0, 0, 0, 0, 0]
    pl = _check_nu_on_codes(built)
    assert built["hopfs"] == [pl.base_hopf] and built["tensors"] == 1
    _check_one_omega_per_coalgebra(built, 3)


def test_fiber_builds_no_comultiplication_of_a_word(monkeypatch, capsys):
    """The F2 fiber of the trivial map S5 -> S3 at cutoff 9 builds no
    InducedHopf but the coaction's base_hopf and source_hopf, no tensor
    coalgebra but the two documents' own, and no cobar algebra but those
    of C', C' (x) C', C, C (x) C and C' (+) P(C)."""
    built = _run_recording_builds(monkeypatch, capsys, [
        "fiber", os.path.join(SAMPLES, "sphere5.json"),
        os.path.join(SAMPLES, "sphere3.json"), "--ring", "F2",
        "--cutoff", "9"])
    fc = _check_nu_on_codes(built)
    assert built["hopfs"] == [fc.base_hopf, fc.source_hopf]
    assert built["tensors"] == 2
    _check_one_omega_per_coalgebra(built, 5)


def test_cotor_takes_psi_of_words_from_nu_on_codes(monkeypatch, capsys):
    """cotor --hopf self of nonprimitive over Z at cutoff 6 reads psi of
    every word of Omega C of degrees 1 through 7, and forms no label
    product of words for it."""
    built = _run_recording_builds(monkeypatch, capsys, [
        "cotor", "--hopf", "self", os.path.join(SAMPLES, "nonprimitive.json"),
        "--ring", "Z", "--cutoff", "6"])
    (hopf,) = built["hopfs"]
    assert built["report"]["betti"] == [1] + [0] * 5
    assert len(hopf._psi_cache) == sum(
        len(hopf.omega.words(n)) for n in range(1, 8)) == 19
    assert not built["coactions"]
    _check_one_product_path(built)
    _check_one_omega_per_coalgebra(built, 3)


@pytest.mark.parametrize("argv,omegas", [
    (["cotor", "--ring", "Z"], 3), (["formal-dl", "--ring", "F2"], 3),
    (["verify", "--ring", "Z"], 4), (["verify", "--ring", "F2"], 5)],
    ids=["cotor", "formal-dl", "verify-Z", "verify-F2"])
def test_commands_build_one_induced_hopf_algebra(monkeypatch, capsys, argv,
                                                  omegas):
    """Each command on S3 at cutoff 6 builds the document's InducedHopf
    once, on its diagonal's Omega C, and at most one cobar algebra on any
    coalgebra: cotor adds that of H's coalgebra, formal-dl that of P(C),
    and verify both of these and, over a field, the bracket model's."""
    built = _run_recording_builds(monkeypatch, capsys, argv + [
        os.path.join(SAMPLES, "sphere3.json"), "--cutoff", "6"])
    assert len(built["hopfs"]) == 1
    _check_one_omega_per_coalgebra(built, omegas)


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
    assert _index_diff_matches_label_route(dl, 5) > 10


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
