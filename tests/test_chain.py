"""Chain complexes: differentials, homology ranks, torsion, classes."""

import pytest

from loopalg.rings import ZZ, QQ, F2, Ring
from loopalg.vectors import Vect
from loopalg.chain import ChainComplex

from models import betti


def mul_by(ring, n, target):
    return lambda label: Vect.basis(ring, target, n)


def test_projective_plane_mod_torsion():
    # 0 -> Z --2--> Z -> 0 in degrees 2 -> 1: RP^2-style torsion
    bases = {1: ["e1"], 2: ["e2"]}

    def diff(label):
        if label == "e2":
            return Vect.basis(ZZ, "e1", 2)
        return Vect.zero(ZZ)

    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=3)
    ok, _, _ = cx.verify_differential()
    assert ok
    h1 = cx.homology(1)
    assert h1.free_rank == 0 and h1.torsion == [2]
    assert cx.homology(2).free_rank == 0

    cx2 = ChainComplex.from_labels(F2, bases,
                                   lambda l: Vect.zero(F2) if l == "e1"
                                   else Vect.basis(F2, "e1", 2), cutoff=3)
    assert betti(cx2, 1, 2) == [1, 1]


def test_acyclic_pair():
    bases = {0: ["a"], 1: ["b"]}
    diff = lambda l: Vect.basis(ZZ, "a") if l == "b" else Vect.zero(ZZ)
    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=2)
    assert betti(cx, 0, 1) == [0, 0]


def test_homology_cutoff_guard():
    cx = ChainComplex.from_labels(ZZ, {0: ["a"]}, lambda l: Vect.zero(ZZ),
                                  cutoff=2)
    assert cx.homology(1).free_rank == 0
    with pytest.raises(ValueError):
        cx.homology(2)


def test_diff_leaving_basis_detected():
    bases = {0: ["a"], 1: ["b"]}
    diff = lambda l: Vect.basis(ZZ, "zz") if l == "b" else Vect.zero(ZZ)
    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=2)
    with pytest.raises(ValueError):
        cx.matrix(1)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        ChainComplex.from_labels(ZZ, {0: ["a", "a"]},
                                 lambda l: Vect.zero(ZZ), cutoff=1)


def test_class_of_torsion_and_free():
    # degree 1: cycles z1 (torsion rep via 2z1 = d(e2)) and z2 (free)
    bases = {1: ["z1", "z2"], 2: ["e2"]}

    def diff(label):
        if label == "e2":
            return Vect.basis(ZZ, "z1", 2)
        return Vect.zero(ZZ)

    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=3)
    h = cx.homology(1)
    assert h.free_rank == 1 and h.torsion == [2]
    # torsion coordinate first, free second
    c = h.class_of(Vect.basis(ZZ, "z1", 1))
    assert len(c) == 2 and c[0] % 2 == 1 and c[1] == 0
    c2 = h.class_of(Vect.basis(ZZ, "z1", 2))
    assert c2[0] % 2 == 0 and c2[1] == 0
    c3 = h.class_of(Vect.basis(ZZ, "z2"))
    assert c3[0] % 2 == 0 and c3[1] != 0


def test_field_class_of():
    bases = {1: ["z1", "z2"], 2: ["e2"]}
    diff = lambda l: (Vect.basis(QQ, "z1") if l == "e2" else Vect.zero(QQ))
    cx = ChainComplex.from_labels(QQ, bases, diff, cutoff=3)
    h = cx.homology(1)
    assert h.free_rank == 1
    assert h.class_of(Vect.basis(QQ, "z1")) == [0]
    assert h.class_of(Vect.basis(QQ, "z2")) != [0]


@pytest.mark.parametrize("seed", range(40))
def test_verify_differential_takes_each_differential_once(seed):
    """Random complexes, some with d^2 != 0 and some with terms off the
    stored basis, calling diff once per label.  Degree by degree upwards,
    verify_differential refuses a degree whose differential leaves the
    basis, and otherwise gives the first label of the plain d(d(g))
    sweep whose residue is not zero, with that residue."""
    import random
    rng = random.Random(seed)
    ring = [ZZ, QQ, F2, Ring("Fp", 3)][seed % 4]
    bases = {n: ["g%d_%d" % (n, i) for i in range(rng.randint(1, 4))]
             for n in range(4)}
    table = {}
    for n in range(1, 4):
        for label in bases[n] + ["off%d" % n]:
            terms = [(t, rng.randint(-2, 2)) for t in bases[n - 1]]
            if rng.random() < 0.3:
                terms.append(("off%d" % (n - 1), 1))
            table[label] = Vect(ring, terms)
    calls = []

    def diff(label):
        calls.append(label)
        return table.get(label, Vect.zero(ring))

    want = (True, None, None)
    for n in range(4):
        labels = bases[n]
        if any(l not in bases.get(n - 1, []) for g in labels
               for l in table.get(g, Vect.zero(ring)).terms):
            want = ValueError
            break
        failing = [(g, r) for g in labels
                   if not (r := table.get(g, Vect.zero(ring)).map_terms(
                       lambda l: table.get(l, Vect.zero(ring)))).is_zero()]
        if failing:
            want = (False,) + failing[0]
            break
    cx = ChainComplex.from_labels(ring, bases, diff, cutoff=4)
    if want is ValueError:
        with pytest.raises(ValueError, match="leaves the stored basis"):
            cx.verify_differential()
    else:
        assert cx.verify_differential() == want
    assert len(calls) == len(set(calls))


def test_verify_differential_and_homology_share_the_columns():
    """d^2 = 0 is checked once per degree, on the columns that homology
    then eliminates: each label's differential is taken once in all, and
    homology refuses a nonzero d_n d_{n+1} with its own message."""
    bases = {0: ["a"], 1: ["b", "c"], 2: ["e"]}
    table = {"b": Vect.basis(ZZ, "a"), "c": Vect.basis(ZZ, "a"),
             "e": Vect(ZZ, [("b", 1), ("c", -1)])}
    calls = []

    def diff(label):
        calls.append(label)
        return table.get(label, Vect.zero(ZZ))

    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=3)
    assert cx.verify_differential() == (True, None, None)
    assert betti(cx) == [0, 0, 0]
    assert sorted(calls) == ["a", "b", "c", "e"]
    table["e"] = Vect.basis(ZZ, "b")
    cx = ChainComplex.from_labels(ZZ, bases, diff, cutoff=3)
    assert cx.verify_differential() == (False, "e", Vect.basis(ZZ, "a"))
    with pytest.raises(ValueError, match=r"d\^2 != 0: d_1 d_2 is not zero"):
        cx.homology(1)
    assert cx.homology(0).free_rank == 0


def test_verify_differential_of_a_path_loop_takes_each_label_once():
    """The d^2 sweep of a path-loop complex takes each degree's columns
    from the builder once, and d_columns builds each word's column once,
    the shorter words' on the way."""
    from models import sphere_model
    from loopalg.shfamily import AWCoalgebra
    from loopalg.pathloop import PathLoop
    A = AWCoalgebra.strict(sphere_model(3, Ring("Fp", 3), 8))
    om = PathLoop(A).omega
    cx = om.to_chain_complex()
    degrees, built = [], []
    columns, d_columns = cx._build, om.d_columns

    def counting(n, cap=None):
        fresh = (n, cap) not in om._columns
        cols = d_columns(n, cap)
        if fresh:
            built.extend((n, cap, i) for i in range(len(cols)))
        return cols

    cx._build = lambda n: degrees.append(n) or columns(n)
    om.d_columns = counting
    assert cx.verify_differential() == (True, None, None)
    assert sorted(degrees) == cx.degrees()
    assert len(built) == len(set(built)) > 80
    assert {(n, None, i) for n in cx.degrees()
            for i in range(cx.rank(n))} <= set(built)


def test_constructions_own_their_range():
    """Every construction builds its complex through its own cutoff,
    under its own weight cap: no to_chain_complex or cofixed takes a
    parameter, and no construction takes a display name but DGCoalgebra,
    whose name is a document's.  The budget of words() stays."""
    import importlib
    import inspect
    import pkgutil

    import loopalg
    from loopalg.coalg import DGCoalgebra
    from loopalg.cobar import CobarAlgebra, OneSidedCobar, TwistedHopfTensor
    from loopalg.formal import FormalDoubleLoop
    from loopalg.pathloop import PathLoop, FiberCoaction, trivial_family
    from loopalg.shfamily import AWCoalgebra, InducedHopf
    from models import sphere_model

    allowed = {("DGCoalgebra.__init__", "name"),
               ("ring_from_name", "name"),
               ("FreeAlgebra.words", "max_weight"),
               ("FreeAlgebra._words", "max_weight")}
    for info in pkgutil.iter_modules(loopalg.__path__):
        mod = importlib.import_module("loopalg." + info.name)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                fns = [("%s.%s" % (name, k), getattr(obj, k))
                       for k, v in vars(obj).items() if inspect.isfunction(v)
                       or isinstance(v, (classmethod, staticmethod))]
            else:
                fns = [(name, obj)] if inspect.isfunction(obj) else []
            for qual, fn in fns:
                params = inspect.signature(fn).parameters
                if qual.endswith((".to_chain_complex", ".cofixed")):
                    assert list(params) == ["self"], qual
                for knob in ("name", "top", "max_weight"):
                    assert knob not in params or (qual, knob) in allowed, \
                        (qual, knob)

    def aw(n, ring, cutoff):
        return AWCoalgebra.strict(sphere_model(n, ring, cutoff))

    circle = DGCoalgebra(ZZ, 5, {"e1": 1})
    A2, A3, A5 = aw(2, F2, 5), aw(3, ZZ, 6), aw(5, ZZ, 7)
    models = [(CobarAlgebra(A3.C), None), (CobarAlgebra(circle), 5),
              (OneSidedCobar(CobarAlgebra(circle), "left"), 5),
              (OneSidedCobar(CobarAlgebra(A3.C), "right"), None),
              (TwistedHopfTensor(InducedHopf(A3), 5), None),
              (TwistedHopfTensor(InducedHopf(A2), 5), 5),
              (PathLoop(A3).omega, None), (PathLoop(A3).cofixed(), None),
              (PathLoop(A2).omega, 5), (PathLoop(A2).cofixed(), 5),
              (FiberCoaction(A5, A3, trivial_family(A5, A3)).cofixed(), None),
              (FormalDoubleLoop(A2.C), 5)]
    for model, cap in models:
        cx = model.to_chain_complex()
        assert model.cap == cap, model
        assert cx.cutoff == model.cutoff
        assert sorted(cx.bases) == list(range(model.cutoff + 1)), model
