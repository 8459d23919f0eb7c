"""Acceptance suite: quantitative desk-scale checks of every construction
on the example corpus (spheres, a tensor product, and a coalgebra with a
nontrivial level-2 homotopy diagonal).

Where a complex is too large for a basiswise d^2 sweep, d^2 = 0 is proved
structurally: the differential of a word algebra is a derivation and the
coaction is an algebra map, so d^2 = 0 on letters extends to all words,
and compatibility of d with the coaction on letters shows the cofixed
subspace is closed under d.  Both letter checks are exact.
"""

import json
import os
import time
from collections import Counter

import pytest

from loopalg import linalg
from loopalg.rings import ZZ, QQ, F2
from loopalg.vectors import Vect
from loopalg.coalg import tensor_coalgebra
from loopalg.cobar import CobarAlgebra, OneSidedCobar
from loopalg.shfamily import (AWCoalgebra, InducedHopf, TensorSquare,
                              letterwise_split)
from loopalg.pathloop import (path_object, PathLoop, identity_family,
                              trivial_family)
from loopalg.formal import FormalDoubleLoop
from loopalg.documents import coalgebra_from_document, load_json
from loopalg.cli import main

from models import (double_loop, loop_fiber, tensor_square_complex, betti,
                    sphere_model, reduced_coaction, extend_psi)

CUTOFF = 8
SAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "sample_inputs")
NONPRIMITIVE = os.path.join(SAMPLES, "nonprimitive.json")

_cache = {}


def corpus(ring=ZZ):
    """The acceptance corpus at cutoff 8: name, homotopy-diagonal model,
    weight cap (None when the word algebra is of finite type)."""
    key = ("corpus", ring.name)
    if key not in _cache:
        members = [
            ("S2", AWCoalgebra.strict(sphere_model(2, ring, CUTOFF)), CUTOFF),
            ("S3", AWCoalgebra.strict(sphere_model(3, ring, CUTOFF)), None),
            ("S5", AWCoalgebra.strict(sphere_model(5, ring, CUTOFF)), None),
            ("S2xS3", AWCoalgebra.strict(tensor_coalgebra(
                sphere_model(2, ring, CUTOFF),
                sphere_model(3, ring, CUTOFF))), CUTOFF),
        ]
        _, A = coalgebra_from_document(load_json(NONPRIMITIVE), ring=ring)
        members.append(("nonprim", A, None))
        _cache[key] = members
    return _cache[key]


def pathloop_of(name, A):
    key = ("pl", name, A.ring.name)
    if key not in _cache:
        _cache[key] = PathLoop(A)
    return _cache[key]


def assert_d2(obj, what=""):
    cx = obj.to_chain_complex()
    ok, label, residue = cx.verify_differential()
    assert ok, (what, label, residue)
    return cx


def letters_d2(om, what=""):
    """d^2 = 0 on every letter; the derivation property extends this to
    every word of the algebra."""
    for letter, l in om.code.items():
        assert om.d_word((l,)).map_terms(om.d_word).is_zero(), \
            (what, letter)


def coaction_chain_map_letters(om, om_base, nu, what=""):
    """nu d = (d (x) 1 + (-1)^deg (x) d) nu on letters.  nu is an algebra
    map and both sides are nu-derivations, so letters decide; together
    with d^2 = 0 on the ambient this proves d^2 = 0 on the cofixed
    subcomplex."""
    ring = om.ring
    for letter, l in om.code.items():
        lhs = om.d_word((l,)).map_terms(nu)
        rhs = Vect(ring)
        for (_, u, v), c in nu((l,)).items():
            for u2, c2 in om.d_word(u).items():
                rhs.iadd_term(c * c2, ("t", u2, v))
            s = -1 if om.degree(u) % 2 else 1
            for v2, c2 in om_base.d_word(v).items():
                rhs.iadd_term(s * c * c2, ("t", u, v2))
        assert (lhs - rhs).is_zero(), (what, letter)


def test_criterion_01_differential_integrity():
    """d^2 = 0 for every construction on the full corpus at cutoff 8,
    in under a minute."""
    t0 = time.time()
    # members whose cofixed kernels at cutoff 8 are out of reach for a
    # basiswise sweep; d^2 = 0 is proved on letters instead (see module
    # docstring)
    big_dl = {"S2xS3", "nonprim"}
    big_hf = {"S2xS3", "nonprim", "S2"}
    for name, A, mw in corpus():
        C = A.C
        om = CobarAlgebra(C)
        assert_d2(om, what=("cobar", name))
        for side in ("right", "left"):
            assert_d2(OneSidedCobar(om, side=side),
                      what=("one-sided", side, name))
        PC = path_object(C)
        ok, problems = PC.verify()
        assert ok, ("path-object", name, problems)
        pl = pathloop_of(name, A)
        if name == "S2xS3":
            letters_d2(pl.omega, ("path-loop", name))
        else:
            assert_d2(pl.omega, what=("path-loop", name))
        # double loop: structural proof everywhere, plus a direct sweep
        # of the synthetic complex on the members where it is small
        letters_d2(pl.omega, ("path-loop letters", name))
        coaction_chain_map_letters(pl.omega, pl.omega_base, pl.coaction,
                                   ("double-loop closure", name))
        if name not in big_dl:
            dl, _ = double_loop(A)
            cx = dl.to_chain_complex()
            ok, label, residue = cx.verify_differential()
            assert ok, ("double-loop", name, label, residue)
        # homotopy fiber of the identity map
        hf, fc = loop_fiber(A, A, identity_family(A, A))
        if name in big_hf:
            letters_d2(fc.omega, ("fiber ambient", name))
            coaction_chain_map_letters(fc.omega, fc.omega_base, fc.coaction,
                                       ("fiber closure", name))
        else:
            cx = hf.to_chain_complex()
            ok, label, residue = cx.verify_differential()
            assert ok, ("fiber", name, label, residue)
    # the bracket model needs a field and a primitive input
    for n in (2, 3, 5):
        assert_d2(FormalDoubleLoop(sphere_model(n, F2, CUTOFF)),
                  what=("formal", n))
    Cnp, _ = coalgebra_from_document(load_json(NONPRIMITIVE), ring=F2)
    assert_d2(FormalDoubleLoop(Cnp), what=("formal", "nonprim"))
    elapsed = time.time() - t0
    assert elapsed < 60, "criterion 1 exceeded one minute: %.1fs" % elapsed


def test_criterion_02_acyclic_one_sided_cobar():
    """The twisted one-sided complex has homology R in degree 0 and zero
    in degrees 1..7, for every corpus member."""
    for name, A, mw in corpus():
        om = CobarAlgebra(A.C)
        for side in ("right", "left"):
            cx = OneSidedCobar(om, side=side).to_chain_complex()
            h0 = cx.homology(0)
            assert h0.free_rank == 1 and not h0.torsion, (name, side)
            for n in range(1, CUTOFF):
                h = cx.homology(n)
                assert h.free_rank == 0 and not h.torsion, (name, side, n)


def test_criterion_03_loop_space_ranks():
    """H of the cobar algebra of a sphere has rank 1 in degrees divisible
    by n - 1 and rank 0 otherwise, through degree 7.  The oracle counts
    words in a single letter of degree n - 1 independently."""
    for n in (2, 3, 5):
        cx = CobarAlgebra(sphere_model(n, ZZ, CUTOFF)).to_chain_complex()
        for k in range(0, CUTOFF):
            oracle = 1 if k % (n - 1) == 0 else 0
            h = cx.homology(k)
            assert h.free_rank == oracle and not h.torsion, (n, k)


def test_criterion_04_kappa_identities():
    """The bar-inserting derivation kappa anticommutes with d, satisfies
    the comultiplication identity for the diagonal extended to P(C)
    (tests/models.py), and the coaction identity, which the coaction
    keeps on letters by construction, elementwise on all base words of
    degree <= 6, for the degree-2 and degree-3 sphere models."""
    for name, A, mw in corpus():
        if name not in ("S2", "S3"):
            continue
        pl = pathloop_of(name, A)
        hopf = InducedHopf(extend_psi(A))
        ob = pl.omega_base
        ring = pl.ring
        assert hopf.omega.code == pl.omega.code

        def incl(w):
            """The word of Omega P(C) that a word of Omega C is."""
            return tuple(hopf.omega.code[l] for l in ob.label(w)[1:])
        wmax = None if mw is None else 7
        for deg in range(0, 7):
            for w in ob.words(deg, wmax):
                v = Vect.basis(ring, w)
                # (1) kappa d + d kappa = 0
                assert (pl.kappa(v.map_terms(ob.d_word))
                        + pl.kappa(v).map_terms(pl.omega.d_word)).is_zero(), \
                    (name, w)
                # (3) nu kappa = (kappa (x) 1) psi
                left = Vect(ring)
                for u, c in pl.kappa(v).items():
                    left = left + pl.coaction(u).scale(c)
                right = Vect(ring)
                for (_, a, b), c in pl.base_hopf.psi(w).items():
                    for u2, c2 in pl.kappa(Vect.basis(ring, a)).items():
                        right.iadd_term(c * c2, ("t", u2, b))
                assert (left - right).is_zero(), (name, w)
                # (2) psi~ kappa = (kappa (x) incl + incl (x) kappa) psi
                left2 = Vect(ring)
                for u, c in pl.kappa(v).items():
                    left2 = left2 + hopf.psi(u).scale(c)
                right2 = Vect(ring)
                for (_, a, b), c in pl.base_hopf.psi(w).items():
                    da = ob.degree(a)
                    for u2, c2 in pl.kappa(Vect.basis(ring, a)).items():
                        right2.iadd_term(c * c2, ("t", u2, incl(b)))
                    s = -1 if da % 2 else 1
                    for u2, c2 in pl.kappa(Vect.basis(ring, b)).items():
                        right2.iadd_term(s * c * c2, ("t", incl(a), u2))
                assert (left2 - right2).is_zero(), (name, w)


def f2_block_kernel_rank(pl, n, w):
    """Dimension over F2 of the cofixed part of the (degree, weight)
    block, via bitmask Gaussian elimination on the reduced coaction."""
    alg = pl.omega
    words = [u for u in alg.words(n, w) if alg.weight(u) == w]
    rows = {}
    rank = 0
    pivots = {}
    nu_bar = reduced_coaction(pl)
    for u in words:
        mask = 0
        for label, c in nu_bar(u).items():
            if int(c) % 2 == 0:
                continue
            i = rows.setdefault(label, len(rows))
            mask |= 1 << i
        while mask:
            low = mask & -mask
            p = pivots.get(low)
            if p is None:
                pivots[low] = mask
                rank += 1
                break
            mask ^= p
    return len(words), len(words) - rank


def coaction_nullity(pl, n, w, cap):
    """Dimension of the kernel of the reduced coaction on the words of
    degree n, and of weight w under a cap: the word count less the rank
    of their label columns (rank-nullity)."""
    alg, nu_bar, rows = pl.omega, reduced_coaction(pl), {}
    words = [u for u in alg.words(n, cap) if cap is None or alg.weight(u) == w]
    cols = [{rows.setdefault(l, len(rows)): c for l, c in nu_bar(u).items()}
            for u in words]
    return len(words) - linalg.rank_and_torsion(cols, pl.ring)[0]


def test_criterion_06_cofreeness_rank_identity():
    """rank_n(path-loop) = sum rank_p(double-loop) * rank_q(cobar) for
    n <= 8, corpus-wide, with the double-loop ranks by rank-nullity on the
    coaction matrix, and the cofixed basis of that size in each degree.
    Capped members are checked per weight, each basis vector's weight read
    off its words; the tensor member is checked over F2 where its kernels
    stay within reach."""
    for name, A, mw in corpus():
        if name == "S2xS3":
            continue
        pl = pathloop_of(name, A)
        dl, _ = double_loop(A)
        assert dl.cap == mw, name
        kdim = {(p, w): coaction_nullity(pl, p, w, mw)
                for p in range(CUTOFF + 1)
                for w in ([0] if mw is None else range(mw + 1))}
        count = Counter(
            (p, 0 if mw is None else
             pl.omega.weight(next(iter(dl.vector_of(lab).terms))))
            for p in range(CUTOFF + 1) for lab in dl.basis(p))
        assert dict(count) == {k: r for k, r in kdim.items() if r}, name
        for n in range(0, CUTOFF + 1):
            lhs = len(pl.omega.words(n, mw))
            rhs = sum(r * len(pl.omega_base.words(
                n - p, None if mw is None else mw - w))
                for (p, w), r in kdim.items() if p <= n)
            assert lhs == rhs, (name, n, lhs, rhs)
    # tensor member over F2
    for name, A, mw in corpus(F2):
        if name != "S2xS3":
            continue
        pl = pathloop_of(name, A)
        dlr = {}
        for p in range(CUTOFF + 1):
            for w in range(CUTOFF + 1):
                nwords, kdim = f2_block_kernel_rank(pl, p, w)
                if nwords:
                    dlr[(p, w)] = kdim
        omb = pl.omega_base
        for n in range(0, CUTOFF + 1):
            lhs = len(pl.omega.words(n, CUTOFF))
            rhs = sum(r * len(omb.words(n - p, CUTOFF - w))
                      for (p, w), r in dlr.items() if p <= n)
            assert lhs == rhs, (name, n, lhs, rhs)


def test_criterion_07_formal_model_ranks():
    """Degreewise ranks of the cofixed double-loop model equal the
    ranks of the free algebra on iterated brackets through degree 8, over
    F2 and Q, for the degree-2 and degree-3 spheres."""
    for ring in (F2, QQ):
        for n, mw in ((2, CUTOFF), (3, None)):
            C = sphere_model(n, ring, CUTOFF)
            dl, _ = double_loop(AWCoalgebra.strict(C))
            fm = FormalDoubleLoop(C)
            assert dl.cap == fm.cap == mw, (ring.name, n)
            for k in range(0, CUTOFF + 1):
                assert len(dl.basis(k)) == len(fm.words(k, mw)), \
                    (ring.name, n, k)


def mod2_generator_degrees(C, cutoff):
    """Degrees of the predicted polynomial generators of the mod-2
    homology of the double-loop model: for each generator x, the brackets
    ad^(2^k - 1)(s x)(s xbar), k >= 0, within the cutoff."""
    out = []
    for deg in C.gens.values():
        dv = deg - 1
        dw = deg - 2
        k = 0
        while True:
            d = (2 ** k - 1) * dv + dw
            if d > cutoff:
                break
            if d >= 1:
                out.append(d)
            k += 1
    return sorted(out)


def polynomial_betti(degrees, top):
    """Degreewise ranks of a (commutative) polynomial algebra on
    generators of the given positive degrees."""
    counts = [1] + [0] * top
    for d in degrees:
        for n in range(d, top + 1):
            counts[n] += counts[n - d]
    return counts


def test_criterion_08_mod2_betti_table():
    """F2-Betti numbers of the double-loop model of the 3-sphere equal
    the monomial counts of a polynomial algebra on generators of degrees
    1, 3, 7 -- the table is regenerated here by direct enumeration."""
    t0 = time.time()
    # independent monomial enumeration of F2[u1, u3, u7] by degree
    table = [0] * CUTOFF
    for e1 in range(CUTOFF):
        for e3 in range(CUTOFF // 3 + 1):
            for e7 in range(CUTOFF // 7 + 1):
                d = e1 + 3 * e3 + 7 * e7
                if d < CUTOFF:
                    table[d] += 1
    assert table == [1, 1, 1, 2, 2, 2, 3, 4]
    # the predicted generator degrees agree
    degs = mod2_generator_degrees(sphere_model(3, F2, CUTOFF), CUTOFF - 1)
    assert degs == [1, 3, 7]
    assert polynomial_betti(degs, CUTOFF - 1) == table
    # the computed model
    dl, _ = double_loop(AWCoalgebra.strict(sphere_model(3, F2, CUTOFF)))
    cx = dl.to_chain_complex()
    assert betti(cx, 0, CUTOFF - 1) == table
    elapsed = time.time() - t0
    assert elapsed < 300, "criterion 8 exceeded five minutes: %.1fs" % elapsed


def test_criterion_09_cotor_oracle(capsys):
    """Integer homology of the double-loop model, ranks and torsion,
    equals that of the cobar algebra of the induced Hopf structure (the
    trivial-coefficient Cotor), through degree 5, for the degree-2 and
    degree-3 spheres.  Both come from the command line, so this runs the
    induced comultiplication and the tensor-splitting quotient end to
    end."""
    for doc, cutoff in (("sphere2.json", 6), ("sphere3.json", CUTOFF)):
        reports = []
        for command in ("double-loop", "cotor"):
            code = main([command, os.path.join(SAMPLES, doc), "--cutoff",
                         str(cutoff), "--format", "json"])
            assert code == 0, (command, doc)
            reports.append(json.loads(capsys.readouterr().out)["homology"])
        dl, ct = ([rep[str(n)] for n in range(6)] for rep in reports)
        assert dl == ct, (doc, dl, ct)


def test_criterion_10_fiber_sanity():
    """The homotopy-fiber model of the identity on the 3-sphere is
    acyclic through degree 7; the model of the trivial map from the
    5-sphere has Betti numbers equal to the convolution of the cobar
    ranks of the 5-sphere with the double-loop Betti of the 3-sphere,
    through degree 6."""
    A3 = AWCoalgebra.strict(sphere_model(3, ZZ, CUTOFF))
    hf, _ = loop_fiber(A3, A3, identity_family(A3, A3))
    cx = hf.to_chain_complex()
    assert betti(cx, 0, CUTOFF - 1) == [1] + [0] * (CUTOFF - 1)

    A5 = AWCoalgebra.strict(sphere_model(5, ZZ, 7))
    A3b = AWCoalgebra.strict(sphere_model(3, ZZ, 7))
    hf2, _ = loop_fiber(A5, A3b, trivial_family(A5, A3b))
    b = betti(hf2.to_chain_complex(), 0, 6)
    o5 = betti(CobarAlgebra(sphere_model(5, ZZ, 7)).to_chain_complex(), 0, 6)
    dl3, _ = double_loop(A3b)
    d3 = betti(dl3.to_chain_complex(), 0, 6)
    conv = [sum(o5[p] * d3[n - p] for p in range(n + 1)) for n in range(7)]
    assert b == conv, (b, conv)


def test_criterion_11_tensor_splitting():
    """The multiplicative quotient from the cobar algebra of a tensor
    product to the tensor square of cobar algebras is a chain map
    elementwise through degree 6 and induces the expected homology:
    Betti numbers agree through degree 6 for the (S2, S3) pair."""
    C = sphere_model(2, ZZ, CUTOFF)
    Cp = sphere_model(3, ZZ, CUTOFF)
    omT = CobarAlgebra(tensor_coalgebra(C, Cp))
    omA, omB = CobarAlgebra(C), CobarAlgebra(Cp)
    tsq = TensorSquare(omA, omB)
    split = letterwise_split(omT, tsq)
    for deg in range(0, 7):
        for w in omT.words(deg):
            lhs = omT.d_word(w).map_terms(split)
            rhs = split(w).map_terms(tsq.diff)
            assert (lhs - rhs).is_zero(), w
    bT = betti(omT.to_chain_complex(), 0, 6)
    bS = betti(tensor_square_complex(tsq), 0, 6)
    assert bT == bS, (bT, bS)
