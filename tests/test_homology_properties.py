"""Property tests for homology by sparse elimination.

Random integer chain complexes with d^2 = 0 are built as
d_{n+1} = K_n R_n, where the columns of K_n span ker d_n and R_n is
random, so torsion appears wherever R_n has non-unit invariant factors.
The ranks and torsion that ChainComplex.homology reports are compared
with the full cycle presentation (saturated kernels and Smith normal
form), and with the universal-coefficient prediction over F2, F3 and Q.
class_of is checked on representatives, boundaries and combinations over
Z, Q, F2 and F3.
"""

import pytest
from hypothesis import given, settings, strategies as st

from loopalg import linalg
from loopalg.chain import ChainComplex
from loopalg.rings import ZZ, QQ, F2, Ring
from loopalg.vectors import Vect

F3 = Ring("Fp", 3)
TOP = 4

entries = st.integers(min_value=-3, max_value=3)


def matrix(m, n, entries=entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=m, max_size=m)


def sparse_columns(mat):
    """The columns of a dense matrix as dicts row index -> nonzero entry."""
    cols = [{} for _ in range(len(mat[0]) if mat else 0)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


@st.composite
def integer_complexes(draw):
    """Dimensions dims[0..TOP] and matrices mats[n] of d_n, n = 1..TOP."""
    dims = draw(st.lists(st.integers(0, 5), min_size=TOP + 1,
                         max_size=TOP + 1))
    mats = {1: draw(matrix(dims[0], dims[1]))}
    for n in range(2, TOP + 1):
        prev = mats[n - 1]
        kernel = (linalg.kernel_saturated(prev) if dims[n - 2]
                  else linalg.identity(dims[n - 1]))
        scale = draw(st.lists(st.sampled_from([1, 1, 2, 3, 6]),
                              min_size=len(kernel), max_size=len(kernel)))
        coeffs = draw(matrix(len(kernel), dims[n]))
        mats[n] = [[sum(kernel[t][i] * scale[t] * coeffs[t][j]
                        for t in range(len(kernel)))
                    for j in range(dims[n])] for i in range(dims[n - 1])]
    return dims, mats


def chain_complex(ring, dims, mats):
    bases = {n: ["e%d.%d" % (n, i) for i in range(dims[n])]
             for n in range(TOP + 1)}
    columns = {}
    for n in range(1, TOP + 1):
        for j, label in enumerate(bases[n]):
            columns[label] = [(bases[n - 1][i], mats[n][i][j])
                              for i in range(dims[n - 1])]

    def diff(label):
        return Vect(ring, columns.get(label, []))
    return ChainComplex.from_labels(ring, bases, diff, cutoff=TOP)


@settings(max_examples=60, deadline=None)
@given(integer_complexes())
def test_integer_homology_matches_cycle_presentation(complex_data):
    dims, mats = complex_data
    cx = chain_complex(ZZ, dims, mats)
    for n in range(TOP):
        h = cx.homology(n)
        full = cx._homology_integer(n)
        assert (h.free_rank, h.torsion) == (full.free_rank, full.torsion)
        assert len(h.representatives) == h.free_rank + len(h.torsion)


@settings(max_examples=40, deadline=None)
@given(integer_complexes())
def test_field_ranks_follow_universal_coefficients(complex_data):
    dims, mats = complex_data
    cx = chain_complex(ZZ, dims, mats)
    hz = [cx.homology(n) for n in range(TOP)]
    for ring in (F2, F3, QQ):
        fx = chain_complex(ring, dims, mats)
        for n in range(TOP):
            expected = hz[n].free_rank
            if ring.kind == "Fp":
                below = hz[n - 1].torsion if n else []
                expected += sum(1 for t in hz[n].torsion + below
                                if t % ring.p == 0)
            h = fx.homology(n)
            assert h.free_rank == expected, (ring, n)
            assert h.free_rank == fx._homology_field(n).free_rank


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(
    lambda n: matrix(m, n, st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -6, 9])))))
def test_invariant_factors_match_smith_normal_form(mat):
    d, _, _ = linalg.smith_normal_form(mat)
    diag = [abs(d[i][i]) for i in range(min(len(d), len(d[0]) if d else 0))]
    rank, torsion = linalg.rank_and_torsion(sparse_columns(mat), ZZ)
    assert rank == sum(1 for x in diag if x)
    assert torsion == [x for x in diag if x > 1]


@pytest.mark.parametrize("ring", [ZZ, F2], ids=["Z", "F2"])
def test_nonzero_square_raises(ring):
    # d(c) = b, d(b) = a
    images = {"c": Vect.basis(ring, "b"), "b": Vect.basis(ring, "a")}
    cx = ChainComplex.from_labels(
        ring, {0: ["a"], 1: ["b"], 2: ["c"]},
        lambda label: images.get(label, Vect.zero(ring)), cutoff=2)
    assert cx.homology(0).free_rank == 0
    with pytest.raises(ValueError):
        cx.homology(1)


@settings(max_examples=40, deadline=None)
@given(integer_complexes(), st.randoms(use_true_random=False))
def test_class_of_round_trip(complex_data, rng):
    """class_of sends the i-th representative to e_i and a boundary to 0,
    and is linear, with torsion coordinates taken mod their invariant
    factor."""
    dims, mats = complex_data
    for ring in (ZZ, QQ, F2, F3):
        cx = chain_complex(ring, dims, mats)
        for n in range(TOP):
            h = cx.homology(n)
            moduli = h.torsion + [0] * h.free_rank \
                if ring.kind == "Z" else [0] * h.free_rank

            def reduce(coords):
                return [ring.norm(c % m if m else c)
                        for c, m in zip(coords, moduli)]

            reps = h.representatives
            for i, rep in enumerate(reps):
                assert h.class_of(rep) == reduce(
                    [int(j == i) for j in range(len(reps))])

            def boundary():
                v = Vect(ring)
                for col in cx.columns(n + 1):
                    v = v + Vect(ring, {cx.basis(n)[i]: c for i, c in
                                        col.items()}).scale(rng.randint(-3, 3))
                return v

            assert h.class_of(boundary()) == [ring.zero] * len(reps)
            coeffs = [rng.randint(-3, 3) for _ in reps]
            x = boundary()
            for c, rep in zip(coeffs, reps):
                x = x + rep.scale(c)
            assert h.class_of(x) == reduce(coeffs)
            y = boundary() + reps[-1] if reps else boundary()
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert h.class_of(x.scale(a) + y.scale(b)) == reduce(
                [a * s + b * t for s, t in zip(h.class_of(x), h.class_of(y))])
