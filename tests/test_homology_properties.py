"""Property tests for homology by sparse elimination.

Random integer chain complexes with d^2 = 0 are built as
d_{n+1} = K_n R_n, where the columns of K_n span ker d_n and R_n is
random, so torsion appears wherever R_n has non-unit invariant factors.
The ranks and torsion that ChainComplex.homology reports are compared
with the full cycle presentation (saturated kernels and Smith normal
form), and with the universal-coefficient prediction over F2, F3 and Q.
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
    return ChainComplex(ring, bases, diff, cutoff=TOP)


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
    assert linalg.invariant_factors(mat) == [x for x in diag if x]


@pytest.mark.parametrize("ring", [ZZ, F2], ids=["Z", "F2"])
def test_nonzero_square_raises(ring):
    # d(c) = b, d(b) = a
    images = {"c": Vect.basis(ring, "b"), "b": Vect.basis(ring, "a")}
    cx = ChainComplex(ring, {0: ["a"], 1: ["b"], 2: ["c"]},
                      lambda label: images.get(label, Vect.zero(ring)),
                      cutoff=2)
    assert cx.homology(0).free_rank == 0
    with pytest.raises(ValueError):
        cx.homology(1)
