"""Exact linear algebra: Smith normal form, saturated kernels, field
elimination.  Randomized cases are checked against sympy as an oracle."""

import random
from fractions import Fraction

import pytest
from sympy import Matrix, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from loopalg import linalg
from loopalg.rings import QQ, F2, Ring, ZZ as Z


def rand_mat(rng, m, n, lo=-4, hi=4):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def sparse_columns(mat):
    """The columns of a dense matrix as dicts row index -> nonzero entry."""
    cols = [{} for _ in range(len(mat[0]) if mat else 0)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def rank_and_torsion(mat):
    return linalg.rank_and_torsion(sparse_columns(mat), Z)


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = rand_mat(rng, m, n)
        d, u, v = linalg.smith_normal_form(mat)
        assert matmul(matmul(u, mat), v) == d
        assert abs(Matrix(u).det()) == 1
        assert abs(Matrix(v).det()) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0


def test_smith_normal_form_matches_sympy():
    # U and V, not just D, must be sympy's: cotor structure constants are
    # read in the representative basis they give
    rng = random.Random(29)
    pools = [[0, 0, 0, 1, -1, 2], [0, 1, -1, 2, -2, 3, 4, -6, 9, 12],
             list(range(-30, 31)), [0, 0, 0, 0, 2, 4, -6]]
    for _ in range(300):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        pool = rng.choice(pools)
        if rng.random() < 0.3:  # rank at most 2, so zero pivots appear
            r = rng.randrange(1, 3)
            mat = matmul(
                [[rng.choice(pool) for _ in range(r)] for _ in range(m)],
                [[rng.choice(pool) for _ in range(n)] for _ in range(r)])
        else:
            mat = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        dm = DomainMatrix([[ZZ(x) for x in row] for row in mat], (m, n), ZZ)
        expected = [[[int(x) for x in row] for row in f.to_Matrix().tolist()]
                    for f in smith_normal_decomp(dm)]
        assert list(linalg.smith_normal_form(mat)) == expected, mat


def test_smith_normal_form_degenerate_shapes():
    assert linalg.smith_normal_form([]) == ([], [], [])
    assert linalg.smith_normal_form([[], []]) == ([[], []],
                                                  [[1, 0], [0, 1]], [])


def test_invariant_factors_known():
    # rank and the invariant factors other than 0 and 1
    assert rank_and_torsion([[2, 0], [0, 3]]) == (2, [6])
    assert rank_and_torsion([[2, 0], [0, 4]]) == (2, [2, 4])
    assert rank_and_torsion([[0, 0], [0, 0]]) == (0, [])


def test_kernel_saturated_oracle():
    rng = random.Random(23)
    for _ in range(120):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = rand_mat(rng, m, n)
        ker = linalg.kernel_saturated(mat)
        M = Matrix(mat)
        assert len(ker) == n - M.rank()
        for col in ker:
            assert all(x == 0 for x in M * Matrix(col))
        if ker:
            # saturation: the basis extends to a basis of Z^n
            assert rank_and_torsion(ker) == (len(ker), [])


def test_kernel_saturated_degenerate():
    assert linalg.kernel_saturated([[1, 2]]) != []
    assert linalg.kernel_saturated([]) == []
    ker = linalg.kernel_saturated([[0, 0], [0, 0]])
    assert len(ker) == 2


def test_kernel_saturated_needs_bezout():
    # rows force a non-trivial gcd combination; (3,-2) spans the kernel
    ker = linalg.kernel_saturated([[2, 3]])
    assert len(ker) == 1
    a, b = ker[0]
    assert 2 * a + 3 * b == 0
    assert abs(a) == 3 and abs(b) == 2


def test_rref_and_rank():
    r, piv = linalg.rref([[Fraction(2), Fraction(4)],
                          [Fraction(1), Fraction(2)]], QQ)
    assert piv == [0]
    assert len(linalg.rref([[1, 1], [1, 0]], F2)[1]) == 2
    assert len(linalg.rref([[1, 1], [1, 1]], F2)[1]) == 1


def test_kernel_field_oracle():
    rng = random.Random(5)
    for ring in (QQ, F2):
        for _ in range(60):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[ring.norm(x) for x in row] for row in rand_mat(rng, m, n)]
            ker = linalg.kernel_field(mat, ring)
            assert len(ker) == n - len(linalg.rref(mat, ring)[1])
            for col in ker:
                for row in mat:
                    assert not ring.norm(sum(a * x for a, x in zip(row, col)))


def test_solve_field_and_integer():
    sols = linalg.solve_field([[Fraction(2)]], [[Fraction(3)]], QQ)
    assert sols[0] == [Fraction(3, 2)]
    with pytest.raises(ValueError):
        linalg.solve_field([[Fraction(0)]], [[Fraction(1)]], QQ)
    assert linalg.solve_integer([[2]], [[4]]) == [[2]]
    with pytest.raises(ValueError):
        linalg.solve_integer([[2]], [[3]])


def test_integer_inverse():
    u = [[1, 2], [0, 1]]
    assert matmul(u, linalg.integer_inverse(u)) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.integer_inverse([[2, 0], [0, 1]])


F3 = Ring("Fp", 3)
SOLVER_RINGS = [Z, QQ, F2, F3]


def rank(ring, vecs, keys):
    """Rank of dict vectors over keys, from the sparse elimination behind
    homology ranks (over Q for Z: independence is the same)."""
    cols = [{keys.index(u): x for u, x in v.items()} for v in vecs]
    return linalg.rank_and_torsion(cols, QQ if ring.kind == "Z" else ring)[0]


def independent_vectors(rng, ring, keys, k):
    """k random independent sparse vectors over keys, as dicts."""
    vecs = []
    while len(vecs) < k:
        v = {u: x for u in rng.sample(keys, rng.randrange(1, len(keys) + 1))
             if (x := ring.norm(rng.randint(-3, 3)))}
        if v and rank(ring, vecs + [v], keys) == len(vecs) + 1:
            vecs.append(v)
    return vecs


def combination(ring, vecs, coeffs):
    out = {}
    for v, c in zip(vecs, coeffs):
        for u, x in v.items():
            out[u] = out.get(u, 0) + c * x
    return {u: y for u, x in out.items() if (y := ring.norm(x))}


@pytest.mark.parametrize("ring", SOLVER_RINGS, ids=["Z", "Q", "F2", "F3"])
def test_solver_round_trip_and_refusals(ring):
    rng = random.Random(41)
    for _ in range(40):
        keys = ["k%d" % i for i in range(rng.randrange(2, 7))]
        vecs = independent_vectors(rng, ring, keys,
                                   rng.randrange(1, len(keys)))
        solver = linalg.Solver(vecs, keys, ring)
        for _ in range(4):
            coeffs = [ring.norm(rng.randint(-4, 4)) for _ in vecs]
            assert solver.coordinates(combination(ring, vecs, coeffs)) \
                == coeffs
        with pytest.raises(ValueError, match="leaves the stored block"):
            solver.coordinates({**vecs[0], "stray": ring.one})
        outside = next(u for u in keys
                       if rank(ring, vecs + [{u: ring.one}], keys) > len(vecs))
        with pytest.raises(ValueError, match="outside the column space"):
            solver.coordinates({outside: ring.one})
        if ring.kind == "Z":
            # the sum of the vectors is half a combination of their doubles
            doubled = linalg.Solver([combination(ring, [v], [2])
                                     for v in vecs], keys, ring)
            with pytest.raises(ValueError, match="not integral"):
                doubled.coordinates(combination(ring, vecs, [1] * len(vecs)))


@pytest.mark.parametrize("ring", [Z, QQ], ids=["Z", "Q"])
def test_solver_non_unit_pivot(ring):
    # the line through 2a + b: over Z the echelon row leads at a with
    # pivot 2, so a alone is refused there, before any remainder is seen
    line = {"a": ring.norm(2), "b": ring.one}
    solver = linalg.Solver([line], ["a", "b"], ring, "line")
    assert solver.coordinates(combination(ring, [line], [-3])) == \
        [ring.norm(-3)]
    refusal = "not integral" if ring.kind == "Z" else "outside the line"
    with pytest.raises(ValueError, match=refusal):
        solver.coordinates({"a": ring.one})
    with pytest.raises(ValueError, match="outside the line"):
        solver.coordinates({"b": ring.one})
