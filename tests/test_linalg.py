"""Exact linear algebra: Smith normal form, saturated kernels, field
elimination.  Randomized cases are checked against sympy as an oracle."""

import random
from fractions import Fraction

import pytest
from sympy import Matrix, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from loopalg import linalg
from loopalg.rings import QQ, F2


def rand_mat(rng, m, n, lo=-4, hi=4):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)]


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = rand_mat(rng, m, n)
        d, u, v = linalg.smith_normal_form(mat)
        assert linalg.matmul(linalg.matmul(u, mat), v) == d
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
            mat = linalg.matmul(
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
    assert linalg.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert linalg.invariant_factors([[0, 0], [0, 0]]) == []


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
            assert linalg.invariant_factors(ker) == [1] * len(ker)


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
    assert linalg.rank_field([[1, 1], [1, 0]], F2) == 2
    assert linalg.rank_field([[1, 1], [1, 1]], F2) == 1


def test_kernel_field_oracle():
    rng = random.Random(5)
    for ring in (QQ, F2):
        for _ in range(60):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[ring.norm(x) for x in row] for row in rand_mat(rng, m, n)]
            ker = linalg.kernel_field(mat, ring)
            assert len(ker) == n - linalg.rank_field(mat, ring)
            for col in ker:
                for row in mat:
                    acc = ring.zero
                    for a, x in zip(row, col):
                        acc = ring.add(acc, ring.mul(a, x))
                    assert ring.is_zero(acc)


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
    assert linalg.matmul(u, linalg.integer_inverse(u)) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.integer_inverse([[2, 0], [0, 1]])
