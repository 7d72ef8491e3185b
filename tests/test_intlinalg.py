import random

import pytest

from sheafkit.intlinalg import ZMat, kernel_basis, quotient_invariants, smith_normal_form
from helpers import kernel_coordinate_invariants, zmat


def check_snf(mat: ZMat) -> None:
    nf = smith_normal_form(mat)
    # S = U A V with U and V unimodular: their own divisors are all 1
    assert nf.u.matmul(mat).matmul(nf.v).a == nf.s.a
    assert smith_normal_form(nf.u).divisors == [1] * mat.m
    assert smith_normal_form(nf.v).divisors == [1] * mat.n
    # diagonal, non-negative, divisibility chain
    for i in range(nf.s.m):
        for j in range(nf.s.n):
            if i != j:
                assert nf.s.a[i][j] == 0
    divisors = nf.divisors
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def test_snf_known_matrix():
    # classic example with torsion 2
    mat = zmat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    nf = smith_normal_form(mat)
    assert nf.divisors == [2, 2, 156]
    check_snf(mat)


def test_snf_random_matrices():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = zmat(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n
        )
        check_snf(mat)


def test_snf_empty_shapes():
    check_snf(ZMat.zeros(0, 3))
    check_snf(ZMat.zeros(3, 0))
    check_snf(ZMat.zeros(0, 0))


def test_solve_solvable():
    mat = zmat([[2, 0], [0, 3]])
    x = smith_normal_form(mat).solve([4, 9])
    assert x is not None
    assert mat.matvec(x) == [4, 9]


def test_solve_divisibility_failure():
    mat = zmat([[2]])
    nf = smith_normal_form(mat)
    assert nf.solve([3]) is None
    assert nf.solve([4]) == [2]


def test_solve_inconsistent():
    mat = zmat([[1, 1], [1, 1]])
    assert smith_normal_form(mat).solve([1, 2]) is None


def test_solve_random_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = zmat(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n
        )
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = mat.matvec(x0)
        x = smith_normal_form(mat).solve(b)
        assert x is not None
        assert mat.matvec(x) == b


def test_smith_form_solves_many_right_hand_sides():
    # one Smith form answers every b; unsolvable ones agree with the lattice
    mat = zmat([[2, 0], [0, 3], [2, 3]])
    nf = smith_normal_form(mat)
    for x0 in ([1, 0], [0, 1], [-2, 5]):
        b = mat.matvec(x0)
        assert mat.matvec(nf.solve(b)) == b
    assert nf.solve([1, 0, 1]) is None  # 2x = 1 has no integer solution
    assert nf.solve([2, 3, 0]) is None  # third row must be the sum of the others
    with pytest.raises(ValueError):
        nf.solve([1, 2])


def test_kernel_basis():
    mat = zmat([[1, 1, 0], [0, 0, 2]])
    basis = kernel_basis(smith_normal_form(mat))
    assert len(basis) == 1
    assert mat.matvec(basis[0]) == [0, 0]
    # kernel vector is primitive up to sign
    assert sorted(map(abs, basis[0])) == [0, 1, 1]


def test_quotient_invariants_torsion():
    # Z^2 --(x2, x3 diag)--> Z^2 --0--> 0 : H = Z/2 + Z/3 = torsion [1? no]
    d_out = ZMat.zeros(0, 2)
    d_in = zmat([[2, 0], [0, 3]])
    free, torsion = quotient_invariants(d_out, smith_normal_form(d_in))
    assert free == 0
    # smith normal form of diag(2,3) is diag(1,6)
    assert torsion == [6]


def test_quotient_invariants_free_part():
    d_out = ZMat.zeros(0, 3)
    d_in = zmat([[2, 0], [0, 0], [0, 0]], 2)
    free, torsion = quotient_invariants(d_out, smith_normal_form(d_in))
    assert free == 2
    assert torsion == [2]


def test_quotient_with_nontrivial_kernel_coordinates():
    # ker(d_out) = {(x, y, z) : x + y + z = 0}; image of d_in is spanned by
    # (1, -1, 0) and (2, 0, -2): quotient is Z/2
    d_out = zmat([[1, 1, 1]])
    d_in = zmat([[1, 2], [-1, 0], [0, -2]], 2)
    free, torsion = quotient_invariants(d_out, smith_normal_form(d_in))
    assert free == 0
    assert torsion == [2]


def test_quotient_matches_kernel_coordinates_on_random_complexes():
    # D1's rows are integer combinations of left-kernel vectors of D0, so
    # D1 . D0 = 0 and ker D1 may be much larger than im D0
    rng = random.Random(3131)
    torsion_cases = nonzero_d1 = both = 0
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        d0 = zmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], n)
        left = kernel_basis(smith_normal_form(ZMat(n, m, [list(col) for col in zip(*d0.a)])))
        rows = []
        for _ in range(rng.randint(0, 3)):
            mix = [rng.randint(-2, 2) for _ in left]
            rows.append([sum(c * y[i] for c, y in zip(mix, left)) for i in range(m)])
        d1 = ZMat(len(rows), m, rows)
        assert d1.matmul(d0).is_zero()
        expected = kernel_coordinate_invariants(d1, d0)
        assert quotient_invariants(d1, smith_normal_form(d0)) == expected
        torsion_cases += bool(expected[1])
        nonzero_d1 += not d1.is_zero()
        both += bool(expected[1]) and not d1.is_zero()
    assert torsion_cases >= 10 and nonzero_d1 >= 30 and both >= 5, (torsion_cases, nonzero_d1, both)
