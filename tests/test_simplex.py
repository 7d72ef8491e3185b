import random
from fractions import Fraction
from math import lcm

import pytest

import sheafkit as sk
from sheafkit import simplex
from sheafkit.errors import SolverBudgetExceeded

from helpers import dense_rows, dense_tableau_maximize, random_box_mixture

F = Fraction


def test_maximize_simple():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4: x hits rows 0 and 2, y rows 1 and 2
    b = [F(2), F(3), F(4)]
    res = simplex.maximize_leq([[0, 2], [1, 2]], b)
    assert res.objective == 4
    # dual certifies optimality: y >= 0, y.A >= 1, y.b == objective
    assert all(y >= 0 for y in res.dual)
    assert res.dual[0] + res.dual[2] >= 1 and res.dual[1] + res.dual[2] >= 1
    assert sum(y * bi for y, bi in zip(res.dual, b)) == res.objective


def test_maximize_zero_rhs():
    res = simplex.maximize_leq([[0]], [F(0)])
    assert res.objective == 0
    assert res.x == [0]


def test_maximize_rejects_empty_column():
    # a column with no row is the only way the program can be unbounded
    with pytest.raises(ValueError, match="every column"):
        simplex.maximize_leq([[0], []], [F(1)])


def test_maximize_requires_nonnegative_rhs():
    with pytest.raises(ValueError):
        simplex.maximize_leq([[0]], [F(-1)])


# A degenerate 0/1 program, as (column rows, b): rows 0 and 1 have a zero
# right-hand side, so three of its four pivots move no value, and the last
# one breaks a tie of zero ratios by the smaller basis index.
DEGENERATE = ([[0, 2], [1, 2], [0, 1], [2]], [F(0), F(0), F(1)])


def test_maximize_degenerate_terminates():
    # Bland's rule must finish through the degenerate pivots
    res = simplex.maximize_leq(*DEGENERATE)
    assert res.objective == 1
    assert res.x == [0, 0, 0, 1]
    assert res.pivots == 4


def test_float_mode():
    res = simplex.maximize_leq([[0], [1]], [2.0, 3.0], mode="float")
    assert abs(res.objective - 5.0) < 1e-9


def test_pivot_budget():
    with pytest.raises(SolverBudgetExceeded):
        simplex.maximize_leq([[0], [1], [2]], [F(10), F(10), F(10)], budget=1)


# ---------------------------------------------------------------------------
# The revised simplex against the dense-tableau oracle.

RHS = (F(0), F(0), F(1, 2), F(1), F(2), F(3))
#: Coprime denominators: b's lcm L exceeds 2, and bases reach det B > 1.
COPRIME = (3, 5, 7, 11, 13)


def _random_lp(rng):
    """A unit-cost 0/1 program: each column a nonempty set of rows."""
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    a = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
    b = [rng.choice(RHS) for _ in range(m)]
    return a, b


def _coprime_lp(rng):
    """Up to 10 rows, columns of 2 to m/2 + 1 rows, b over the coprime denominators."""
    m, n = rng.randint(6, 10), rng.randint(10, 20)
    a = [sorted(rng.sample(range(m), rng.randint(2, m // 2 + 1))) for _ in range(n)]
    b = [F(rng.randint(0, 12), rng.choice(COPRIME)) for _ in range(m)]
    return a, b


def _oracle_programs():
    """400 seeded unit-cost 0/1 programs, the degenerate one, and box-mixture LPs."""
    rng = random.Random(606)
    programs = [_random_lp(rng) for _ in range(300)] + [DEGENERATE]
    rng = random.Random(608)
    programs += [_coprime_lp(rng) for _ in range(100)]
    rng = random.Random(607)
    for _ in range(12):
        model = random_box_mixture(rng)
        incidence = sk.build_incidence(model.scenario)
        p = sk.gluing.probability_vector(model, incidence)
        programs.append((incidence.column_rows, p))
    return programs


def test_revised_simplex_matches_dense_tableau():
    programs = _oracle_programs()
    beyond_l = 0
    for a, b in programs:
        dense = dense_rows(a, len(b))
        want = dense_tableau_maximize([F(1)] * len(a), dense, b)
        got = simplex.maximize_leq(a, b)
        assert got == want
        # a denominator that does not divide L comes from a basis with det B > 1
        scale = lcm(*(bi.denominator for bi in b))
        beyond_l += any(scale % v.denominator for v in got.x + got.dual)
        fb = [float(v) for v in b]
        fwant = dense_tableau_maximize([1.0] * len(a), dense, fb, mode="float")
        fgot = simplex.maximize_leq(a, fb, mode="float")
        assert abs(fgot.objective - float(want.objective)) <= simplex.FLOAT_TOL
        assert abs(fwant.objective - float(want.objective)) <= simplex.FLOAT_TOL
    # the seeded programs exercise degenerate pivots
    assert len(programs) >= 413
    assert sum(any(bi == 0 for bi in b) for _, b in programs) >= 100
    assert sum(lcm(*(bi.denominator for bi in b)) > 2 for _, b in programs) >= 100
    assert beyond_l >= 10
