import random
from fractions import Fraction

import pytest

import sheafkit as sk
from sheafkit import simplex
from sheafkit.errors import SolverBudgetExceeded

from helpers import dense_tableau_maximize, random_box_mixture

F = Fraction


def test_maximize_simple():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    res = simplex.maximize_leq(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [F(2), F(3), F(4)],
    )
    assert res.status == "optimal"
    assert res.objective == 4
    # dual certifies optimality: y >= 0, y.A >= c, y.b == objective
    dual_obj = sum(y * b for y, b in zip(res.dual, [F(2), F(3), F(4)]))
    assert dual_obj == res.objective


def test_maximize_zero_rhs():
    res = simplex.maximize_leq([F(1)], [[F(1)]], [F(0)])
    assert res.objective == 0
    assert res.x == [0]


def test_maximize_unbounded_detected():
    res = simplex.maximize_leq([F(1), F(1)], [[F(1), F(-1)]], [F(1)])
    assert res.status == "unbounded"


def test_maximize_requires_nonnegative_rhs():
    with pytest.raises(ValueError):
        simplex.maximize_leq([F(1)], [[F(1)]], [F(-1)])


# Beale's classic cycling-prone degenerate program, as (c, a, b)
BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ],
    [F(0), F(0), F(1)],
)


def test_maximize_degenerate_terminates():
    # Bland's rule must finish
    res = simplex.maximize_leq(*BEALE)
    assert res.status == "optimal"
    assert res.objective == F(1, 20)


def test_float_mode():
    res = simplex.maximize_leq([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0], mode="float")
    assert res.status == "optimal"
    assert abs(res.objective - 5.0) < 1e-9


def test_pivot_budget():
    with pytest.raises(SolverBudgetExceeded):
        simplex.maximize_leq(
            [F(1), F(1), F(1)],
            [[F(1), F(2), F(3)], [F(3), F(1), F(2)], [F(2), F(3), F(1)]],
            [F(10), F(10), F(10)],
            budget=1,
        )


# ---------------------------------------------------------------------------
# The revised simplex against the dense-tableau oracle.

COEFFS = (F(-2), F(-1), F(-1, 2), F(0), F(0), F(0), F(1, 3), F(1, 2), F(1), F(1), F(3, 2), F(2))
RHS = (F(0), F(0), F(1, 2), F(1), F(2), F(3))


def _random_lp(rng):
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    c = [rng.choice(COEFFS) for _ in range(n)]
    a = [[rng.choice(COEFFS) for _ in range(n)] for _ in range(m)]
    b = [rng.choice(RHS) for _ in range(m)]
    return c, a, b


def _oracle_programs():
    """300 seeded random LPs, Beale's cycling example, and box-mixture LPs."""
    rng = random.Random(606)
    programs = [_random_lp(rng) for _ in range(300)] + [BEALE]
    rng = random.Random(607)
    for _ in range(12):
        model = random_box_mixture(rng)
        incidence = sk.build_incidence(model.scenario)
        p = sk.gluing.probability_vector(model, incidence)
        programs.append(([F(1)] * len(incidence.columns), incidence.entries, p))
    return programs


def test_revised_simplex_matches_dense_tableau():
    programs = _oracle_programs()
    statuses = []
    for c, a, b in programs:
        want = dense_tableau_maximize(c, a, b)
        got = simplex.maximize_leq(c, a, b)
        assert got == want
        statuses.append(got.status)
        fc = [float(v) for v in c]
        fa = [[float(v) for v in row] for row in a]
        fb = [float(v) for v in b]
        fwant = dense_tableau_maximize(fc, fa, fb, mode="float")
        fgot = simplex.maximize_leq(fc, fa, fb, mode="float")
        assert fgot.status == fwant.status == want.status
        if want.status == "optimal":
            assert abs(fgot.objective - float(want.objective)) <= simplex.FLOAT_TOL
    # the seeded programs exercise both outcomes and degenerate pivots
    assert statuses.count("unbounded") >= 30 and statuses.count("optimal") >= 200
    assert sum(any(bi == 0 for bi in b) for _, _, b in programs) >= 100
