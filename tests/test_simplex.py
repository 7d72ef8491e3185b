from fractions import Fraction

import pytest

from sheafkit import simplex
from sheafkit.errors import SolverBudgetExceeded

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


def test_maximize_degenerate_terminates():
    # classic cycling-prone degenerate program; Bland's rule must finish
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    a = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b = [F(0), F(0), F(1)]
    res = simplex.maximize_leq(c, a, b)
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
