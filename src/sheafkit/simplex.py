"""Revised primal simplex with Bland's rule, exact over rationals.

The one LP this package poses is the contextual-fraction LP: maximize sum(x)
subject to M x <= b, x >= 0, where M is a 0/1 matrix whose every column has a
few ones (the k rows a global assignment restricts to, one per context).  The
solver takes M as those columns, each a list of its rows, so there are no
coefficients and no costs: with y the dual, a column prices as 1 - sum of y
over its rows, a sum with no multiplication.  It keeps the basis inverse
B^-1 (m x m), the basic values x_B and y = c_B . B^-1, and a pivot rewrites
B^-1 instead of a dense m x (n + m) tableau.

Bland's anti-cycling rule picks the pivots: the entering column is the first
one, in index order (structural columns, then slacks), whose reduced cost is
positive, and the leaving row has the smallest ratio, ties going to the
smallest basis index.  In rational mode every comparison is exact, so
termination is unconditional and the pivots are exactly those of the dense
tableau; float mode reuses the same rule with a 1e-9 feasibility tolerance.

:func:`maximize_leq` returns the optimal dual with the primal.  That is all
the gluing module needs: the contextual-fraction LP decides noncontextuality
too, and its dual yields the Farkas certificate of a contextual model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import SolverBudgetExceeded

Number = Union[Fraction, float]

#: Default ceiling on simplex pivots before giving up.
PIVOT_BUDGET = 10**6

FLOAT_TOL = 1e-9


@dataclass
class LPResult:
    x: list[Number]
    objective: Number
    dual: list[Number]
    pivots: int


def maximize_leq(
    a: Sequence[Sequence[int]],
    b: Sequence[Number],
    mode: str = "rational",
    budget: int = PIVOT_BUDGET,
) -> LPResult:
    """Maximize sum(x) subject to M x <= b, x >= 0, with b >= 0 componentwise.

    M is 0/1 with len(b) rows; ``a[j]`` lists the rows of column j's ones.
    Every column needs a row: an empty column could grow without bound.  The slack basis is feasible because b >= 0, so no
    phase I is needed.  ``dual`` is the optimal y >= 0 with sum(y[i] for i in
    a[j]) >= 1 for every j and y.b equal to the objective.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("maximize_leq requires b >= 0")
    if not all(a):
        raise ValueError("maximize_leq requires every column to hit a row")
    if mode == "rational":
        tol, zero, one = Fraction(0), Fraction(0), Fraction(1)
    else:
        tol, zero, one = FLOAT_TOL, 0.0, 1.0
    m, n = len(b), len(a)
    binv = [[one if k == i else zero for k in range(m)] for i in range(m)]
    xb = list(b)
    y = [zero] * m
    basis = [n + i for i in range(m)]
    basic = set(basis)
    pivots = 0
    while True:
        if pivots > budget:
            raise SolverBudgetExceeded(f"simplex exceeded {budget} pivots")
        # Bland: the first nonbasic column with a positive reduced cost; a
        # slack n + i costs nothing and has column e_i, so it prices as -y_i.
        enter, red = -1, zero
        for j in range(n):
            if j not in basic:
                red = one - sum(y[i] for i in a[j])
                if red > tol:
                    enter = j
                    break
        else:
            for i in range(m):
                if n + i not in basic and -y[i] > tol:
                    enter, red = n + i, -y[i]
                    break
        if enter < 0:
            break
        if enter < n:
            d = [sum(row[i] for i in a[enter]) for row in binv]
        else:
            d = [row[enter - n] for row in binv]
        leave, best = -1, None
        for i in range(m):
            if d[i] > tol:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        # every column hits a row and b >= 0, so the feasible set is bounded
        assert leave >= 0, "ratio test found no leaving row"
        piv = d[leave]
        prow = binv[leave] = [v / piv if v else v for v in binv[leave]]
        xb[leave] = xb[leave] / piv
        nonzero = [(k, v) for k, v in enumerate(prow) if v]
        for i in range(m):
            f = d[i]
            if i != leave and f != 0:
                row = binv[i]
                for k, v in nonzero:
                    row[k] -= f * v
                xb[i] -= f * xb[leave]
        # y = c_B . B^-1 moves by the entering reduced cost times the new pivot row
        for k, v in nonzero:
            y[k] += red * v
        basic.discard(basis[leave])
        basic.add(enter)
        basis[leave] = enter
        pivots += 1
    x = [zero] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = xb[i]
    return LPResult(x, sum(x), y, pivots)
