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

Rational mode pivots on integers (Bareiss, Math. Comp. 22, 1968).  With D =
det B > 0 and A = adj B, it holds B^-1 = A / D, x_B = XB / (D L) where L is
the lcm of b's denominators and XB = A . (L b), and y = Y / D with Y = c_B . A.
A pivot on row r with entering column d = A . a_q and piv = d[r] keeps row r
of A and XB, turns every other row into (piv row - d[i] row_r) // D, and Y
into (piv Y + red A_r) // D for the reduced cost red of the entering column
times D; then D = piv, the determinant of the new basis.  Every division is
exact, because the results are the adjugate of an integer matrix and its
products with the integer L b and c_B.  No ``Fraction`` is made until the
answer is returned.

Float mode keeps its own loop with the tolerance: the inputs are already
rounded, and exact arithmetic on them can reach a different optimal vertex
than the tolerance loop does, so the float results would move.

:func:`maximize_leq` returns the optimal dual with the primal.  That is all
the gluing module needs: the contextual-fraction LP decides noncontextuality
too, and its dual yields the Farkas certificate of a contextual model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import PIVOT_BUDGET, SolverBudgetExceeded

Number = Union[Fraction, float]

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
    Every column needs a row: an empty column could grow without bound.  The
    slack basis is feasible because b >= 0, so no phase I is needed.
    ``dual`` is the optimal y >= 0 with sum(y[i] for i in a[j]) >= 1 for
    every j and y.b equal to the objective.

    In rational mode the state is integer: B^-1 = A / D with D = det B and
    A = adj B, so the row updates divide exactly by the old D (see the module
    docstring), and the ``Fraction`` results are built once at the end.
    Float mode keeps the tolerance loop, which exact pivoting on rounded
    inputs would not reproduce.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("maximize_leq requires b >= 0")
    if not all(a):
        raise ValueError("maximize_leq requires every column to hit a row")
    if mode == "rational":
        return _maximize_exact(a, b, budget)
    return _maximize_float(a, b, budget)


def _maximize_exact(a: Sequence[Sequence[int]], b: Sequence[Number], budget: int) -> LPResult:
    """Bland's pivots on A = adj B, XB = A . (L b) and Y = c_B . A over D = det B."""
    m, n = len(b), len(a)
    b = [Fraction(bi) for bi in b]
    scale = lcm(*(bi.denominator for bi in b))
    adj = [[int(k == i) for k in range(m)] for i in range(m)]
    xb = [bi.numerator * (scale // bi.denominator) for bi in b]
    y = [0] * m
    det = 1
    basis = [n + i for i in range(m)]
    basic = set(basis)
    pivots = 0
    while True:
        if pivots > budget:
            raise SolverBudgetExceeded(f"simplex exceeded {budget} pivots")
        # Bland: the first nonbasic column with a positive reduced cost, here
        # scaled by D; a slack n + i has column e_i and prices as -Y_i.
        enter = -1
        for j in range(n):
            if j not in basic:
                red = det - sum(map(y.__getitem__, a[j]))
                if red > 0:
                    enter = j
                    break
        else:
            for i in range(m):
                if n + i not in basic and y[i] < 0:
                    enter, red = n + i, -y[i]
                    break
        if enter < 0:
            break
        if enter < n:
            col = a[enter]
            d = [sum(map(row.__getitem__, col)) for row in adj]
        else:
            d = [row[enter - n] for row in adj]
        # the smallest ratio xb[i] / d[i] over d[i] > 0, compared crosswise
        leave = -1
        for i in range(m):
            di = d[i]
            if di > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = xb[i] * d[leave], xb[leave] * di
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        # every column hits a row and b >= 0, so the feasible set is bounded
        assert leave >= 0, "ratio test found no leaving row"
        piv = d[leave]
        prow, px = adj[leave], xb[leave]
        if piv == det:
            # (D u - f v) // D is u - f v // D: only rows the entering column
            # hits change, and only at the pivot row's nonzeros.  In a pass
            # of the lp_cycles benchmark, 73% of the pivots keep D.
            nonzero = [(k, v) for k, v in enumerate(prow) if v]
            for i in range(m):
                f = d[i]
                if i != leave and f:
                    row = adj[i]
                    for k, v in nonzero:
                        row[k] -= f * v // det
                    xb[i] -= f * px // det
            for k, v in nonzero:
                y[k] += red * v // det
        else:
            for i in range(m):
                if i != leave:
                    f = d[i]
                    adj[i] = [(piv * u - f * v) // det for u, v in zip(adj[i], prow)]
                    xb[i] = (piv * xb[i] - f * px) // det
            y = [(piv * u + red * v) // det for u, v in zip(y, prow)]
            det = piv
        basic.discard(basis[leave])
        basic.add(enter)
        basis[leave] = enter
        pivots += 1
    denom = det * scale
    x = [Fraction(0)] * n
    total = 0
    for i, col in enumerate(basis):
        if col < n:
            x[col] = Fraction(xb[i], denom)
            total += xb[i]
    return LPResult(x, Fraction(total, denom), [Fraction(v, det) for v in y], pivots)


def _maximize_float(a: Sequence[Sequence[int]], b: Sequence[Number], budget: int) -> LPResult:
    """Bland's pivots on a float B^-1, with ``FLOAT_TOL`` as the zero."""
    tol = FLOAT_TOL
    m, n = len(b), len(a)
    binv = [[1.0 if k == i else 0.0 for k in range(m)] for i in range(m)]
    xb = list(b)
    y = [0.0] * m
    basis = [n + i for i in range(m)]
    basic = set(basis)
    pivots = 0
    while True:
        if pivots > budget:
            raise SolverBudgetExceeded(f"simplex exceeded {budget} pivots")
        # Bland: the first nonbasic column with a positive reduced cost; a
        # slack n + i costs nothing and has column e_i, so it prices as -y_i.
        enter, red = -1, 0.0
        for j in range(n):
            if j not in basic:
                red = 1.0 - sum(y[i] for i in a[j])
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
    x = [0.0] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = xb[i]
    return LPResult(x, sum(x), y, pivots)
