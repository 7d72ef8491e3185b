"""Dense primal simplex with Bland's rule, exact over rationals.

The linear programs decided here are small (desk-scale incidence matrices),
so a dense tableau is fine.  In rational mode every comparison is exact and
Bland's anti-cycling rule makes termination unconditional; float mode reuses
the same pivoting with a 1e-9 feasibility tolerance.

The one entry point, :func:`maximize_leq`, solves max c.x subject to
A x <= b, x >= 0 and returns the optimal dual with the primal.  That is all
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
    status: str  # "optimal" | "unbounded"
    x: list[Number] | None
    objective: Number | None
    dual: list[Number] | None
    pivots: int


def _tol(mode: str) -> Number:
    return Fraction(0) if mode == "rational" else FLOAT_TOL


def _zero(mode: str) -> Number:
    return Fraction(0) if mode == "rational" else 0.0


def _one(mode: str) -> Number:
    return Fraction(1) if mode == "rational" else 1.0


class _Tableau:
    """Rows [A | I | b] with an explicit reduced-cost row.

    The identity (slack) columns cost nothing, so the slack basis starts
    priced out and the reduced costs start equal to the costs.
    """

    def __init__(self, a: Sequence[Sequence[Number]], b: Sequence[Number],
                 cost: Sequence[Number], mode: str, budget: int) -> None:
        self.mode = mode
        self.tol = _tol(mode)
        self.budget = budget
        self.m = len(a)
        self.n = len(cost)  # structural columns
        zero, one = _zero(mode), _one(mode)
        self.rows = [list(a[i]) + [one if k == i else zero for k in range(self.m)] + [b[i]]
                     for i in range(self.m)]
        self.cost = list(cost)
        self.red = list(cost) + [zero] * (self.m + 1)
        self.basis = [self.n + i for i in range(self.m)]
        self.pivots = 0

    def _pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        self.rows[row] = [v / piv for v in self.rows[row]]
        prow = self.rows[row]
        for i in range(self.m):
            if i != row and self.rows[i][col] != 0:
                coef = self.rows[i][col]
                self.rows[i] = [v - coef * p for v, p in zip(self.rows[i], prow)]
        coef = self.red[col]
        if coef != 0:
            for j in range(len(self.red)):
                self.red[j] -= coef * prow[j]
        self.basis[row] = col
        self.pivots += 1

    def solve(self) -> str:
        """Run primal simplex to optimality; returns "optimal" or "unbounded"."""
        width = self.n + self.m
        while True:
            if self.pivots > self.budget:
                raise SolverBudgetExceeded(f"simplex exceeded {self.budget} pivots")
            enter = -1
            for j in range(width):  # Bland: smallest improving index
                if self.red[j] > self.tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(self.m):
                coef = self.rows[i][enter]
                if coef > self.tol:
                    ratio = self.rows[i][-1] / coef
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def primal(self) -> list[Number]:
        x = [_zero(self.mode)] * (self.n + self.m)
        for i, col in enumerate(self.basis):
            x[col] = self.rows[i][-1]
        return x

    def dual(self) -> list[Number]:
        # y_i = cost(slack i) - reduced cost(slack i), and slacks cost zero
        zero = _zero(self.mode)
        return [zero - self.red[self.n + i] for i in range(self.m)]

    def objective(self) -> Number:
        x = self.primal()
        return sum(self.cost[j] * x[j] for j in range(self.n))


def maximize_leq(
    c: Sequence[Number],
    a: Sequence[Sequence[Number]],
    b: Sequence[Number],
    mode: str = "rational",
    budget: int = PIVOT_BUDGET,
) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0 componentwise.

    The slack basis is feasible because b >= 0, so no phase I is needed.
    ``dual`` is the optimal y >= 0 with y.A >= c and y.b equal to the
    objective.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("maximize_leq requires b >= 0")
    tab = _Tableau(a, b, c, mode, budget)
    status = tab.solve()
    if status != "optimal":
        return LPResult("unbounded", None, None, None, tab.pivots)
    x = tab.primal()[:len(c)]
    return LPResult("optimal", x, tab.objective(), tab.dual(), tab.pivots)

