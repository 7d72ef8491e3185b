"""Exact integer matrix algebra: Smith normal form and what it buys.

Everything works on arbitrary-precision Python ints, so entry growth during
reduction is harmless at the matrix sizes used here.  The Smith form S = U A V
(U, V unimodular) yields integer solvability of A x = b, an integer kernel
basis, and the invariant factors of quotient groups, all from one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class ZMat:
    """Dense integer matrix with an explicit shape (rows may be empty)."""

    m: int
    n: int
    a: list[list[int]]

    def __post_init__(self) -> None:
        if len(self.a) != self.m or any(len(r) != self.n for r in self.a):
            raise ValueError("matrix data does not match declared shape")

    @staticmethod
    def zeros(m: int, n: int) -> "ZMat":
        return ZMat(m, n, [[0] * n for _ in range(m)])

    @staticmethod
    def identity(n: int) -> "ZMat":
        return ZMat(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def clone(self) -> "ZMat":
        return ZMat(self.m, self.n, [row[:] for row in self.a])

    def matmul(self, other: "ZMat") -> "ZMat":
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} @ {other.m}x{other.n}")
        out = ZMat.zeros(self.m, other.n)
        for i in range(self.m):
            row = self.a[i]
            orow = out.a[i]
            for k, coef in enumerate(row):
                if coef:
                    brow = other.a[k]
                    for j in range(other.n):
                        orow[j] += coef * brow[j]
        return out

    def matvec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.n:
            raise ValueError("vector length mismatch")
        return [sum(c * v for c, v in zip(row, x)) for row in self.a]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.a for v in row)


@dataclass
class SmithForm:
    """S = U A V with S diagonal and each divisor dividing the next."""

    s: ZMat
    u: ZMat
    v: ZMat
    rank: int
    divisors: list[int]

    def solve(self, b: Sequence[int]) -> list[int] | None:
        """One integer solution of A x = b, or None when none exists.

        With U A V = S, A x = b becomes S w = U b with x = V w, which is
        decided entry by entry on the diagonal; one Smith form answers any
        number of right-hand sides.
        """
        if len(b) != self.u.m:
            raise ValueError("right-hand side length mismatch")
        ub = self.u.matvec(list(b))
        w = [0] * self.v.m
        for k, value in enumerate(ub):
            if k < self.rank:
                d = self.s.a[k][k]
                if value % d:
                    return None
                w[k] = value // d
            elif value != 0:
                return None
        return self.v.matvec(w)


def smith_normal_form(mat: ZMat) -> SmithForm:
    s = mat.clone()
    m, n = s.m, s.n
    u = ZMat.identity(m)
    v = ZMat.identity(n)

    def row_add(i: int, k: int, q: int) -> None:
        s.a[i] = [x + q * y for x, y in zip(s.a[i], s.a[k])]
        u.a[i] = [x + q * y for x, y in zip(u.a[i], u.a[k])]

    def row_swap(i: int, k: int) -> None:
        s.a[i], s.a[k] = s.a[k], s.a[i]
        u.a[i], u.a[k] = u.a[k], u.a[i]

    def row_neg(i: int) -> None:
        s.a[i] = [-x for x in s.a[i]]
        u.a[i] = [-x for x in u.a[i]]

    def col_add(j: int, k: int, q: int) -> None:
        # col_j += q * col_k
        for row in s.a:
            row[j] += q * row[k]
        for row in v.a:
            row[j] += q * row[k]

    def col_swap(j: int, k: int) -> None:
        for row in s.a:
            row[j], row[k] = row[k], row[j]
        for row in v.a:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(m, n):
        # Find the first smallest-magnitude nonzero entry, in row-major
        # order, of the trailing block; no entry beats a unit.
        pivot = None
        best = None
        for i in range(t, m):
            row = s.a[i]
            for j in range(t, n):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
                    if val == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if s.a[t][t] < 0:
            row_neg(t)

        dirty = False
        for i in range(t + 1, m):
            if s.a[i][t]:
                q = s.a[i][t] // s.a[t][t]
                row_add(i, t, -q)
                if s.a[i][t]:
                    dirty = True  # remainder smaller than pivot; re-select
        if dirty:
            continue
        for j in range(t + 1, n):
            if s.a[t][j]:
                q = s.a[t][j] // s.a[t][t]
                col_add(j, t, -q)
                if s.a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Divisibility pass: fold any non-multiple into row t and retry.
        d = s.a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s.a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    divisors = [s.a[i][i] for i in range(min(m, n)) if s.a[i][i] != 0]
    return SmithForm(s, u, v, len(divisors), divisors)


def kernel_basis(nf: SmithForm) -> list[list[int]]:
    """Integer basis of ker A from A's Smith form (columns of V past the rank)."""
    return [[row[j] for row in nf.v.a] for j in range(nf.rank, nf.v.n)]


def quotient_invariants(d_out: ZMat, d_in: SmithForm) -> tuple[int, list[int]]:
    """Structure of ker(d_out) / im(d_in) as (free rank, torsion divisors).

    Takes d_in's Smith form; the caller guarantees d_out @ d_in = 0.  With C
    the middle group, C / ker(d_out) = im(d_out) lies in a free group, so it
    is free, ker(d_out) is saturated, 0 -> ker/im -> coker(d_in) -> C/ker -> 0
    splits, and the torsion is that of coker(d_in): d_in's divisors above 1.
    """
    if d_out.n != d_in.s.m:
        raise ValueError("chain maps do not compose")
    free = d_out.n - smith_normal_form(d_out).rank - d_in.rank
    return free, [d for d in d_in.divisors if d != 1]
