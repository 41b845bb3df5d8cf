"""Exact linear solves over the rationals for the straightening machinery.

The systems (change of basis between monomials and standard bideterminants)
are square, sparse, with integer columns, and each is solved for only a few
right-hand sides, so a build factors A instead of inverting it.  The
factorization is one sparse, fraction-free forward elimination on the rows
of A, pivoting on the shortest free row that holds the pivot column; a
column -> rows index means each step touches only the rows that hold that
column, and every row operation is recorded, scaling its target by
|pivot| / g with g the gcd of the two entries, signed as the pivot (a -1
pivot flips no signs).  A solve scales the right-hand side to integers,
replays those operations on it, back-substitutes on the pivot rows, then
checks A x == b on every sparse row.  Every division is exact integer
division: the blocks solved here are unimodular (the standard
bideterminants are a basis of the integer polynomials, De Concini,
Eisenbud and Procesi 1980), so a right-hand side scaled to integers has an
integer solution, and a remainder means there is none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

_ZERO = Fraction(0)


class PreparedSolver:
    """Solve A x = b exactly, in integers, for a fixed invertible n x n A
    and many b.

    A comes as its n columns, each a {row: value} dict of its nonzero `int`
    entries, rows in 0..n-1.  Entries of b are `int`s or `Fraction`s;
    solutions are `Fraction`s.  With `scale` the lcm of b's denominators, a
    solution x is returned exactly when x * scale is an integer vector,
    which always holds when A is unimodular; otherwise the result is None.
    """

    def __init__(self, columns: Sequence[Dict[int, int]]):
        n = self.n = len(columns)
        # sparse_rows[r]: the nonzero (column, value) entries of row r.
        self.sparse_rows: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for c, col in enumerate(columns):
            for r, v in col.items():
                self.sparse_rows[r].append((c, v))
        work = [dict(entries) for entries in self.sparse_rows]
        # holders[c]: the free (not yet pivot) rows with a nonzero in column c.
        holders: List[Set[int]] = [set() for _ in range(n)]
        for r, row in enumerate(work):
            for c in row:
                holders[c].add(r)
        # row_ops: (target, source, scale, f, content) for
        # row[target] <- (scale * row[target] - f * row[source]) / content.
        self.row_ops: List[Tuple[int, int, int, int, int]] = []
        self.pivot_rows: List[int] = []
        for col in range(n):
            if not holders[col]:
                raise ArithmeticError("columns are linearly dependent")
            p = min([(len(work[r]), r) for r in holders[col]])[1]
            prow = work[p]
            for c in prow:
                holders[c].discard(p)
            self.pivot_rows.append(p)
            pivot = prow[col]
            sign = 1 if pivot > 0 else -1
            for r in sorted(holders[col]):
                row = work[r]
                g = sign * gcd(pivot, row[col])
                scale, f = pivot // g, row[col] // g
                if scale != 1:
                    for key in row:
                        row[key] *= scale
                for key, v in prow.items():
                    new = row.get(key, 0) - f * v
                    if not new:
                        del row[key]
                        holders[key].discard(r)
                    else:
                        if key not in row:
                            holders[key].add(r)
                        row[key] = new
                content = gcd(*row.values())
                if content > 1:
                    for key in row:
                        row[key] //= content
                self.row_ops.append((r, p, scale, f, content))
        # upper[j]: (diagonal, off-diagonal (column, value) entries) of the
        # pivot row of column j; those columns are all greater than j.
        self.upper: List[Tuple[int, List[Tuple[int, int]]]] = [
            (work[p][j], [(c, v) for c, v in work[p].items() if c != j])
            for j, p in enumerate(self.pivot_rows)
        ]

    def solve(self, rhs: Sequence[int | Fraction]) -> Optional[List[Fraction]]:
        """The solution vector, or None when the system has no solution x with
        x * scale integral (in particular when it is inconsistent)."""
        if len(rhs) != self.n:
            raise ValueError(f"rhs length {len(rhs)}, expected {self.n}")
        # In integers: b = B / scale and x = X / scale.
        scale = lcm(*(b.denominator for b in rhs if b))
        B = [b.numerator * (scale // b.denominator) if b else 0 for b in rhs]
        R = B[:]
        for r, p, op_scale, f, content in self.row_ops:
            v = op_scale * R[r] - f * R[p]
            if content > 1:
                v, rem = divmod(v, content)
                if rem:
                    return None
            R[r] = v
        X = [0] * self.n
        for j in range(self.n - 1, -1, -1):
            diag, rest = self.upper[j]
            X[j], rem = divmod(R[self.pivot_rows[j]] - sum(v * X[c] for c, v in rest), diag)
            if rem:
                return None
        for row, b in zip(self.sparse_rows, B):
            if sum(v * X[c] for c, v in row) != b:
                return None
        return [Fraction(v, scale) if v else _ZERO for v in X]
