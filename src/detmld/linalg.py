"""Exact linear solves over the rationals for the straightening machinery.

The systems (change of basis between monomials and standard bideterminants)
are sparse and reused with many right-hand sides.  A build is one sparse,
fraction-free Gauss-Jordan elimination on the integer-scaled rows of [A | I],
pivoting on the shortest live row; the identity half turns the pivot rows
into a sparse integer left inverse.  A solve multiplies it with the nonzero
entries of b, then checks A x == b on every sparse row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple


class PreparedSolver:
    """Solve A x = b exactly for a fixed full-column-rank A and many b.

    Entries of A and b are `int` or `Fraction`; solutions are `Fraction`s.
    """

    def __init__(self, columns: Sequence[Sequence[int | Fraction]]):
        n = self.ncols = len(columns)
        self.nrows = len(columns[0]) if columns else 0
        if any(len(col) != self.nrows for col in columns):
            raise ValueError("ragged column list")
        rows: List[Dict[int, int | Fraction]] = [{} for _ in range(self.nrows)]
        for c, col in enumerate(columns):
            for r, v in enumerate(col):
                if v:
                    rows[r][c] = v
        # sparse_rows[r]: (s, nonzero entries of s * A[r]) for the least s making them integers.
        scales = [lcm(*(v.denominator for v in row.values())) for row in rows]
        self.sparse_rows = [
            (s, [(c, v.numerator * (s // v.denominator)) for c, v in r.items()])
            for s, r in zip(scales, rows)
        ]
        # work[r] is row r of s_r * [A | I]; key n + i is column i of I.
        work = [dict(entries + [(n + r, s)]) for r, (s, entries) in enumerate(self.sparse_rows)]
        free = list(range(self.nrows))
        pivots: List[int] = []
        for col in range(n):
            p = min((r for r in free if col in work[r]), key=lambda r: len(work[r]), default=None)
            if p is None:
                raise ArithmeticError("columns are linearly dependent")
            free.remove(p)
            pivots.append(p)
            prow = work[p]
            for row in work:
                if row is prow or col not in row:
                    continue
                g = gcd(prow[col], row[col])
                scale, f = prow[col] // g, row[col] // g
                if scale != 1:
                    for key in row:
                        row[key] *= scale
                for key, v in prow.items():
                    new = row.get(key, 0) - f * v
                    if new:
                        row[key] = new
                    else:
                        del row[key]
                content = gcd(*row.values())
                if content > 1:
                    for key in row:
                        row[key] //= content
        # x = L b / denominator, with left_inverse[i] the nonzero
        # (column, coefficient) entries of column i of the integer matrix L.
        self.denominator = lcm(*(work[p][col] for col, p in enumerate(pivots)))
        self.left_inverse: List[List[Tuple[int, int]]] = [[] for _ in range(self.nrows)]
        for col, p in enumerate(pivots):
            unit = self.denominator // work[p][col]
            for key, v in work[p].items():
                if key >= n:
                    self.left_inverse[key - n].append((col, v * unit))

    def solve(self, rhs: Sequence[int | Fraction]) -> Optional[List[Fraction]]:
        """Exact solution vector, or None when the system is inconsistent."""
        if self.ncols == 0:
            return [] if all(v == 0 for v in rhs) else None
        if len(rhs) != self.nrows:
            raise ValueError(f"rhs length {len(rhs)}, expected {self.nrows}")
        # In integers: b = B / scale and x = X / (denominator * scale).
        scale = lcm(*(b.denominator for b in rhs if b))
        B = [b.numerator * (scale // b.denominator) if b else 0 for b in rhs]
        X = [0] * self.ncols
        for i, b in enumerate(B):
            if b:
                for col, coef in self.left_inverse[i]:
                    X[col] += coef * b
        for (s, row), b in zip(self.sparse_rows, B):
            if sum(v * X[c] for c, v in row) != s * b * self.denominator:
                return None
        return [Fraction(v, self.denominator * scale) for v in X]
