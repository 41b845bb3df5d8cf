"""Sparse exact-rational polynomials in the m*m matrix entries x_ij.

The variable layout is fixed and row-major: x_ij sits at index (i-1)*m + (j-1)
of the exponent vector, so monomial-basis linear algebra downstream is stable.
Also provides determinant polynomials of submatrices (memoized Leibniz
expansion, no division) and their evaluation on truncated power series given
as coefficient lists, the reference the series oracle is tested against.
Products are computed in integers over a common denominator; coefficients
are `Fraction`s at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm
from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple

from .core import (
    PreconditionError, _as_tuple, _check_int, _check_type, format_rational, parse_rational
)

Exponents = Tuple[int, ...]


def var_index(m: int, i: int, j: int) -> int:
    """Index of x_ij in the exponent vector, 1-based i, j."""
    if not (type(i) is int and type(j) is int and 1 <= i <= m and 1 <= j <= m):
        raise PreconditionError(f"entry ({i!r},{j!r}) outside a {m}x{m} matrix")
    return (i - 1) * m + (j - 1)


class MultiPoly:
    """Sparse polynomial: map from exponent vectors (length m*m) to nonzero Fractions.

    Internally a polynomial may carry `int` coefficients instead (the Nash
    elimination's numerators do); arithmetic and `standard_coordinates`
    accept both, and what the public API returns is always `Fraction`s."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Dict[Exponents, Fraction] | None = None):
        _check_int("m", m, 1)
        self.m = m
        clean: Dict[Exponents, Fraction] = {}
        if terms:
            _check_type("terms", terms, dict)
            n = m * m
            for exp, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                    raise PreconditionError(
                        f"exponent vector {exp} is not {n} nonnegative integers"
                    )
                clean[exp] = coef
        self.terms = clean

    @classmethod
    def zero(cls, m: int) -> "MultiPoly":
        return cls(m)

    @classmethod
    def constant(cls, m: int, value) -> "MultiPoly":
        return cls(m, {(0,) * (m * m): Fraction(value)})

    @classmethod
    def one(cls, m: int) -> "MultiPoly":
        return cls.constant(m, 1)

    @classmethod
    def variable(cls, m: int, i: int, j: int) -> "MultiPoly":
        exp = [0] * (m * m)
        exp[var_index(m, i, j)] = 1
        return cls(m, {tuple(exp): Fraction(1)})

    def _check_layout(self, other: "MultiPoly") -> None:
        if self.m != other.m:
            raise PreconditionError(
                f"variable layout mismatch: {self.m}x{self.m} vs {other.m}x{other.m}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.m, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_layout(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            acc = terms.get(exp, 0) + coef
            if acc:
                terms[exp] = acc
            else:
                terms.pop(exp, None)
        out = MultiPoly(self.m)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly(self.m)
        out.terms = {exp: -coef for exp, coef in self.terms.items()}
        return out

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other if isinstance(other, MultiPoly) else MultiPoly.constant(self.m, -Fraction(other)))

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return MultiPoly.zero(self.m)
            out = MultiPoly(self.m)
            out.terms = {exp: coef * other for exp, coef in self.terms.items()}
            return out
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_layout(other)
        den1, ints1 = _integer_terms(self.terms)
        den2, ints2 = _integer_terms(other.terms)
        acc: Dict[Exponents, int] = {}
        get = acc.get
        for e1, c1 in ints1:
            for e2, c2 in ints2:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + c1 * c2
        den = den1 * den2
        out = MultiPoly(self.m)
        out.terms = {exp: Fraction(c, den) for exp, c in acc.items() if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        _check_int("power", n)
        result = MultiPoly.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, i: int, j: int) -> "MultiPoly":
        """Formal partial derivative with respect to x_ij."""
        idx = var_index(self.m, i, j)
        terms: Dict[Exponents, Fraction] = {}
        for exp, coef in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            lowered = exp[:idx] + (e - 1,) + exp[idx + 1:]
            terms[lowered] = terms.get(lowered, Fraction(0)) + coef * e
        return MultiPoly(self.m, terms)

    def evaluate(self, values: Sequence) -> Fraction:
        """Exact value at a point, given the m*m entries in row-major order."""
        if len(values) != self.m * self.m:
            raise PreconditionError(
                f"need {self.m * self.m} values, got {len(values)}"
            )
        values = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            term = coef
            for idx, e in enumerate(exp):
                if e:
                    term *= values[idx] ** e
            total += term
        return total

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous or zero."""
        degs = {sum(exp) for exp in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def monomial_content(self, exp: Exponents) -> tuple:
        """(row counts, column counts) of a monomial, each a length-m tuple."""
        m = self.m
        rows = [0] * m
        cols = [0] * m
        for idx, e in enumerate(exp):
            if e:
                rows[idx // m] += e
                cols[idx % m] += e
        return tuple(rows), tuple(cols)

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [{"exp": list(exp), "coef": format_rational(coef)} for exp, coef in items]

    @classmethod
    def from_json(cls, m: int, data: Iterable[dict]) -> "MultiPoly":
        terms: Dict[Exponents, Fraction] = {}
        for item in data:
            exp = item.get("exp") if isinstance(item, dict) else None
            shaped = isinstance(exp, (list, tuple)) and "coef" in item
            if not shaped or any(type(e) is not int for e in exp):
                raise PreconditionError(
                    f'polynomial term must be {{"exp": [integers], "coef": rational}}, got {item!r}'
                )
            exp = tuple(exp)
            terms[exp] = terms.get(exp, Fraction(0)) + parse_rational(str(item["coef"]))
        return cls(m, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        m = self.m
        parts = []
        for exp, coef in sorted(self.terms.items()):
            factors = []
            for idx, e in enumerate(exp):
                if e:
                    i, j = divmod(idx, m)
                    name = f"x{i + 1}{j + 1}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({format_rational(coef)})*{mono}")
        return " + ".join(parts)


def _integer_terms(terms: Dict[Exponents, Fraction]) -> Tuple[int, List[Tuple[Exponents, int]]]:
    """(d, [(exponents, d * coefficient)]) with d the lcm of the denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(exp, c.numerator * (den // c.denominator)) for exp, c in terms.items()]


@dataclass(frozen=True)
class MinorIndex:
    """Row and column index sets of a square submatrix, sorted and 1-based."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        rows, cols = _as_tuple("minor rows", self.rows), _as_tuple("minor columns", self.cols)
        for index in rows + cols:
            _check_int("minor index", index, 1)
        rows, cols = tuple(sorted(rows)), tuple(sorted(cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols):
            raise PreconditionError(f"minor must be square, got {rows} x {cols}")
        for seq in (rows, cols):
            if len(set(seq)) != len(seq):
                raise PreconditionError(f"repeated index in {seq}")

    @property
    def size(self) -> int:
        return len(self.rows)


_MINOR_CACHE: Dict[Tuple[int, tuple, tuple], MultiPoly] = {}


def minor_poly(idx: MinorIndex, m: int) -> MultiPoly:
    """Determinant of the selected submatrix, by memoized Leibniz expansion."""
    _check_int("m", m, 1)
    _check_type("minor", idx, MinorIndex)
    if idx.size == 0:
        raise PreconditionError("empty minor")
    if idx.rows[-1] > m or idx.cols[-1] > m:
        raise PreconditionError(f"minor {idx} does not fit in a {m}x{m} matrix")
    return _minor_poly(m, idx.rows, idx.cols)


def _minor_poly(m: int, rows: tuple, cols: tuple) -> MultiPoly:
    key = (m, rows, cols)
    cached = _MINOR_CACHE.get(key)
    if cached is not None:
        return cached
    # One signed monomial per permutation: distinct permutations never share one.
    n = m * m
    offsets = [(i - 1) * m - 1 for i in rows]
    terms: Dict[Exponents, Fraction] = {}
    for perm, sign in _signed_permutations(len(rows)):
        exp = [0] * n
        for offset, p in zip(offsets, perm):
            exp[offset + cols[p]] = 1
        terms[tuple(exp)] = sign
    result = MultiPoly(m)
    result.terms = terms
    _MINOR_CACHE[key] = result
    return result


@cache
def _signed_permutations(size: int) -> tuple:
    """(permutation of range(size), its sign as a Fraction) for every permutation.

    Cached, so all minors of one size share their +1 and -1 coefficients."""
    out = []
    for perm in permutations(range(size)):
        inversions = sum(a > b for pos, a in enumerate(perm) for b in perm[pos + 1:])
        out.append((perm, Fraction((-1) ** inversions)))
    return tuple(out)


def _series_product(a: list, b: list) -> list:
    """Product of two coefficient lists of one length, truncated to that length."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def substitute_series(p: MultiPoly, assignment: Sequence[Sequence[list]], truncation: int) -> list:
    """Evaluate p at an m x m matrix of power series in t, exactly mod t**(N+1)
    with N the truncation.

    Each series, and the result, is the list of its N + 1 coefficients of
    t**0, ..., t**N; the result's are Fractions.  Every monomial is multiplied
    out, so this is the short minor-by-minor reference for the series oracle."""
    m = p.m
    _check_int("truncation", truncation)
    if len(assignment) != m or any(len(row) != m for row in assignment):
        raise PreconditionError(f"assignment must be an {m}x{m} matrix of series")
    if any(len(s) != truncation + 1 for row in assignment for s in row):
        raise PreconditionError(f"every series needs {truncation + 1} coefficients")
    den, ints = _integer_terms(p.terms)
    total = [0] * (truncation + 1)
    for exp, coef in ints:
        term = [1] + [0] * truncation
        for idx, e in enumerate(exp):
            for _ in range(e):
                term = _series_product(term, assignment[idx // m][idx % m])
        total = [u + coef * v for u, v in zip(total, term)]
    return [Fraction(c, den) for c in total]
