"""Standard monomial theory on the matrix polynomial ring.

Young diagrams and tableaux, the dominance and tableau partial orders,
bideterminant polynomials, expansion into the standard basis
("straightening"), and the rectangular-shape membership test for the
subalgebra generated by the k x k minors.

Conventions.  A tableau is standard when every row strictly increases left
to right and every column is nondecreasing top to bottom.  A row of a double
tableau names the row set (left side) and column set (right side) of a
minor; the bideterminant is the product of those minors over all rows, and
depends on the rows only as sets.

Straightening is exact linear algebra: within each content block the
standard bideterminants are a basis of the span of the monomials of that
content, so expanding a polynomial is one invertible solve per content.
Blocks are cached by zero-free content: the rows and columns a content uses
are relabelled, in order, to 1..m', which keeps standardness and every
minor's sign, so contents that differ only by zero rows or columns, at any
m, share one block.  A content and its transpose share one block as well,
since (L|R)(X^T) = (R|L)(X): the other orientation swaps the two sides of
its input and of every solved term.  A block's columns, the standard
bideterminants, are multiplied out on packed monomials (one int each, so a
product is one addition), and the monomials they reach are its rows: by the
straightening law these are all the monomials of the content, so none is
enumerated.  The input of `straighten`, and each content of
`standard_coordinates`, is packed the same way; `StandardExpansion.to_poly`
(and `bideterminant`, its one-term case) sums each term's product of the
integer minors of `polynomials`, multiplied out once per process and
memoized, so re-expanding a result checks the packed route independently.
The standard tableaux of each content are enumerated once, every shape in
one pass, and cached by shape.  Working modulo the ideal of (k+1)-minors is
realized by dropping standard terms with a row longer than k.

Modulo the 2-minors (k = 1) the same grouping by content builds no block:
x_ij x_pq = x_iq x_pj there, so every monomial of a content equals the one
standard product of that content, whose two sides are the only standard
fillings of one column with the row and with the column content, read from
the enumeration memo.  That content's coordinate is the sum of its
coefficients (the rank-one case of the straightening law).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .core import PreconditionError, _as_tuple, _check_int, _check_type
from .linalg import PreparedSolver
from .polynomials import Exponents, MultiPoly, _minor_poly, _multiply_into, _signed_permutations

MAX_DEGREE = 6
# Matrix sizes straighten accepts.  Blocks are built at the size of their
# zero-free content and straighten builds no exponent vector, so this bounds
# only the length-m content tuples that `Tableau.content(m)` allocates.
MAX_M = 16


@dataclass(frozen=True)
class YoungDiagram:
    """Nonincreasing tuple of positive row lengths (possibly empty)."""

    rows: tuple

    def __post_init__(self):
        rows = _as_tuple("row lengths", self.rows)
        object.__setattr__(self, "rows", rows)
        if any(type(r) is not int or r < 1 for r in rows):
            raise PreconditionError(f"row lengths must be positive integers: {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise PreconditionError(f"row lengths must be nonincreasing: {rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def dominance_leq(sigma: YoungDiagram, tau: YoungDiagram) -> bool:
    """Prefix-sum comparison; missing rows count as zero."""
    acc_s = acc_t = 0
    for j in range(max(len(sigma), len(tau))):
        acc_s += sigma.rows[j] if j < len(sigma.rows) else 0
        acc_t += tau.rows[j] if j < len(tau.rows) else 0
        if acc_s > acc_t:
            return False
    return True


@dataclass(frozen=True)
class Tableau:
    """A filling of a Young diagram with positive integers."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(_as_tuple("tableau row", row) for row in _as_tuple("tableau rows", self.rows))
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if any(type(v) is not int or v < 1 for v in row):
                raise PreconditionError(f"entries must be integers >= 1: {row}")
            if not row:
                raise PreconditionError("empty tableau row")
        lengths = tuple(len(row) for row in rows)
        if any(a < b for a, b in zip(lengths, lengths[1:])):
            raise PreconditionError(f"row lengths must be nonincreasing: {lengths}")

    @property
    def shape(self) -> YoungDiagram:
        return YoungDiagram(tuple(len(row) for row in self.rows))

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def max_entry(self) -> int:
        return max((v for row in self.rows for v in row), default=0)

    def content(self, m: int) -> tuple:
        """Multiplicity of each value 1..m, as a length-m tuple."""
        _check_int("m", m, 1)
        counts = [0] * m
        for row in self.rows:
            for v in row:
                if v > m:
                    raise PreconditionError(f"entry {v} exceeds m={m}")
                counts[v - 1] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        return {"shape": [len(r) for r in self.rows], "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        """Read outside input: "rows" must be a list of lists of JSON integers."""
        rows = data["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in rows
        ):
            raise TypeError(f"tableau rows must be lists of integers, got {rows!r}")
        t = cls(tuple(map(tuple, rows)))
        if "shape" in data and tuple(data["shape"]) != t.shape.rows:
            raise PreconditionError(
                f"declared shape {data['shape']!r} does not match rows {t.shape.rows}"
            )
        return t


def _trusted_tableau(rows: tuple) -> Tableau:
    """A Tableau from a tuple of int tuples that is a valid filling by
    construction, without the checks of Tableau.__post_init__."""
    t = object.__new__(Tableau)
    object.__setattr__(t, "rows", rows)
    return t


def _trusted_pair(left: Tableau, right: Tableau) -> "DoubleTableau":
    """A DoubleTableau from two Tableaux of one shape, without the checks of
    DoubleTableau.__post_init__."""
    dt = object.__new__(DoubleTableau)
    object.__setattr__(dt, "left", left)
    object.__setattr__(dt, "right", right)
    return dt


def tableau_leq(t: Tableau, other: Tableau) -> bool:
    """T <= T' iff, for every p and q, the first p rows of T contain at most
    as many entries <= q as the first p rows of T'."""
    depth = max(len(t.rows), len(other.rows))
    top = max(t.max_entry, other.max_entry)
    for p in range(1, depth + 1):
        vals_t = [v for row in t.rows[:p] for v in row]
        vals_o = [v for row in other.rows[:p] for v in row]
        for q in range(1, top + 1):
            if sum(1 for v in vals_t if v <= q) > sum(1 for v in vals_o if v <= q):
                return False
    return True


def double_tableau_leq(dt: "DoubleTableau", other: "DoubleTableau") -> bool:
    """Componentwise comparison of the two sides."""
    return tableau_leq(dt.left, other.left) and tableau_leq(dt.right, other.right)


def is_standard(t: Tableau) -> bool:
    """Rows strictly increase left to right; columns nondecrease top to bottom."""
    _check_type("tableau", t, Tableau)
    for row in t.rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for r in range(len(t.rows) - 1):
        upper, lower = t.rows[r], t.rows[r + 1]
        if any(upper[c] > lower[c] for c in range(len(lower))):
            return False
    return True


@dataclass(frozen=True)
class DoubleTableau:
    """A pair of tableaux of the same shape; its rows index minors."""

    left: Tableau
    right: Tableau

    def __post_init__(self):
        if not (isinstance(self.left, Tableau) and isinstance(self.right, Tableau)):
            raise PreconditionError(f"sides must be Tableaux, got {self.left!r}, {self.right!r}")
        if list(map(len, self.left.rows)) != list(map(len, self.right.rows)):
            raise PreconditionError(
                f"sides have different shapes: {self.left.shape.rows} vs {self.right.shape.rows}"
            )

    @property
    def shape(self) -> YoungDiagram:
        return self.left.shape

    @property
    def is_standard(self) -> bool:
        return is_standard(self.left) and is_standard(self.right)

    def sort_key(self) -> tuple:
        return (self.left.rows, self.right.rows)

    def to_json(self) -> dict:
        return {"left": self.left.to_json(), "right": self.right.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "DoubleTableau":
        return cls(Tableau.from_json(data["left"]), Tableau.from_json(data["right"]))


@dataclass(frozen=True)
class StandardExpansion:
    """Expansion in the standard basis: a tuple of (coefficient, standard DT) terms."""

    terms: tuple

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_poly(self, m: int) -> MultiPoly:
        """The sum of the terms, collected in integers over the lcm of the
        coefficient denominators, as in `MultiPoly.__mul__`: each term adds
        its scaled coefficient times its memoized integer product (see
        `_standard_product`), and each output coefficient is one `Fraction`.
        Every term is checked before any product is read, and every call
        returns a new polynomial."""
        _check_int("m", m, 1)
        for _, dt in self.terms:
            _check_rows(dt, m)
        den = lcm(*(coef.denominator for coef, _ in self.terms))
        acc: Dict[Exponents, int] = {}
        get = acc.get
        for coef, dt in self.terms:
            scale = coef.numerator * (den // coef.denominator)
            for exp, c in _standard_product(m, dt.left.rows, dt.right.rows):
                acc[exp] = get(exp, 0) + scale * c
        out = MultiPoly(m)
        out.terms = {exp: Fraction(c, den) for exp, c in acc.items() if c}
        return out

    def to_json(self) -> list:
        return [
            {"coef": str(coef), "left": dt.left.to_json(), "right": dt.right.to_json()}
            for coef, dt in self.terms
        ]


_PRODUCT_CACHE: Dict[tuple, tuple] = {}


def _standard_product(m: int, left_rows: tuple, right_rows: tuple) -> tuple:
    """The product of the row minors (left row | right row), each row read
    as a sorted index set, as (exponents, int) pairs with no zero
    coefficient: multiplied out by `_multiply_into` once per (m, rows) and
    memoized as an immutable tuple."""
    key = (m, left_rows, right_rows)
    product = _PRODUCT_CACHE.get(key)
    if product is None:
        acc = {(0,) * (m * m): 1}
        for lrow, rrow in zip(left_rows, right_rows):
            minor = _minor_poly(m, tuple(sorted(lrow)), tuple(sorted(rrow)))
            acc = _multiply_into({}, acc.items(), minor)
        product = _PRODUCT_CACHE[key] = tuple((exp, c) for exp, c in acc.items() if c)
    return product


def bideterminant(dt: DoubleTableau, m: int) -> MultiPoly:
    """Product over rows of the minor with row set = left row, column set = right row.

    Rows are read as index sets, so the value is insensitive to the order of
    entries within a row; repeated entries within a row are rejected.  This
    is the one-term `StandardExpansion.to_poly`.
    """
    return StandardExpansion(((Fraction(1), dt),)).to_poly(m)


def _check_rows(dt: DoubleTableau, m: int) -> None:
    """Reject a dt that is not a DoubleTableau, or a row pair of it that
    repeats an entry or does not fit in m."""
    _check_type("double tableau", dt, DoubleTableau)
    for lrow, rrow in zip(dt.left.rows, dt.right.rows):
        if len(set(lrow)) != len(lrow) or len(set(rrow)) != len(rrow):
            raise PreconditionError(f"repeated entry within a row: {lrow} | {rrow}")
        if max(lrow) > m or max(rrow) > m:
            raise PreconditionError(f"row {lrow} | {rrow} does not fit in m={m}")


def enumerate_standard_tableaux(m: int, shape: tuple, content: tuple) -> List[Tableau]:
    """All standard fillings of `shape` with `content`, a length-m tuple of
    multiplicities, as a new list in lexicographic order of the rows.  Only
    that content is enumerated, once per content (see `_tableaux_by_shape`)."""
    _check_int("m", m, 1)
    shape = YoungDiagram(shape).rows
    return list(_tableaux_by_shape(_check_content(m, content)).get(shape, ()))


def _check_content(m: int, content) -> tuple:
    """A content as a tuple of m ints >= 0; anything else is rejected."""
    content = _as_tuple("content", content)
    if len(content) != m or any(type(c) is not int or c < 0 for c in content):
        raise PreconditionError(f"content must be m={m} integers >= 0, got {content}")
    return content


_TABLEAU_CACHE: Dict[tuple, Dict[tuple, tuple]] = {}


def _tableaux_by_shape(content: tuple) -> Dict[tuple, tuple]:
    """Every standard tableau of a content, as {shape: tableaux in row
    order}, memoized per content.

    The tableau grows one value at a time: value v adds content[v - 1] boxes,
    at most one per row, so rows strictly increase.  Top to bottom, a row may
    take v when the row above is longer, counting a v just placed there
    (columns nondecrease); the boxes left over start new rows of length 1.
    Every choice leaves a standard tableau, so the recursion has no dead end.
    """
    if content in _TABLEAU_CACHE:
        return _TABLEAU_CACHE[content]
    values = [v for v, c in enumerate(content, 1) if c]
    counts = [c for c in content if c] + [0]
    rows: List[List[int]] = []
    found: Dict[tuple, list] = {}

    def place(i: int, r: int, left: int) -> None:
        # rows[:r] have taken values[i] or not, and `left` boxes of it remain.
        if i == len(values):
            found.setdefault(tuple(map(len, rows)), []).append(tuple(map(tuple, rows)))
        elif r < len(rows):
            if left and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(values[i])
                place(i, r + 1, left - 1)
                rows[r].pop()
            place(i, r + 1, left)
        else:
            rows.extend([values[i]] for _ in range(left))
            place(i + 1, 0, counts[i + 1])
            del rows[r:]

    place(0, 0, counts[0])
    del place  # the closure refers to itself: break the cycle
    cached = _TABLEAU_CACHE[content] = {
        shape: tuple(_trusted_tableau(t) for t in sorted(tabs)) for shape, tabs in found.items()
    }
    return cached


def enumerate_standard_basis(
    m: int, content: tuple, k_bound: Optional[int] = None
) -> List[DoubleTableau]:
    """All standard double tableaux of one content, in `sort_key` order.

    `content` is a pair (left counts, right counts) of length-m tuples with
    equal totals.  `k_bound` keeps only shapes with rows <= k_bound.
    Enumeration beyond the degree guard is rejected rather than attempted.
    """
    _check_int("m", m, 1)
    if k_bound is not None:
        _check_int("k_bound", k_bound)
    sides = [_check_content(m, c) for c in _as_tuple("content", content)]
    if len(sides) != 2 or sum(sides[0]) != sum(sides[1]):
        raise PreconditionError("content must be a (left, right) pair with equal totals")
    if sum(sides[0]) > MAX_DEGREE:
        raise PreconditionError(f"degree {sum(sides[0])} exceeds enumeration guard {MAX_DEGREE}")
    return _standard_basis(*sides, k_bound)


def _standard_basis(
    left_content: tuple, right_content: tuple, k_bound: Optional[int]
) -> List[DoubleTableau]:
    """enumerate_standard_basis on checked input, without the degree guard."""
    rights = _tableaux_by_shape(right_content)
    out = [
        _trusted_pair(lt, rt)
        for shape, lefts in _tableaux_by_shape(left_content).items()
        if k_bound is None or max(shape, default=0) <= k_bound
        for lt in lefts
        for rt in rights.get(shape, ())
    ]
    out.sort(key=DoubleTableau.sort_key)
    return out


class _ContentBlock:
    """Change of basis between packed monomials and standard bideterminants of one content.

    The rows are the packed monomials the standard bideterminants reach, in
    descending order.  By the straightening law they are all the monomials
    of the content, one per tableau; the square and rank checks hold it.
    """

    def __init__(self, m: int, row_content: tuple, col_content: tuple):
        self.m = m
        self.bits = bits = sum(row_content).bit_length()
        self.tableaux = _standard_basis(row_content, col_content, None)
        packed = [_packed_bideterminant(dt, m, bits) for dt in self.tableaux]
        rows = sorted({mono for col in packed for mono, coef in col.items() if coef}, reverse=True)
        if len(rows) != len(self.tableaux):
            raise RuntimeError(
                "standard basis size does not match the monomials it reaches for content "
                f"{row_content} | {col_content}: this contradicts the straightening law"
            )
        self.row_of = row_of = {mono: i for i, mono in enumerate(rows)}
        # Bideterminants have integer coefficients, so the columns are integers.
        columns = [{row_of[mono]: coef for mono, coef in col.items() if coef} for col in packed]
        try:
            self.solver = PreparedSolver(columns)
        except ArithmeticError as exc:
            raise RuntimeError(
                "standard bideterminants are linearly dependent within a content "
                "block: this contradicts the straightening law"
            ) from exc

    def coordinates(self, terms: Dict[int, Fraction]) -> List[tuple]:
        """(coefficient, standard double tableau) pairs of the packed terms."""
        rhs = [0] * len(self.row_of)
        try:
            for mono, coef in terms.items():
                rhs[self.row_of[mono]] = coef
        except KeyError:
            raise RuntimeError(
                "an input monomial of the content is reached by no standard "
                "bideterminant: this contradicts the straightening law"
            ) from None
        solution = self.solver.solve(rhs)
        if solution is None:
            raise RuntimeError(
                "the standard bideterminants of a content block have no integer "
                "coordinates for the input: this contradicts the straightening law over Z"
            )
        return [(coef, self.tableaux[i]) for i, coef in enumerate(solution) if coef != 0]


# Packed monomials.  A block monomial of degree d is one int with a field of
# d.bit_length() bits per variable, first variable most significant: x_ij's
# exponent in an m x m block sits at shift (m * m - 1 - idx) * bits, idx its
# row-major index, so descending packed order is descending lexicographic
# order of exponent vectors.  Every exponent of a column, and of every partial
# product of its rows, is at most d, so adding two packed monomials never
# carries from one field into the next: the sum is the packed product.


_PACKED_MINOR_CACHE: Dict[tuple, list] = {}


def _packed_minor(m: int, bits: int, rows: tuple, cols: tuple) -> list:
    """The minor on rows x cols as (packed monomial, +1 or -1) pairs, by Leibniz."""
    key = (m, bits, rows, cols)
    minor = _PACKED_MINOR_CACHE.get(key)
    if minor is None:
        fields = [[((m - i) * m + m - j) * bits for j in cols] for i in rows]
        minor = [
            (sum(1 << row[p] for row, p in zip(fields, perm)), sign)
            for perm, sign in _signed_permutations(len(rows))
        ]
        _PACKED_MINOR_CACHE[key] = minor
    return minor


def _packed_bideterminant(dt: DoubleTableau, m: int, bits: int) -> Dict[int, int]:
    """The bideterminant of dt as packed monomial -> integer coefficient: a
    running product of its row minors, shortest row first, so that the
    product stays small until the long rows."""
    column = {0: 1}
    for lrow, rrow in zip(reversed(dt.left.rows), reversed(dt.right.rows)):
        minor = _packed_minor(m, bits, lrow, rrow)
        product: Dict[int, int] = {}
        get = product.get
        for mono, coef in column.items():
            for factor, sign in minor:
                key = mono + factor
                product[key] = get(key, 0) + coef * sign
        column = product
    return column


_BLOCK_CACHE: Dict[tuple, _ContentBlock] = {}


def _content_block(
    row_content: tuple, col_content: tuple
) -> Tuple[_ContentBlock, tuple, tuple, bool]:
    """The block of a content, keyed by its zero-free content, the block's
    support rows and columns (0-based, increasing), and whether it is flipped.

    The support rows and columns are relabelled, in order, to 1..m' with
    m' = max(#rows, #cols, 1), and both contents are zero-padded to length
    m'.  An order-preserving relabelling keeps standardness and the sign of
    every minor, so every content with the same nonzero counts in the same
    order, at any m, shares one block with the same coordinates.  So does
    the transpose, as (L|R)(X^T) = (R|L)(X): the key is the orientation
    whose zero-free key sorts first, and a flipped content's support
    columns are the block's rows, its support rows the block's columns.
    """
    rows = tuple(i for i, c in enumerate(row_content) if c)
    cols = tuple(j for j, c in enumerate(col_content) if c)
    size = max(len(rows), len(cols), 1)
    rkey = tuple(row_content[i] for i in rows) + (0,) * (size - len(rows))
    ckey = tuple(col_content[j] for j in cols) + (0,) * (size - len(cols))
    flipped = ckey < rkey
    if flipped:
        rkey, ckey, rows, cols = ckey, rkey, cols, rows
    block = _BLOCK_CACHE.get((rkey, ckey))
    if block is None:
        block = _BLOCK_CACHE[rkey, ckey] = _ContentBlock(size, rkey, ckey)
    return block, rows, cols, flipped


def _relabel(t: Tableau, labels: tuple) -> Tableau:
    """t with each entry v replaced by labels[v - 1] + 1."""
    return _trusted_tableau(tuple(tuple(labels[v - 1] + 1 for v in row) for row in t.rows))


def _onto_support(t: Tableau, support: tuple) -> Tableau:
    """The inverse of `_relabel`: t, whose entries lie in the support
    (0-based, increasing), with each entry replaced by its place 1..len(support)
    there and each row sorted."""
    place = {v + 1: a + 1 for a, v in enumerate(support)}
    return _trusted_tableau(tuple(tuple(sorted(place[v] for v in row)) for row in t.rows))


def _support_terms(
    block: _ContentBlock, rows: tuple, cols: tuple, packed: dict, k_bound: Optional[int], flipped: bool
) -> List[tuple]:
    """The block's coordinates of the packed terms of one content on the
    support rows and columns.  With k_bound set, a solved term whose first
    (longest) row is longer than k_bound is dropped; unless the support is
    already the first rows and columns, the rest are relabelled back onto it.
    On a flipped content each term's sides are swapped back and the terms
    re-sorted; otherwise they come in the block's `sort_key` order."""
    identity = rows == tuple(range(len(rows))) and cols == tuple(range(len(cols)))
    terms: List[tuple] = []
    for coef, d in block.coordinates(packed):
        if k_bound is not None and d.left.rows and len(d.left.rows[0]) > k_bound:
            continue
        if not identity:
            d = _trusted_pair(_relabel(d.left, rows), _relabel(d.right, cols))
        terms.append((coef, _trusted_pair(d.right, d.left) if flipped else d))
    return sorted(terms, key=lambda t: t[1].sort_key()) if flipped else terms


def standard_coordinates(p: MultiPoly, m: int, k_bound: Optional[int] = None) -> StandardExpansion:
    """Expansion of p in the standard basis, content by content.

    Each content's terms are packed straight into the layout of its
    zero-free block (see `_content_block`) and, unless the support is
    already the first rows and columns, the block's tableaux are relabelled
    back.  With k_bound set, a solved term whose first (longest) row is
    longer than k_bound is dropped before relabelling: the result represents
    the image of p modulo the ideal of (k_bound+1)-minors.  At k_bound = 1 a
    content's coordinate is the sum of its coefficients, and no block is built.
    """
    _check_int("m", m, 1)
    if p.m != m:
        raise PreconditionError(f"polynomial lives in a {p.m}x{p.m} layout, expected {m}")
    if k_bound is not None:
        _check_int("k_bound", k_bound)
    by_content: Dict[tuple, Dict[Exponents, Fraction]] = {}
    for exp, coef in p.terms.items():
        by_content.setdefault(p.monomial_content(exp), {})[exp] = coef
    terms: List[tuple] = []
    for (rc, cc), chunk in by_content.items():
        if k_bound == 1:
            coef = sum(chunk.values())
            if coef:
                left, right = (_tableaux_by_shape(c)[(1,) * sum(c)][0] for c in (rc, cc))
                terms.append((Fraction(coef), _trusted_pair(left, right)))
            continue
        block, rows, cols, flipped = _content_block(rc, cc)
        # Variable x_{r, c} of the support is block variable (a, b), of
        # row-major index a * size + b in a packed block monomial; on a
        # flipped content, x_{c, r} is.
        size, bits = block.m, block.bits
        layout = [
            (c * m + r if flipped else r * m + c, (size * size - 1 - a * size - b) * bits)
            for a, r in enumerate(rows)
            for b, c in enumerate(cols)
        ]
        packed = {sum(exp[i] << shift for i, shift in layout): coef for exp, coef in chunk.items()}
        terms.extend(_support_terms(block, rows, cols, packed, k_bound, flipped))
    terms.sort(key=lambda t: t[1].sort_key())
    return StandardExpansion(tuple(terms))


def straighten(dt: DoubleTableau, m: int, k_bound: Optional[int] = None) -> StandardExpansion:
    """Expand the bideterminant of dt in the standard basis.

    Every resulting shape dominates the shape of dt and the content is
    preserved.  With k_bound, the expansion is taken modulo the ideal of
    (k_bound+1)-minors by dropping terms with rows longer than k_bound.

    The bideterminant has one content, so dt goes straight to that
    content's block: its rows, relabelled onto the block's support and
    sorted, are multiplied out by the packed kernel of the block's own
    columns and solved, and no `MultiPoly` is built.  The block's tableaux
    are sorted and relabelling keeps their order, so the terms come in
    `sort_key` order.  When the block is the content's transpose, dt's two
    sides are swapped first, and each term's swapped back and re-sorted.
    No block is built when the first (longest) row of dt is longer than
    k_bound: every term's shape dominates dt's, so no term survives.  Nor
    at k_bound = 1, where every row is then a single entry and the
    content's one standard product has coefficient 1.
    """
    _check_int("m", m, 1)
    if m > MAX_M:
        raise PreconditionError(f"matrix size m={m} exceeds straightening guard {MAX_M}")
    _check_rows(dt, m)
    if dt.shape.size > MAX_DEGREE:
        raise PreconditionError(f"degree {dt.shape.size} exceeds straightening guard {MAX_DEGREE}")
    if k_bound is not None:
        _check_int("k_bound", k_bound)
    if k_bound is not None and dt.left.rows and len(dt.left.rows[0]) > k_bound:
        return StandardExpansion(())
    rc, cc = dt.left.content(m), dt.right.content(m)
    if k_bound == 1:
        left, right = (_tableaux_by_shape(c)[(1,) * dt.shape.size][0] for c in (rc, cc))
        return StandardExpansion(((Fraction(1), _trusted_pair(left, right)),))
    block, rows, cols, flipped = _content_block(rc, cc)
    left, right = (dt.right, dt.left) if flipped else (dt.left, dt.right)
    rel = _trusted_pair(_onto_support(left, rows), _onto_support(right, cols))
    packed = _packed_bideterminant(rel, block.m, block.bits)
    return StandardExpansion(tuple(_support_terms(block, rows, cols, packed, k_bound, flipped)))


@dataclass(frozen=True)
class Membership:
    """Outcome of the minor-subalgebra test.

    When `is_member` holds, `expansion` is a standard expansion of the input
    modulo the (k+1)-minor ideal in which every shape is the rectangle
    (k, ..., k); re-expanding it writes the input as a polynomial in the
    k x k minors.
    """

    is_member: bool
    expansion: Optional[StandardExpansion]
    offending: Optional[DoubleTableau] = None


def subalgebra_membership(F: MultiPoly, m: int, k: int) -> Membership:
    """Decide whether F, modulo the ideal of (k+1)-minors, is a polynomial in
    the k x k minors.

    F must be homogeneous with degree divisible by k.  The image of F is
    expanded in the standard basis with rows <= k; membership holds exactly
    when every surviving shape is the rectangle (k, ..., k).
    """
    _check_int("m", m, 1)
    _check_int("k", k, 1, m)
    _check_type("F", F, MultiPoly)
    if F.m != m:
        raise PreconditionError(f"polynomial layout {F.m} does not match m={m}")
    if F.is_zero:
        return Membership(True, StandardExpansion(()))
    degree = F.homogeneous_degree()
    if degree is None:
        raise PreconditionError("membership test requires a homogeneous polynomial")
    if degree % k != 0:
        raise PreconditionError(f"degree {degree} is not divisible by k={k}")
    return _rectangular_membership(standard_coordinates(F, m, k_bound=k), k)


def _rectangular_membership(expansion: StandardExpansion, k: int) -> Membership:
    """Membership read off a standard expansion with rows <= k: the first
    term whose shape is not the rectangle (k, ..., k) is offending."""
    for _, tab in expansion:
        if any(len(r) != k for r in tab.left.rows):
            return Membership(False, None, offending=tab)
    return Membership(True, expansion)
