"""Independent verification engines for the closed mld formulas.

Two oracles:

* brute-force minimization of the discrepancy objective
  codim - (Nash contact order) - sum alpha_i * w_i
  over all valid orbit partitions with bounded entries, together with an
  analytic certificate of unboundedness from the beta prefix sums.  The
  search never builds a partition: every orbit has the head (INF,)*(m-k),
  the jet-space head, and a tail of `iter_tails` (nonincreasing naturals by
  construction).  The alpha-free part of the objective depends only on the
  box (m, k, target, bound), so each box is tabulated once per process in
  `_TAIL_TABLE_CACHE`: every tail is checked for the target's membership
  conditions and its codim - (Nash contact order) and contact orders are
  read off the orbit formula bodies.  A search then scores every row of the
  table in integers over the lcm of the coefficient denominators, scaled
  from the coefficients themselves and not from the pair's prefix sums that
  the closed forms read;

* a truncated-power-series computation of contact orders, evaluating every
  minor of a matrix of monomial series exactly (optionally conjugated by
  random invertible constant matrices, which leaves the orders unchanged).
  The minors are built by row-by-row Laplace expansion, each from the
  shared minors of one row fewer, on series packed into single integers
  (Kronecker substitution: one bit field per coefficient, wide enough for
  every coefficient any minor can reach), so a scalar-times-series step is
  one integer multiply and the oracle needs no polynomial layer.  It
  accepts matrices up to 8 x 8 and truncations up to t**64.

The search runs over nonincreasing tails only: orbits are indexed by
extended partitions, so unsorted tuples label no orbit.  Where that domain
and the closed formulas disagree (possible when some beta coefficient is
negative while all beta prefix sums stay nonnegative), both values are
reported and flagged rather than reconciled.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, lcm
from operator import mul
from typing import Iterator, Optional, Union

from .core import (
    INF,
    DeterminantalPair,
    ExtendedPartition,
    MldValue,
    PreconditionError,
    _check_int,
)
from .mld import BetaVector, beta_coefficients, mld_along, mld_at_rank
from .orbits import (
    _codim,
    _codim_point,
    _contact_orders,
    _meets_point_fiber,
    _nash_contact_order,
    _require_in_jet_space,
    _tail,
)


@dataclass(frozen=True)
class PointTarget:
    """Minimize over arcs through a fixed matrix of rank q."""

    q: int


@dataclass(frozen=True)
class LocusTarget:
    """Minimize over arcs centered in the rank <= k-j sublocus."""

    j: int


Target = Union[PointTarget, LocusTarget]


class _AboveTruncation(enum.Enum):
    """Every minor vanishes beyond the truncation.  An enum member, so it
    stays one object under copy and pickle and callers test it with `is`."""

    ABOVE_TRUNCATION = enum.auto()


ABOVE_TRUNCATION = _AboveTruncation.ABOVE_TRUNCATION

# Bounds of the series oracle: the number of minors grows as C(m, s)**2 and
# each series has truncation + 1 coefficients.
MAX_SERIES_SIZE = 8
MAX_TRUNCATION = 64
# Bound of the orbit search: the number of tails it may visit.
MAX_SEARCH_TAILS = 100_000

# The rows (tail, codim - Nash order, contact orders) of each searched box,
# keyed by (m, k, target, bound); detmld.clear_caches() empties it.
_TAIL_TABLE_CACHE: dict = {}


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a bounded objective search.

    `at_boundary` means some searched coordinate of the reported argmin hit
    the bound, so the minimum is only an upper bound on the true infimum.
    `prefix_unbounded` is the analytic certificate that some beta prefix sum
    is negative, in which case the infimum over the sorted domain is minus
    infinity regardless of the bound.  `betas` are the beta coefficients
    that certificate was read from (k - q at a point, k along a locus); they
    are not part of the JSON.
    """

    minimum: MldValue
    argmin: Optional[tuple]
    at_boundary: bool
    prefix_unbounded: bool
    betas: BetaVector

    def to_json(self) -> dict:
        return {
            "minimum": str(self.minimum),
            "argmin": list(self.argmin) if self.argmin is not None else None,
            "at_boundary": self.at_boundary,
            "prefix_unbounded": self.prefix_unbounded,
        }


@dataclass(frozen=True)
class OracleComparison:
    """Oracle search result next to the closed-form value."""

    oracle: OracleResult
    closed_form: MldValue
    agree: bool


def _validate_target(pair: DeterminantalPair, target: Target) -> None:
    if isinstance(target, PointTarget):
        _check_int("q", target.q, 0, pair.k)
    elif isinstance(target, LocusTarget):
        _check_int("j", target.j, 1, pair.k)
    else:
        raise PreconditionError(f"unknown target {target!r}")


def _scaled_alphas(pair: DeterminantalPair) -> tuple:
    """The lcm D of the coefficient denominators and the integers D * alpha_i.

    Scaled from pair.alphas, not read off the pair's integer prefix sums that
    the closed forms use, so a fault in either shows as a disagreement.
    """
    denominator = lcm(*(a.denominator for a in pair.alphas))
    return denominator, tuple(a.numerator * (denominator // a.denominator) for a in pair.alphas)


def _require_member(pair: DeterminantalPair, tail: tuple, target: Target) -> None:
    """Reject the orbit (INF,)*(m-k) + tail unless it has length m, finite
    codimension and meets the target; the target itself is not checked."""
    m, k = pair.m, pair.k
    if len(tail) != k:
        raise PreconditionError(f"partition has length {m - k + len(tail)}, expected m={m}")
    if tail[0] is INF:
        problem = "has infinite codimension; objective undefined"
    elif isinstance(target, PointTarget):
        q = target.q
        problem = None if _meets_point_fiber(tail, q) else f"misses the fiber over a rank-{q} point"
    else:
        j = target.j
        problem = f"is not centered in the rank <= {k - j} sublocus" if 0 in tail[:j] else None
    if problem:
        raise PreconditionError(f"orbit {(INF,) * (m - k) + tail} {problem}")


def _alpha_free_part(tail: tuple, m: int, target: Target) -> tuple:
    """(codim - Nash contact order, contact orders) of the orbit with this
    tail, read off the orbit formula bodies; checks nothing."""
    if isinstance(target, PointTarget):
        cod = _codim_point(tail, m, target.q)
    else:
        cod = _codim(tail, m)
    return cod - _nash_contact_order(tail, m), _contact_orders(tail)


def discrepancy_objective(
    pair: DeterminantalPair, lam: ExtendedPartition, target: Target
) -> Fraction:
    """codim - (Nash contact order) - sum_i alpha_i * w_i for one orbit.

    The codimension is taken relative to the target: through a rank-q point
    for a point target, plain orbit codimension for a locus target.  The
    orbit must lie in the jet space and satisfy the target's membership
    conditions with finite codimension.  Each condition is checked once here;
    the orbit formulas are then evaluated unchecked on the tail, in integers
    over the common denominator of the coefficients.
    """
    _validate_target(pair, target)
    _require_in_jet_space(lam, pair)
    tail = _tail(lam, pair)
    _require_member(pair, tail, target)
    denominator, scaled_alphas = _scaled_alphas(pair)
    base, orders = _alpha_free_part(tail, pair.m, target)
    return Fraction(denominator * base - sum(map(mul, scaled_alphas, orders)), denominator)


def iter_tails(pair: DeterminantalPair, target: Target, bound: int) -> Iterator[tuple]:
    """All nonincreasing finite tails with entries in [0, bound] meeting the
    target's membership constraints, in descending lexicographic order."""
    _validate_target(pair, target)
    _check_int("bound", bound, 1)
    k = pair.k
    if isinstance(target, PointTarget):
        zeros = (0,) * target.q
        for head in combinations_with_replacement(range(bound, 0, -1), k - target.q):
            yield head + zeros
    else:
        for tail in combinations_with_replacement(range(bound, -1, -1), k):
            if tail[target.j - 1] >= 1:
                yield tail


def _tail_count(pair: DeterminantalPair, target: Target, bound: int) -> int:
    """The number of tails `iter_tails` yields, counted as multisets: the
    free entries of a point target take values in 1..bound, and a locus
    target drops the tails whose entry j is 0 from all tails in 0..bound."""
    if isinstance(target, PointTarget):
        free = pair.k - target.q
        return comb(bound + free - 1, free)
    return comb(bound + pair.k, pair.k) - comb(bound + target.j - 1, target.j - 1)


def _tail_table(pair: DeterminantalPair, target: Target, bound: int) -> tuple:
    """The rows (tail, codim - Nash contact order, contact orders) of every
    tail of `iter_tails`, each checked for membership, in its order.

    They do not depend on the coefficients, so each box (m, k, target, bound)
    is tabulated once, in `_TAIL_TABLE_CACHE`.
    """
    key = (pair.m, pair.k, target, bound)
    table = _TAIL_TABLE_CACHE.get(key)
    if table is None:
        rows = []
        for tail in iter_tails(pair, target, bound):
            _require_member(pair, tail, target)
            rows.append((tail, *_alpha_free_part(tail, pair.m, target)))
        table = _TAIL_TABLE_CACHE[key] = tuple(rows)
    return table


def minimize_objective(
    pair: DeterminantalPair, target: Target, bound: int
) -> OracleResult:
    """Minimize the discrepancy objective over the bounded sorted domain.

    When some beta prefix sum is negative the infimum over the (unbounded)
    sorted domain is minus infinity; this is certified analytically and no
    enumeration is attempted.  Ties in the minimum report the
    lexicographically smallest argmin.
    """
    _validate_target(pair, target)
    _check_int("bound", bound, 1)
    count = pair.k - target.q if isinstance(target, PointTarget) else pair.k
    betas = beta_coefficients(pair, count)
    if any(s < 0 for s in betas.prefix_sums()):
        return OracleResult(
            minimum=MldValue.NEG_INFINITY,
            argmin=None,
            at_boundary=False,
            prefix_unbounded=True,
            betas=betas,
        )
    # The count grows with the bound and is at least the bound once some entry
    # is free, so counting at a clamped bound decides the same and stays cheap.
    if _tail_count(pair, target, min(bound, MAX_SEARCH_TAILS + 1)) > MAX_SEARCH_TAILS:
        raise PreconditionError(
            f"the search to L={bound} has more than {MAX_SEARCH_TAILS} tails; lower L"
        )
    # Values are compared scaled by the positive common denominator, which
    # keeps their order, so the search runs on integers.  Every orbit is the
    # jet-space head (INF,)*(m-k) followed by a tail, nonincreasing naturals
    # by construction, so only the tail is checked, once per box.
    table = _tail_table(pair, target, bound)
    if not table:
        raise PreconditionError("empty search domain")
    denominator, scaled_alphas = _scaled_alphas(pair)
    best, best_tail = min(
        (denominator * base - sum(map(mul, scaled_alphas, orders)), tail)
        for tail, base, orders in table
    )
    at_boundary = any(v == bound for v in best_tail[:count])
    return OracleResult(
        minimum=MldValue.finite(Fraction(best, denominator)),
        argmin=best_tail,
        at_boundary=at_boundary,
        prefix_unbounded=False,
        betas=betas,
    )


def compare_with_closed_form(
    pair: DeterminantalPair, target: Target, bound: int
) -> OracleComparison:
    """Run the bounded search and set the agreement flag against the closed form."""
    result = minimize_objective(pair, target, bound)
    if isinstance(target, PointTarget):
        closed = mld_at_rank(pair, target.q)
    else:
        closed = mld_along(pair, target.j)
    return OracleComparison(oracle=result, closed_form=closed, agree=result.minimum == closed)


def _random_invertible(m: int, rng: random.Random) -> list:
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if _int_det(mat) != 0:
            return mat


def _int_det(mat: list) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so every entry stays an integer."""
    rows, sign, previous = [list(row) for row in mat], 1, 1
    for i in range(len(rows) - 1):
        swap = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if swap is None:
            return 0
        if swap != i:
            rows[i], rows[swap], sign = rows[swap], rows[i], -sign
        top = rows[i]
        for row in rows[i + 1:]:
            row[i + 1:] = [(x * top[i] - row[i] * y) // previous
                           for x, y in zip(row[i + 1:], top[i + 1:])]
        previous = top[i]
    return sign * rows[-1][-1]


def _series_rows(exponents: tuple, m: int, truncation: int, seed: Optional[int]) -> list:
    """The nonzero entries of the series matrix, row by row, as pairs
    (column, terms) with terms the nonzero (exponent, coefficient) pairs in
    increasing exponent; exponents above the truncation contribute nothing."""
    if seed is None:
        return [[(i, ((e, 1),))] if e <= truncation else [] for i, e in enumerate(exponents)]
    rng = random.Random(seed)
    left = _random_invertible(m, rng)
    right = _random_invertible(m, rng)
    finite = [(c, e) for c, e in enumerate(exponents) if e <= truncation]
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            coeffs: dict = {}
            for c, e in finite:
                coeffs[e] = coeffs.get(e, 0) + left[a][c] * right[c][b]
            terms = tuple(sorted((e, x) for e, x in coeffs.items() if x))
            if terms:
                row.append((b, terms))
        rows.append(row)
    return rows


def _packed_minors(rows: list, m: int, size: int, truncation: int) -> tuple:
    """(bits, level): every nonzero size x size minor of the series matrix
    with these rows (as `_series_rows` gives them), mod t**(truncation+1).

    level[R][C] = (order, packed) for the minor on the rows R, a tuple, and
    the columns C, a bitmask.  A series sum_i a_i t**i is packed as the
    integer sum_i a_i 2**(bits*i) (Kronecker substitution), which makes the
    product of series the product of integers.  Each coefficient of a minor
    of size s is at most s! * A**s in absolute value, with A the largest sum
    of the absolute coefficients of an entry, and a field is two bits wider
    than that bound: one for the sign of a balanced digit and one to spare.
    So the balanced residue mod 2**(bits*(truncation+1)) of a minor is its
    truncated series exactly, and its lowest set bit lies in the field of its
    lowest nonzero coefficient.

    The minor (r, R | C + {c}) collects sign * a[r][c] * (R | C) over the
    rows r < min(R), so each minor is computed once from shared sub-minors.
    A product whose two orders sum past the truncation vanishes and is
    skipped.
    """
    largest = max((sum(abs(x) for _, x in terms) for row in rows for _, terms in row), default=0)
    bits = (factorial(size) * largest**size).bit_length() + 2
    width = bits * (truncation + 1)
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    entries = [
        [(c, terms[0][0], sum(x << bits * e for e, x in terms)) for c, terms in row]
        for row in rows
    ]
    # The empty minor is 1.
    level = {(): {0: (0, 1)}}
    for depth in range(size):
        grown = {}
        for below, minors in level.items():
            # keep only row sets that still leave room for size - depth - 1 rows above
            for r in range(size - depth - 1, below[0] if below else m):
                acc: dict = {}
                for c, low, entry in entries[r]:
                    bit = 1 << c
                    for cols, (order, packed) in minors.items():
                        if cols & bit or low + order > truncation:
                            continue
                        term = entry * packed
                        if (cols & (bit - 1)).bit_count() & 1:
                            term = -term
                        acc[cols | bit] = acc.get(cols | bit, 0) + term
                nonzero = {}
                for cols, packed in acc.items():
                    packed &= mask
                    if packed:
                        if packed >= half:
                            packed -= full
                        nonzero[cols] = (((packed & -packed).bit_length() - 1) // bits, packed)
                if nonzero:
                    grown[(r,) + below] = nonzero
        level = grown
    return bits, level


def series_minor_order(
    exponents, m: int, size: int, truncation: int, seed: Optional[int] = None
):
    """Minimum t-adic order over all size x size minors of diag(t**e_1, ..., t**e_m),
    computed mod t**(truncation+1).

    Exponents above the truncation play the role of infinite entries.  With a
    seed, the diagonal matrix is conjugated as G * diag * H by seeded random
    invertible integer matrices before evaluating; the orders are invariant
    under this.  Returns ABOVE_TRUNCATION when every minor vanishes to order
    beyond the truncation.

    Every minor is evaluated exactly, by row-by-row Laplace expansion on
    packed integers (see `_packed_minors`).  Needs m <= MAX_SERIES_SIZE and
    truncation <= MAX_TRUNCATION.
    """
    exponents = tuple(exponents)
    _check_int("m", m, 1)
    if m > MAX_SERIES_SIZE:
        raise PreconditionError(f"matrix size m={m} exceeds the supported {MAX_SERIES_SIZE}")
    _check_int("truncation", truncation)
    if truncation > MAX_TRUNCATION:
        raise PreconditionError(
            f"truncation {truncation} exceeds the supported {MAX_TRUNCATION}"
        )
    if len(exponents) != m:
        raise PreconditionError(f"need m={m} exponents, got {len(exponents)}")
    for e in exponents:
        _check_int("exponent", e)
    _check_int("size", size, 1, m)
    finite_total = sum(e for e in exponents if e <= truncation)
    if finite_total > truncation:
        raise PreconditionError(
            f"truncation {truncation} below the sum {finite_total} of finite exponents"
        )
    _, level = _packed_minors(_series_rows(exponents, m, truncation, seed), m, size, truncation)
    orders = [order for minors in level.values() for order, _ in minors.values()]
    return min(orders) if orders else ABOVE_TRUNCATION
