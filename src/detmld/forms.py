"""Top-degree forms on the rank <= k locus and the exhaustive Nash check.

Reduces top-forms of the ambient space, given as wedges of differentials of
matrix entries, to one polynomial coefficient F against the canonical
top-form of a chart, checks chart transitions, and runs the exhaustive
Nash-ideal check at small sizes.  A transition check holds when both charts'
signs are realized; the gluing sign across two charts is checked in the
tests.  F is computed as its standard expansion modulo the (k+1)-minor
ideal; standard bideterminants form a basis, so that expansion is unique
and is itself F's certificate of membership in the subalgebra of k x k
minors.  A chart minor's power delta_C**(m-k) is the one standard term
(rows | cols)**(m-k).

On the chart where a fixed k x k minor D is invertible, the variables
sharing a row or column with D are coordinates, and the canonical generator
of the top differential forms is (up to sign) D**-(m-k) times the wedge of
their differentials in lexicographic order.  Any top-form on the ambient
space restricts to F times that generator; F is found by repeatedly
eliminating differentials dx_ij with both indices outside the chart, using
the vanishing of d(minor) for each (k+1) x (k+1) minor (R | C).  Each
coefficient there is a cofactor (R - p | C - q) with the parity sign of
(p, q), read straight off the index sets; the pivot's is D.  Each chart
tabulates its signed cofactors once, per pivot, for both elimination orders.
Each step trades one such differential for one on the chart, so every wedge
the elimination meets is a top-form of its own; its numerator, one dict of
`int` coefficients, is memoized per wedge, per chart and per elimination
order, and shared by every top-form that reaches it.  The elimination leaves
N / D**B, the same (N, B) in both orders, as every complete path is a
bijection from the bad positions onto the missing chart positions; the Nash
check compares the two, with a memo per order, since a shared memo would
make that vacuous.  The canonical generator is one global form, so F is
resolved on the reference chart, whatever the chart asked for: there D is
the leading minor (1..k | 1..k), and its power is cleared on N's standard
coordinates modulo the (k+1)-minor ideal, where multiplying or dividing by
D adds or strips the top row (1..k | 1..k) of each standard double
tableau, so the division needs no solver of its own.  Another chart's own
elimination gives only its B.  No fraction fields appear anywhere, and the
first `Fraction` is a standard coordinate.  `verify_nash` runs the steps of
`reduce_top_form` itself, once each per subset.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Dict, Tuple

from .core import PreconditionError, _as_tuple, _check_int, _check_type
from .polynomials import Exponents, MultiPoly, _minor_poly, _multiply_into
from .tableaux import (
    DoubleTableau,
    Membership,
    StandardExpansion,
    Tableau,
    _rectangular_membership,
    _trusted_tableau,
    standard_coordinates,
)

IndexPair = Tuple[int, int]
Wedge = Tuple[IndexPair, ...]

VERIFY_GUARD_M = 4


def _cofactors(rows: tuple, cols: tuple) -> Dict[IndexPair, Tuple[int, tuple, tuple]]:
    """The differential of the minor (rows | cols), read off its index sets.

    The coefficient of dx_ij is the complementary minor (rows - i | cols - j)
    with the parity sign of (i, j) inside the submatrix; it is returned as
    (sign, rows - i, cols - j), keyed by (i, j).
    """
    return {
        (i, j): ((-1) ** (r + c), rows[:r] + rows[r + 1:], cols[:c] + cols[c + 1:])
        for r, i in enumerate(rows)
        for c, j in enumerate(cols)
    }


def chart_variable_set(rows, cols, m: int) -> Wedge:
    """Positions sharing a row or column with the chart minor, sorted lex."""
    rows = set(rows)
    cols = set(cols)
    return tuple(
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if i in rows or j in cols
    )


def reference_chart_indices(k: int) -> tuple:
    return tuple(range(1, k + 1))


@dataclass(frozen=True)
class ChartForm:
    """Chart data of the canonical top-form: y the minor inverted, the
    coordinate variable set, the exponent m-k, and the sign relative to the
    reference chart (rows = cols = 1..k), where the sign is +1."""

    rows: tuple
    cols: tuple
    m: int
    k: int
    sign: int

    @property
    def exponent(self) -> int:
        return self.m - self.k

    @property
    def variables(self) -> Wedge:
        return chart_variable_set(self.rows, self.cols, self.m)


def _validate_chart(rows, cols, m: int, k: int) -> tuple:
    _check_int("m", m, 1)
    _check_int("k", k, 1, m)
    rows, cols = _as_tuple("chart rows", rows), _as_tuple("chart columns", cols)
    if not all(type(v) is int and 1 <= v <= m for v in rows + cols):
        raise PreconditionError(f"chart {rows} x {cols} does not fit in m={m}")
    rows, cols = tuple(sorted(rows)), tuple(sorted(cols))
    if len(rows) != k or len(cols) != k:
        raise PreconditionError(f"chart needs k={k} rows and columns, got {rows}, {cols}")
    if len(set(rows)) != k or len(set(cols)) != k:
        raise PreconditionError(f"repeated chart index in {rows} or {cols}")
    return rows, cols


def chart_form(rows, cols, m: int, k: int) -> ChartForm:
    """Chart form with its sign, fixed to +1 on the reference chart and
    propagated to the others by reducing their own variable wedge there."""
    rows, cols = _validate_chart(rows, cols, m, k)
    ref = reference_chart_indices(k)
    if rows == ref and cols == ref:
        return ChartForm(rows, cols, m, k, 1)
    sign = _chart_sign(rows, cols, m, k)
    return ChartForm(rows, cols, m, k, sign)


def _chart_sign(rows, cols, m: int, k: int) -> int:
    """Sign s with wedge(S_chart) = s * (chart minor)**(m-k) * w, computed by
    reduction in the reference chart."""
    ref = reference_chart_indices(k)
    numerator, bpow = _reduce_positions(chart_variable_set(rows, cols, m), ref, ref, m, "lex")
    expansion = _resolve_coefficient(numerator, bpow, m, k)
    sign = _sign_against_minor_power(expansion, rows, cols, m, k)
    if not sign:
        raise RuntimeError(
            f"chart {rows} x {cols}: reduced coefficient is not +-(minor)^{m - k}; "
            "the canonical form does not glue"
        )
    return sign


def _sign_against_minor_power(expansion: StandardExpansion, rows, cols, m: int, k: int) -> int:
    """1 or -1 when the expansion is +-(chart minor)**(m-k), the one standard
    term with m-k rows (rows | cols), empty at m = k; else 0."""
    power = DoubleTableau(Tableau((rows,) * (m - k)), Tableau((cols,) * (m - k)))
    for sign in (1, -1):
        if expansion.terms == ((sign, power),):
            return sign
    return 0


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing a top-form: the coefficient F with form = F * w on
    the chart and the minor-subalgebra certificate for F, both read off F's
    signed standard expansion, which is unique and is what results compare."""

    coefficient: MultiPoly
    certificate: Membership
    denominator_power: int
    expansion: StandardExpansion


def _replace_in_wedge(wedge: Wedge, old: IndexPair, new: IndexPair):
    """Substitute one differential, with the sign of resorting; None on repeat."""
    pos_old = wedge.index(old)
    rest = wedge[:pos_old] + wedge[pos_old + 1:]
    if new in rest:
        return None, 0
    pos_new = bisect.bisect_left(rest, new)
    new_wedge = rest[:pos_new] + (new,) + rest[pos_new:]
    return new_wedge, (-1) ** (pos_old + pos_new)


_ELIMINATION_CACHE: Dict[tuple, Dict[Wedge, Tuple[Dict[Exponents, int], bool]]] = {}
_CHART_CACHE: Dict[tuple, tuple] = {}


def _chart_steps(m: int, rows: tuple, cols: tuple) -> tuple:
    """A chart's good rows and columns, variable set and pivot table, built
    once.  d(rows + i | cols + j) = 0 gives dx_ij = -sum(cofactor dx_pq) / delta
    for each bad pivot (i, j), so steps[i, j] lists ((p, q), the cofactor's
    (exponents, int) terms times -(pivot sign) * (its own sign))."""
    chart = _CHART_CACHE.get((m, rows, cols))
    if chart is None:
        steps = {}
        for i in set(range(1, m + 1)).difference(rows):
            for j in set(range(1, m + 1)).difference(cols):
                cofactors = _cofactors(tuple(sorted(rows + (i,))), tuple(sorted(cols + (j,))))
                pivot_sign = cofactors.pop((i, j))[0]
                steps[i, j] = [
                    (pq, [(e, -pivot_sign * sign * c) for e, c in _minor_poly(m, *sub)])
                    for pq, (sign, *sub) in cofactors.items()
                ]
        chart = (set(rows), set(cols), chart_variable_set(rows, cols, m), steps)
        _CHART_CACHE[m, rows, cols] = chart
    return chart


def _reduce_positions(
    positions: Wedge, rows: tuple, cols: tuple, m: int, order: str
) -> Tuple[MultiPoly, int]:
    """Eliminate all differentials with both indices outside the chart.

    Returns (N, B) with  wedge(positions) = N / delta**B * wedge(S_chart),
    where delta is the chart minor; N is a polynomial with `int`
    coefficients and B >= 0.

    A step trades the first (lex) or last (revlex) bad differential for one
    sharing a row or column with the chart, so every wedge it meets is another
    wedge of the same size with one bad differential fewer.  Its numerator
    N(w) is memoized per chart and order as an {exponents: int} dict,
    together with whether any branch reached the chart set: B is the start
    wedge's bad count when one did, and 0 when every branch died on a
    repeated differential.  N(w) is the signed sum of cofactor * N(w') over
    the branches (see `_chart_steps`), summed into one dict by `_multiply_into`.
    Both orders return the same (N, B): a complete path is a bijection from
    the bad positions onto the missing chart positions whose swap signs
    multiply to its sign; with one memo for both, comparing them is vacuous.
    """
    if order not in ("lex", "revlex"):
        raise PreconditionError(f"unknown elimination order {order!r}")
    good_rows, good_cols, full_good, steps = _chart_steps(m, rows, cols)
    memo = _ELIMINATION_CACHE.setdefault((m, rows, cols, order), {})

    def numerator(wedge: Wedge) -> Tuple[Dict[Exponents, int], bool]:
        hit = memo.get(wedge)
        if hit is not None:
            return hit
        bad = [pq for pq in wedge if pq[0] not in good_rows and pq[1] not in good_cols]
        if not bad:
            if wedge != full_good:
                raise RuntimeError("terminal wedge differs from the chart variable set")
            memo[wedge] = result = ({(0,) * (m * m): 1}, True)
            return result
        pivot = bad[0] if order == "lex" else bad[-1]
        acc: Dict[Exponents, int] = {}
        reached = False
        for pq, terms in steps[pivot]:
            new_wedge, swap_sign = _replace_in_wedge(wedge, pivot, pq)
            if new_wedge is None:
                continue
            sub, sub_reached = numerator(new_wedge)
            if not sub_reached:
                continue
            reached = True
            _multiply_into(acc, terms, sub.items(), swap_sign)
        memo[wedge] = result = ({exp: c for exp, c in acc.items() if c}, reached)
        return result

    start = tuple(sorted(positions))
    terms, reached = numerator(start)
    del numerator  # the closure refers to itself: break the cycle
    total = MultiPoly(m)
    total.terms = terms  # empty, with B = 0, when no branch reached the chart set
    bad = sum(1 for i, j in start if i not in good_rows and j not in good_cols)
    return total, bad if reached else 0


def _resolve_coefficient(numerator: MultiPoly, bpow: int, m: int, k: int) -> StandardExpansion:
    """Clear the collected denominator on the reference chart: the standard
    expansion, with rows <= k, of numerator * delta**(m - k - bpow) modulo
    the (k+1)-minor ideal, where delta is the leading minor [1..k | 1..k].

    Times a standard bideterminant with rows <= k, delta only puts the row
    1..k on top of both sides, which stays standard.  So the power of delta
    is applied, or divided out, on the numerator's standard coordinates:
    each term gains or loses that many top rows (1..k | 1..k), which keeps
    the terms in order.  A term that lacks a row to strip means delta does
    not divide the numerator modulo the ideal.
    """
    spare = (m - k) - bpow
    lead = (tuple(range(1, k + 1)),) * abs(spare)
    terms = []
    for coef, dt in standard_coordinates(numerator, m, k_bound=k):
        left, right = dt.left.rows, dt.right.rows
        if spare >= 0:
            left, right = lead + left, lead + right
        elif left[: -spare] == lead and right[: -spare] == lead:
            left, right = left[-spare:], right[-spare:]
        else:
            raise RuntimeError("division by the chart minor failed; reduction is unsound")
        terms.append((coef, DoubleTableau(_trusted_tableau(left), _trusted_tableau(right))))
    return StandardExpansion(tuple(terms))


def reduce_top_form(
    positions, chart: ChartForm, elimination_order: str = "lex"
) -> ReductionResult:
    """Write the wedge of the given differentials (lexicographic order) as
    F * w on the chart, returning F and its minor-subalgebra certificate.

    The canonical generator w is one global form, so F is the same on every
    chart: it is resolved from the reference chart's (N, B), and another
    chart only reads its own elimination's B as `denominator_power`.  F is
    reported as the canonical representative modulo the (k+1)-minor ideal,
    together with its standard expansion, which is unique; the certificate
    is read off the same expansion.  A form that restricts to zero yields
    F = 0, not an error.
    """
    _check_type("chart", chart, ChartForm)
    m, k = chart.m, chart.k
    positions = _as_tuple("positions", positions)
    positions = [tuple(p) if isinstance(p, (tuple, list)) else p for p in positions]
    for p in positions:
        i, j = p if type(p) is tuple and len(p) == 2 else (None, None)
        if not (type(i) is int and type(j) is int and 1 <= i <= m and 1 <= j <= m):
            raise PreconditionError(f"position {p!r} is not a pair of indices in 1..{m}")
    positions = tuple(sorted(positions))
    expected = k * (2 * m - k)
    if len(positions) != expected or len(set(positions)) != len(positions):
        raise PreconditionError(f"need {expected} distinct positions, got {len(positions)}")
    ref = reference_chart_indices(k)
    numerator, bpow = _reduce_positions(positions, ref, ref, m, elimination_order)
    expansion = _resolve_coefficient(numerator, bpow, m, k)
    if chart.rows != ref or chart.cols != ref:
        bpow = _reduce_positions(positions, chart.rows, chart.cols, m, elimination_order)[1]
    return ReductionResult(
        coefficient=expansion.to_poly(m),
        certificate=_rectangular_membership(expansion, k),
        denominator_power=bpow,
        expansion=expansion,
    )


def verify_chart_transition(rows1, cols1, rows2, cols2, m: int, k: int) -> bool:
    """Check the transition between two charts one row swap or one column
    swap apart: it holds when each chart's variable wedge reduces in the
    reference chart to plus or minus its own minor power, so that both chart
    signs are realized.  The gluing sign across the overlap is not checked
    here (tests/test_forms.py checks it on every single-swap pair at m <= 4).
    Identical charts verify trivially.
    """
    rows1, cols1 = _validate_chart(rows1, cols1, m, k)
    rows2, cols2 = _validate_chart(rows2, cols2, m, k)
    if rows1 == rows2 and cols1 == cols2:
        return True
    unions = sorted((len(set(rows1) | set(rows2)), len(set(cols1) | set(cols2))))
    if unions != [k, k + 1]:
        raise PreconditionError("charts must differ by exactly one row swap or one column swap")
    for rows, cols in ((rows1, cols1), (rows2, cols2)):
        try:
            _chart_sign(rows, cols, m, k)
        except RuntimeError:
            return False
    return True


@dataclass
class NashReport:
    """Exhaustive reduction report for one (m, k)."""

    m: int
    k: int
    subsets: list = field(default_factory=list)
    charts: list = field(default_factory=list)
    all_member: bool = False
    order_independent: bool = False
    minors_realized: bool = False
    elapsed: float = 0.0

    @property
    def transitions_ok(self) -> bool:
        """What `verify_chart_transition` reads on every pair of charts one
        swap apart: every chart lies in such a pair when k < m, and k = m has
        one chart, so it is `minors_realized`."""
        return self.minors_realized

    @property
    def passed(self) -> bool:
        return self.all_member and self.order_independent and self.minors_realized

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "passed": self.passed,
            "all_member": self.all_member,
            "order_independent": self.order_independent,
            "minors_realized": self.minors_realized,
            "transitions_ok": self.transitions_ok,
            "elapsed_seconds": self.elapsed,
            "subsets": self.subsets,
            "charts": self.charts,
        }


def verify_nash(m: int, k: int) -> NashReport:
    """Reduce every top-form of the right degree and certify the Nash-ideal
    containment: each coefficient F lies in the subalgebra of k x k minors
    in degree m-k, every chart minor power is realized by its own chart
    wedge, which is what every chart transition reads (see
    `NashReport.transitions_ok`), and both elimination orders return the
    same (N, B).  Guarded to m <= 4 (exhaustive: 11,440 subsets at (4, 1)).

    Each subset is reduced in one pass by the steps `reduce_top_form` runs on
    the reference chart, called once each: the lex and revlex eliminations,
    `_resolve_coefficient` on the lex (N, B) and `_rectangular_membership`.
    `combinations` yields only subsets that `reduce_top_form`'s checks pass,
    and its `denominator_power` there is the lex B."""
    _check_int("m", m, 1)
    _check_int("k", k, 1, m)
    if m > VERIFY_GUARD_M:
        raise PreconditionError(
            f"exhaustive verification is guarded to m <= {VERIFY_GUARD_M}, got m={m}"
        )
    started = time.perf_counter()
    ref = reference_chart_indices(k)
    positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    size = k * (2 * m - k)

    report = NashReport(m=m, k=k)
    by_subset: Dict[Wedge, StandardExpansion] = {}
    for subset in combinations(positions, size):
        t0 = time.perf_counter()
        lex = _reduce_positions(subset, ref, ref, m, "lex")
        revlex = _reduce_positions(subset, ref, ref, m, "revlex")
        expansion = _resolve_coefficient(*lex, m, k)
        certificate = _rectangular_membership(expansion, k)
        coefficient = expansion.to_poly(m)
        seconds = time.perf_counter() - t0
        by_subset[subset] = expansion
        witness = certificate.expansion
        report.subsets.append(
            {
                "positions": list(map(list, subset)),
                "F": coefficient.to_json(),
                "member": certificate.is_member,
                "certificate": witness.to_json() if witness is not None else None,
                "order_independent": lex == revlex,
                "denominator_power": lex[1],
                "seconds": seconds,
            }
        )

    # Each chart's sign comes from the lex reduction of its own variable wedge
    # in the reference chart: the same reduction _chart_sign would repeat.
    for rows_sel, cols_sel in product(combinations(range(1, m + 1), k), repeat=2):
        wedge_key = chart_variable_set(rows_sel, cols_sel, m)
        sign = _sign_against_minor_power(by_subset[wedge_key], rows_sel, cols_sel, m, k)
        report.charts.append(
            {"rows": list(rows_sel), "cols": list(cols_sel), "sign": sign, "realized": sign != 0}
        )

    report.all_member = all(entry["member"] for entry in report.subsets)
    report.order_independent = all(entry["order_independent"] for entry in report.subsets)
    # A transition check reads its two charts' signs (see verify_chart_transition).
    report.minors_realized = all(chart["realized"] for chart in report.charts)
    report.elapsed = time.perf_counter() - started
    return report

