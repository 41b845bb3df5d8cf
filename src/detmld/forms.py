"""Top-degree forms on the rank <= k locus and the exhaustive Nash check.

Reduces top-forms of the ambient space, given as wedges of differentials of
matrix entries, to one polynomial coefficient F against the canonical
top-form of a chart, verifies chart transitions, and runs the exhaustive
Nash-ideal check at small sizes.  F is computed as its standard expansion
modulo the (k+1)-minor ideal; standard bideterminants form a basis, so that
expansion is unique and is itself F's certificate of membership in the
subalgebra of k x k minors.  The Nash check compares only expansions; a
chart minor's power delta_C**(m-k) is the one standard term (rows | cols)**(m-k).

On the chart where a fixed k x k minor D is invertible, the variables
sharing a row or column with D are coordinates, and the canonical generator
of the top differential forms is (up to sign) D**-(m-k) times the wedge of
their differentials in lexicographic order.  Any top-form on the ambient
space restricts to F times that generator; F is found by repeatedly
eliminating differentials dx_ij with both indices outside the chart, using
the vanishing of d(minor) for each (k+1) x (k+1) minor.  Each step trades
one such differential for one on the chart, so every wedge the elimination
meets is a top-form of its own; its numerator is memoized per wedge, per
chart and per elimination order, and shared by every top-form that reaches
it.  The elimination leaves N / D**B; the power of D is cleared on N's
standard coordinates modulo the (k+1)-minor ideal: with the chart rows and
columns relabelled first, D is the leading minor, and multiplying or
dividing by it adds or strips the top row (1..k | 1..k) of each standard
double tableau, so the division needs no solver of its own.  No fraction
fields appear anywhere.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Tuple

from .core import PreconditionError
from .polynomials import MinorIndex, MultiPoly, minor_poly
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


_D_MINOR_CACHE: Dict[tuple, Dict[IndexPair, MultiPoly]] = {}


def d_minor_terms(idx: MinorIndex, m: int) -> Dict[IndexPair, MultiPoly]:
    """Coefficients of the differential of a minor, keyed by (i, j).

    The coefficient of dx_ij is the complementary minor with the antidiagonal
    parity sign of (i, j) inside the submatrix.
    """
    key = (m, idx.rows, idx.cols)
    cached = _D_MINOR_CACHE.get(key)
    if cached is not None:
        return cached
    if idx.rows[-1] > m or idx.cols[-1] > m:
        raise PreconditionError(f"minor {idx} does not fit in a {m}x{m} matrix")
    out: Dict[IndexPair, MultiPoly] = {}
    for r, i in enumerate(idx.rows, start=1):
        for c, j in enumerate(idx.cols, start=1):
            if idx.size == 1:
                comp = MultiPoly.one(m)
            else:
                comp = minor_poly(
                    MinorIndex(
                        tuple(x for x in idx.rows if x != i),
                        tuple(x for x in idx.cols if x != j),
                    ),
                    m,
                )
            out[(i, j)] = comp if (r + c) % 2 == 0 else -comp
    _D_MINOR_CACHE[key] = out
    return out


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
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(rows) != k or len(cols) != k:
        raise PreconditionError(f"chart needs k={k} rows and columns, got {rows}, {cols}")
    if len(set(rows)) != k or len(set(cols)) != k:
        raise PreconditionError(f"repeated chart index in {rows} or {cols}")
    if not 1 <= k <= m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if rows[-1] > m or cols[-1] > m:
        raise PreconditionError(f"chart {rows} x {cols} does not fit in m={m}")
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
    numerator, bpow = _reduce_positions(chart_variable_set(rows, cols, m), ref, ref, m, k, "lex")
    expansion = _resolve_coefficient(numerator, bpow, ref, ref, m, k)
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


_ELIMINATION_CACHE: Dict[tuple, Dict[Wedge, Tuple[MultiPoly, bool]]] = {}


def _reduce_positions(
    positions: Wedge, rows: tuple, cols: tuple, m: int, k: int, order: str
) -> Tuple[MultiPoly, int]:
    """Eliminate all differentials with both indices outside the chart.

    Returns (N, B) with  wedge(positions) = N / delta**B * wedge(S_chart),
    where delta is the chart minor; N is a polynomial and B >= 0.

    A step trades the first (lex) or last (revlex) bad differential for one
    sharing a row or column with the chart, so every wedge it meets is another
    wedge of the same size with one bad differential fewer.  Its numerator
    N(w) is memoized per chart and order, together with whether any branch
    reached the chart set: B is the start wedge's bad count when one did, and
    0 when every branch died on a repeated differential.
    """
    if order not in ("lex", "revlex"):
        raise PreconditionError(f"unknown elimination order {order!r}")
    good_rows = set(rows)
    good_cols = set(cols)
    delta = minor_poly(MinorIndex(rows, cols), m)
    full_good = chart_variable_set(rows, cols, m)
    memo = _ELIMINATION_CACHE.setdefault((m, rows, cols, order), {})

    def numerator(wedge: Wedge) -> Tuple[MultiPoly, bool]:
        hit = memo.get(wedge)
        if hit is not None:
            return hit
        bad = [pq for pq in wedge if pq[0] not in good_rows and pq[1] not in good_cols]
        if not bad:
            if wedge != full_good:
                raise RuntimeError("terminal wedge differs from the chart variable set")
            memo[wedge] = result = (MultiPoly.one(m), True)
            return result
        i, j = bad[0] if order == "lex" else bad[-1]
        minor_idx = MinorIndex(tuple(sorted(rows + (i,))), tuple(sorted(cols + (j,))))
        dm = d_minor_terms(minor_idx, m)
        pivot = dm[(i, j)]
        if pivot == delta:
            pivot_sign = 1
        elif pivot == -delta:
            pivot_sign = -1
        else:
            raise RuntimeError("pivot coefficient is not the chart minor")
        # d(minor) = 0 on the locus gives dx_ij = -sum(comp dx_pq) / pivot.
        total = MultiPoly.zero(m)
        reached = False
        for (p, q), comp in dm.items():
            if (p, q) == (i, j):
                continue
            new_wedge, swap_sign = _replace_in_wedge(wedge, (i, j), (p, q))
            if new_wedge is None:
                continue
            sub, sub_reached = numerator(new_wedge)
            if not sub_reached:
                continue
            reached = True
            term = comp * sub
            total = total - term if pivot_sign * swap_sign > 0 else total + term
        memo[wedge] = result = (total, reached)
        return result

    start = tuple(sorted(positions))
    total, reached = numerator(start)
    if not reached:
        return MultiPoly.zero(m), 0
    return total, sum(1 for i, j in start if i not in good_rows and j not in good_cols)


def _chart_first(rows: tuple, cols: tuple, m: int) -> tuple:
    """Exponent positions read by the relabelling that puts the chart rows and
    columns first, each keeping its order: entry n of a relabelled exponent
    vector is entry perm[n] of the original.  It carries the chart minor to
    the leading minor [1..k | 1..k] with sign +1."""

    def order(chosen: tuple) -> tuple:
        return chosen + tuple(i for i in range(1, m + 1) if i not in chosen)

    return tuple((i - 1) * m + j - 1 for i in order(rows) for j in order(cols))


def _relabel(p: MultiPoly, perm: tuple) -> MultiPoly:
    out = MultiPoly(p.m)
    out.terms = {tuple(exp[i] for i in perm): coef for exp, coef in p.terms.items()}
    return out


def _resolve_coefficient(
    numerator: MultiPoly, bpow: int, rows: tuple, cols: tuple, m: int, k: int
) -> StandardExpansion:
    """Clear the collected denominator: the standard expansion, with rows
    <= k, of numerator * delta**(m - k - bpow) modulo the (k+1)-minor ideal.

    After relabelling, delta is the leading minor [1..k | 1..k], and times a
    standard bideterminant with rows <= k it only puts the row 1..k on top of
    both sides, which stays standard.  So the power of delta is applied, or
    divided out, on the numerator's standard coordinates: each term gains or
    loses that many top rows (1..k | 1..k), which keeps the terms in order.
    A term that lacks a row to strip means delta does not divide the
    numerator modulo the ideal.
    """
    # The reference chart is already first; only other charts are relabelled.
    identity = rows == cols == reference_chart_indices(k)
    if not identity:
        perm = _chart_first(rows, cols, m)
        numerator = _relabel(numerator, perm)
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
    expansion = StandardExpansion(tuple(terms))
    if identity:
        return expansion
    inverse = tuple(sorted(range(m * m), key=perm.__getitem__))
    return standard_coordinates(_relabel(expansion.to_poly(m), inverse), m, k_bound=k)


def reduce_top_form(
    positions, chart: ChartForm, elimination_order: str = "lex"
) -> ReductionResult:
    """Write the wedge of the given differentials (lexicographic order) as
    F * w on the chart, returning F and its minor-subalgebra certificate.

    F is reported as the canonical representative modulo the (k+1)-minor
    ideal, together with its standard expansion, which is unique: results
    from different elimination orders compare on their expansions, and the
    certificate is read off the same expansion.  A form that restricts to
    zero yields F = 0, not an error.
    """
    m, k = chart.m, chart.k
    positions = tuple(sorted(tuple(p) for p in positions))
    expected = k * (2 * m - k)
    if len(positions) != expected or len(set(positions)) != len(positions):
        raise PreconditionError(
            f"need {expected} distinct positions, got {len(positions)}"
        )
    for i, j in positions:
        if not (1 <= i <= m and 1 <= j <= m):
            raise PreconditionError(f"position ({i},{j}) outside the {m}x{m} matrix")
    numerator, bpow = _reduce_positions(
        positions, chart.rows, chart.cols, m, k, elimination_order
    )
    expansion = _resolve_coefficient(numerator, bpow, chart.rows, chart.cols, m, k)
    if chart.sign < 0:
        expansion = StandardExpansion(tuple((-coef, dt) for coef, dt in expansion))
    return ReductionResult(
        coefficient=expansion.to_poly(m),
        certificate=_rectangular_membership(expansion, k),
        denominator_power=bpow,
        expansion=expansion,
    )


def _swap_data(a: tuple, b: tuple):
    """For tuples differing in one element, return (removed, added)."""
    removed = sorted(set(a) - set(b))
    added = sorted(set(b) - set(a))
    if len(removed) == 1 and len(added) == 1:
        return removed[0], added[0]
    return None


def verify_chart_transition(rows1, cols1, rows2, cols2, m: int, k: int) -> bool:
    """Verify that two charts one swap apart induce the same canonical form.

    Structurally: for each transported index, wedging the appropriate
    (k+1)-minor differential with the common wedge leaves exactly the two
    predicted terms, whose coefficients are the two chart minors.  Globally:
    each chart's variable wedge reduces in the reference chart to plus or
    minus its own minor power.  Identical charts verify trivially.
    """
    rows1, cols1 = _validate_chart(rows1, cols1, m, k)
    rows2, cols2 = _validate_chart(rows2, cols2, m, k)
    if rows1 == rows2 and cols1 == cols2:
        return True
    if not _swap_identity(rows1, cols1, rows2, cols2, m, k):
        return False
    for rows, cols in ((rows1, cols1), (rows2, cols2)):
        try:
            _chart_sign(rows, cols, m, k)
        except RuntimeError:
            return False
    return True


def _swap_identity(rows1, cols1, rows2, cols2, m: int, k: int) -> bool:
    """The structural half of a transition check, for distinct valid charts."""
    row_swap = _swap_data(rows1, rows2)
    col_swap = _swap_data(cols1, cols2)
    if row_swap and cols1 == cols2 and col_swap is None:
        return _transition_identity(rows1, cols1, row_swap, m, k, transpose=False)
    if col_swap and rows1 == rows2 and row_swap is None:
        return _transition_identity(cols1, rows1, col_swap, m, k, transpose=True)
    raise PreconditionError(
        "charts must differ by exactly one row swap or one column swap"
    )


def _transition_identity(
    swapped: tuple, fixed: tuple, swap, m: int, k: int, transpose: bool
) -> bool:
    """The two-term elimination identity for one transported index.

    For a row swap i -> i2 (transpose=False), every column j outside the
    chart must satisfy: the common wedge (every position of the (k+1)-minor
    on rows (swapped + i2) and columns (fixed + j) but (i, j) and (i2, j))
    times the differential of that minor has exactly the terms dx_i,j and
    dx_i2,j, with coefficients the two chart minors up to sign.  Every other
    differential repeats one of the wedge, so the two coefficients are read
    off the differential directly.
    """
    i, i2 = swap
    others = [j for j in range(1, m + 1) if j not in fixed]
    minor_a = minor_poly(
        _oriented_minor(tuple(sorted(set(swapped) - {i} | {i2})), fixed, transpose), m
    )
    minor_b = minor_poly(_oriented_minor(swapped, fixed, transpose), m)
    for j in others:
        big = _oriented_minor(tuple(sorted(set(swapped) | {i2})), tuple(sorted(fixed + (j,))), transpose)
        dm = d_minor_terms(big, m)
        pair_1 = (j, i) if transpose else (i, j)
        pair_2 = (j, i2) if transpose else (i2, j)
        c1, c2 = dm[pair_1], dm[pair_2]
        if c1 != minor_a and c1 != -minor_a:
            return False
        if c2 != minor_b and c2 != -minor_b:
            return False
    return True


def _oriented_minor(rows: tuple, cols: tuple, transpose: bool) -> MinorIndex:
    return MinorIndex(cols, rows) if transpose else MinorIndex(rows, cols)


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
    transitions_ok: bool = False
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            self.all_member
            and self.order_independent
            and self.minors_realized
            and self.transitions_ok
        )

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
    wedge, reductions are elimination-order independent, and all single-swap
    chart transitions verify.  Guarded to m <= 4 (exhaustive: 11,440 subsets at (4, 1))."""
    if not 1 <= k <= m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if m > VERIFY_GUARD_M:
        raise PreconditionError(
            f"exhaustive verification is guarded to m <= {VERIFY_GUARD_M}, got m={m}"
        )
    started = time.perf_counter()
    chart = chart_form(reference_chart_indices(k), reference_chart_indices(k), m, k)
    positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    size = k * (2 * m - k)

    report = NashReport(m=m, k=k)
    by_subset: Dict[Wedge, StandardExpansion] = {}
    all_member = True
    order_ok = True
    for subset in combinations(positions, size):
        t0 = time.perf_counter()
        first = reduce_top_form(subset, chart, elimination_order="lex")
        # The reference chart's sign is +1: the revlex expansion needs no sign.
        numerator, bpow = _reduce_positions(subset, chart.rows, chart.cols, m, k, "revlex")
        second = _resolve_coefficient(numerator, bpow, chart.rows, chart.cols, m, k)
        seconds = time.perf_counter() - t0
        matches = first.expansion == second
        order_ok = order_ok and matches
        all_member = all_member and first.certificate.is_member
        by_subset[subset] = first.expansion
        witness = first.certificate.expansion
        report.subsets.append(
            {
                "positions": [list(p) for p in subset],
                "F": first.coefficient.to_json(),
                "member": first.certificate.is_member,
                "certificate": witness.to_json() if witness is not None else None,
                "order_independent": matches,
                "denominator_power": first.denominator_power,
                "seconds": seconds,
            }
        )

    realized_all = True
    index_range = range(1, m + 1)
    chart_indices = list(combinations(index_range, k))
    # Each chart's sign comes from the lex reduction of its own variable wedge
    # in the reference chart: the same reduction _chart_sign would repeat.
    signs: Dict[tuple, int] = {}
    for rows_sel in chart_indices:
        for cols_sel in chart_indices:
            wedge_key = chart_variable_set(rows_sel, cols_sel, m)
            sign = _sign_against_minor_power(by_subset[wedge_key], rows_sel, cols_sel, m, k)
            realized_all = realized_all and sign != 0
            signs[rows_sel, cols_sel] = sign
            report.charts.append(
                {"rows": list(rows_sel), "cols": list(cols_sel), "sign": sign, "realized": sign != 0}
            )

    transitions_ok = all(
        signs[rows_a, cols_a] and signs[rows_b, cols_b]
        and _swap_identity(rows_a, cols_a, rows_b, cols_b, m, k)
        for rows_a, cols_a, rows_b, cols_b in _single_swap_pairs(chart_indices)
    )

    report.all_member = all_member
    report.order_independent = order_ok
    report.minors_realized = realized_all
    report.transitions_ok = transitions_ok
    report.elapsed = time.perf_counter() - started
    return report


def _single_swap_pairs(chart_indices: list):
    for a_pos, rows_a in enumerate(chart_indices):
        for rows_b in chart_indices[a_pos + 1:]:
            if len(set(rows_a) ^ set(rows_b)) == 2:
                for cols in chart_indices:
                    yield rows_a, cols, rows_b, cols
    for cols_pos, cols_a in enumerate(chart_indices):
        for cols_b in chart_indices[cols_pos + 1:]:
            if len(set(cols_a) ^ set(cols_b)) == 2:
                for rows in chart_indices:
                    yield rows, cols_a, rows, cols_b
