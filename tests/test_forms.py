import bisect
import functools
import gc
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from detmld import clear_caches, forms, tableaux
from detmld.core import PreconditionError
from detmld.forms import (
    chart_form,
    chart_variable_set,
    reduce_top_form,
    reference_chart_indices,
    verify_chart_transition,
    verify_nash,
)
from detmld.polynomials import MinorIndex, MultiPoly, minor_poly
from detmld.tableaux import StandardExpansion, standard_coordinates, subalgebra_membership

from test_package import module_caches


def x(m, i, j):
    return MultiPoly.variable(m, i, j)


def partial_derivative(p, m, i, j):
    """Independent oracle: formal partial derivative on exponent vectors."""
    idx = (i - 1) * m + (j - 1)
    out = {}
    for exp, coef in p.terms.items():
        e = exp[idx]
        if e == 0:
            continue
        new = list(exp)
        new[idx] = e - 1
        out[tuple(new)] = coef * e
    return MultiPoly(m, out)


def _untimed_json(report):
    """The report JSON with sorted keys and without its timing fields."""
    data = report.to_json()
    data.pop("elapsed_seconds")
    data["subsets"] = [
        {key: value for key, value in entry.items() if key != "seconds"}
        for entry in data["subsets"]
    ]
    return json.dumps(data, sort_keys=True)


# The module-level caches of the modules verify_nash runs on (forms,
# tableaux, polynomials), which clear_caches() empties (test_package checks
# that); the orbit search's tables in oracle are never filled here.
_CACHES = tuple(
    cache
    for name, cache in module_caches().items()
    if name.split(".")[0] in ("forms", "tableaux", "polynomials")
)


def _replace_in_wedge(wedge, old, new):
    """Substitute one differential in a sorted tuple of positions, with the
    sign of resorting; (None, 0) on a repeat."""
    pos_old = wedge.index(old)
    rest = wedge[:pos_old] + wedge[pos_old + 1:]
    if new in rest:
        return None, 0
    pos_new = bisect.bisect_left(rest, new)
    new_wedge = rest[:pos_new] + (new,) + rest[pos_new:]
    return new_wedge, (-1) ** (pos_old + pos_new)


def tree_walk_reduce(positions, rows, cols, m, order, visited=None):
    """Reference elimination: the path-sum walk over the elimination tree.

    Each path from the start wedge to the chart set carries the product of
    its coefficients and its depth; N sums the paths over delta to the
    largest depth B.  Every wedge is walked afresh, with no sharing.  Each
    wedge the walk meets is added to the set `visited`, when one is given.
    """
    good_rows, good_cols = set(rows), set(cols)
    delta = minor_poly(MinorIndex(rows, cols), m)
    full_good = chart_variable_set(rows, cols, m)
    stack = [(MultiPoly.one(m), tuple(sorted(positions)), 0)]
    collected = []
    while stack:
        coeff, wedge, bpow = stack.pop()
        if visited is not None:
            visited.add(wedge)
        bad = [pq for pq in wedge if pq[0] not in good_rows and pq[1] not in good_cols]
        if not bad:
            assert wedge == full_good
            collected.append((coeff, bpow))
            continue
        i, j = bad[0] if order == "lex" else bad[-1]
        # The differential of the (k+1)-minor, as its formal gradient.
        big_rows, big_cols = sorted(rows + (i,)), sorted(cols + (j,))
        big = minor_poly(MinorIndex(big_rows, big_cols), m)
        pivot = partial_derivative(big, m, i, j)
        pivot_sign = 1 if pivot == delta else -1
        assert pivot == pivot_sign * delta
        for p in big_rows:
            for q in big_cols:
                if (p, q) == (i, j):
                    continue
                new_wedge, swap_sign = _replace_in_wedge(wedge, (i, j), (p, q))
                if new_wedge is not None:
                    comp = partial_derivative(big, m, p, q)
                    stack.append((-pivot_sign * swap_sign * (coeff * comp), new_wedge, bpow + 1))
    if not collected:
        return MultiPoly.zero(m), 0
    top = max(b for _, b in collected)
    total = MultiPoly.zero(m)
    for coeff, b in collected:
        total = total + coeff * delta ** (top - b)
    return total, top


def cofactor_poly(m, sign, rows, cols):
    """sign * the minor (rows | cols), which is 1 when both are empty."""
    poly = minor_poly(MinorIndex(rows, cols), m) if rows else MultiPoly.one(m)
    return poly if sign > 0 else -poly


_RESIDUAL_CASES = ((2, 1), (3, 1), (3, 2), (4, 3))


def _residual_failures(m, k):
    """Pairs (chart, subset) at (m, k) whose own elimination (N_C, B_C) does
    not glue with F: sign * N_C * delta_C**spare differs from F modulo the
    (k+1)-minor ideal, with spare = m - k - B_C and a negative power of
    delta_C moved to F's side.  Every chart and every subset is checked."""
    positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    failures = 0
    for rows, cols in product(combinations(range(1, m + 1), k), repeat=2):
        chart = chart_form(rows, cols, m, k)
        delta = minor_poly(MinorIndex(rows, cols), m)
        for subset in combinations(positions, k * (2 * m - k)):
            numerator, bpow = forms._reduce_positions(subset, rows, cols, m, "lex")
            spare = m - k - bpow
            coeff = reduce_top_form(subset, chart).coefficient
            lhs = chart.sign * numerator * delta ** max(spare, 0)
            rhs = coeff * delta ** max(-spare, 0)
            if standard_coordinates(lhs, m, k_bound=k) != standard_coordinates(rhs, m, k_bound=k):
                failures += 1
    return failures


class TestCofactors:
    def test_two_by_two(self):
        assert forms._cofactors((1, 2), (1, 2)) == {
            (1, 1): (1, (2,), (2,)),
            (1, 2): (-1, (2,), (1,)),
            (2, 1): (-1, (1,), (2,)),
            (2, 2): (1, (1,), (1,)),
        }

    def test_single_entry(self):
        assert forms._cofactors((1,), (3,)) == {(1, 3): (1, (), ())}

    def test_full_three_by_three_center(self):
        assert forms._cofactors((1, 2, 3), (1, 2, 3))[(2, 2)] == (1, (1, 3), (1, 3))

    def test_matches_partial_derivatives(self):
        # sign * (rows - i | cols - j) is the formal partial derivative at every
        # (i, j) of the minor, and every other partial vanishes; all minors, m <= 3
        for m in (1, 2, 3):
            for size in range(1, m + 1):
                for rows in combinations(range(1, m + 1), size):
                    for cols in combinations(range(1, m + 1), size):
                        poly = minor_poly(MinorIndex(rows, cols), m)
                        cofactors = forms._cofactors(rows, cols)
                        assert set(cofactors) == {(i, j) for i in rows for j in cols}
                        for i in range(1, m + 1):
                            for j in range(1, m + 1):
                                expected = partial_derivative(poly, m, i, j)
                                if (i, j) in cofactors:
                                    assert cofactor_poly(m, *cofactors[i, j]) == expected
                                else:
                                    assert expected == MultiPoly.zero(m)


class TestChartForm:
    def test_reference_chart(self):
        chart = chart_form((1,), (1,), 2, 1)
        assert chart.variables == ((1, 1), (1, 2), (2, 1))
        assert chart.exponent == 1
        assert chart.sign == 1

    def test_row_swapped_chart(self):
        chart = chart_form((2,), (1,), 2, 1)
        assert set(chart.variables) == {(1, 1), (2, 1), (2, 2)}
        # frozen from the reduction in the reference chart:
        # dx11 ^ dx21 ^ dx22 = -x21 * w
        assert chart.sign == -1

    def test_smooth_case(self):
        chart = chart_form((1, 2), (1, 2), 2, 2)
        assert chart.exponent == 0
        assert len(chart.variables) == 4
        assert chart.sign == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            chart_form((1, 2), (1,), 3, 2)

    @pytest.mark.parametrize(
        "rows, cols", [((0,), (1,)), ((-1,), (1,)), ((1,), (0,)), ((3,), (1,)), ((1,), (3,))]
    )
    def test_index_outside_the_matrix_rejected(self, rows, cols):
        # an index below 1 used to reach the elimination's soundness alarm
        with pytest.raises(PreconditionError, match="does not fit"):
            chart_form(rows, cols, 2, 1)
        with pytest.raises(PreconditionError, match="does not fit"):
            verify_chart_transition(rows, cols, (1,), (1,), 2, 1)


class TestReduceTopForm:
    def test_chart_set_yields_minor_power(self):
        chart = chart_form((1,), (1,), 2, 1)
        result = reduce_top_form([(1, 1), (1, 2), (2, 1)], chart)
        assert result.coefficient == x(2, 1, 1)
        assert result.certificate.is_member

    def test_one_bad_entry(self):
        # independent substitution oracle: x22 = x12 x21 / x11 on the chart
        # gives dx11 ^ dx12 ^ dx22 = (x12/x11) dx11 ^ dx12 ^ dx21, so F = x12
        chart = chart_form((1,), (1,), 2, 1)
        result = reduce_top_form([(1, 1), (1, 2), (2, 2)], chart)
        assert result.coefficient == x(2, 1, 2)

    def test_symmetric_case(self):
        # same substitution oracle: F = -x22 (canonically, -x12 x21 / x11)
        chart = chart_form((1,), (1,), 2, 1)
        result = reduce_top_form([(1, 2), (2, 1), (2, 2)], chart)
        assert result.coefficient == -x(2, 2, 2)

    def test_wrong_cardinality_rejected(self):
        chart = chart_form((1,), (1,), 2, 1)
        with pytest.raises(PreconditionError):
            reduce_top_form([(1, 1), (1, 2)], chart)

    def test_order_independence_with_many_bad_entries(self):
        chart = chart_form((1,), (1,), 3, 1)
        subset = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        lex = reduce_top_form(subset, chart, elimination_order="lex")
        rev = reduce_top_form(subset, chart, elimination_order="revlex")
        assert lex.coefficient == rev.coefficient
        assert lex.certificate.is_member

    def test_division_path_produces_member(self):
        # four bad entries force clearing more than (m - k) powers of the minor
        chart = chart_form((1,), (1,), 3, 1)
        subset = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]
        result = reduce_top_form(subset, chart, elimination_order="lex")
        assert result.denominator_power > chart.exponent
        assert result.certificate.is_member
        degree = result.coefficient.homogeneous_degree()
        assert degree in (None, 2)  # zero polynomial reports no degree

    def test_indivisible_numerator_is_rejected(self):
        # x12 / delta**2 with m - k = 1 would need delta to divide x12
        with pytest.raises(RuntimeError):
            forms._resolve_coefficient(x(2, 1, 2), 2, 2, 1)

    def test_division_residual_in_every_chart(self):
        # F, resolved on the reference chart, glues with each chart's own
        # elimination: sign * N_C / delta_C**B_C = F / delta_C**(m - k)
        for m, k in _RESIDUAL_CASES:
            assert _residual_failures(m, k) == 0, (m, k)

    def test_negated_chart_numerator_fails_the_residual(self, monkeypatch):
        reduce_positions = forms._reduce_positions

        def negated(positions, rows, cols, m, order):
            numerator, bpow = reduce_positions(positions, rows, cols, m, order)
            if rows == cols == reference_chart_indices(len(rows)):
                return numerator, bpow
            return -numerator, bpow

        monkeypatch.setattr(forms, "_reduce_positions", negated)
        for m, k in _RESIDUAL_CASES:
            assert _residual_failures(m, k) > 0, (m, k)

    def test_reference_chart_is_eliminated_once(self, monkeypatch):
        # F always comes from the reference chart; another chart adds one
        # elimination of its own, for its B.
        calls = []
        reduce_positions = forms._reduce_positions

        def counted(positions, rows, cols, m, order):
            calls.append((rows, cols))
            return reduce_positions(positions, rows, cols, m, order)

        monkeypatch.setattr(forms, "_reduce_positions", counted)
        subset = [(1, 1), (1, 2), (2, 2)]
        for chart, expected in (
            (chart_form((1,), (1,), 2, 1), [((1,), (1,))]),
            (chart_form((2,), (2,), 2, 1), [((1,), (1,)), ((2,), (2,))]),
        ):
            calls.clear()
            reduce_top_form(subset, chart)
            assert calls == expected

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (3, 2)])
    def test_certificate_matches_public_membership(self, m, k):
        # The certificate read off F's own expansion equals the one the
        # public test builds by straightening F again, offending term included.
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        indices = list(combinations(range(1, m + 1), k))
        for rows in indices:
            for cols in indices:
                chart = chart_form(rows, cols, m, k)
                for subset in combinations(positions, k * (2 * m - k)):
                    for order in ("lex", "revlex"):
                        result = reduce_top_form(subset, chart, elimination_order=order)
                        assert result.certificate == subalgebra_membership(
                            result.coefficient, m, k
                        ), (rows, cols, subset, order)

    @pytest.mark.parametrize("m, k, rows, cols", [(3, 1, (3,), (2,)), (3, 2, (1, 3), (2, 3))])
    def test_public_coefficients_are_fractions(self, m, k, rows, cols):
        # The numerators are integer polynomials; every coefficient handed out
        # is a Fraction all the same, on the reference chart and on another.
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        ref = reference_chart_indices(k)
        for chart in (chart_form(ref, ref, m, k), chart_form(rows, cols, m, k)):
            for subset in combinations(positions, k * (2 * m - k)):
                result = reduce_top_form(subset, chart)
                coefficients = list(result.coefficient.terms.values())
                for expansion in (result.expansion, result.certificate.expansion):
                    coefficients.extend(coef for coef, _ in expansion)
                assert all(type(c) is Fraction for c in coefficients), (chart, subset)

    def test_nonreference_chart_reduces_its_own_set(self):
        chart = chart_form((2,), (1,), 2, 1)
        result = reduce_top_form([(1, 1), (2, 1), (2, 2)], chart)
        assert result.coefficient == chart.sign * x(2, 2, 1)

    def test_chart_consistency(self):
        # the same top-form reduces to the same coefficient of the one global
        # canonical form in every chart containing it
        m, k = 2, 1
        charts = [chart_form((i,), (j,), m, k) for i in (1, 2) for j in (1, 2)]
        for subset in combinations([(1, 1), (1, 2), (2, 1), (2, 2)], 3):
            values = {reduce_top_form(subset, c).coefficient for c in charts}
            assert len(values) == 1, subset

    def test_chart_consistency_three_by_three(self):
        m, k = 3, 2
        pairs = list(combinations(range(1, 4), 2))
        charts = [chart_form(rows, cols, m, k) for rows in pairs for cols in pairs]
        subset = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
        values = {reduce_top_form(subset, c).coefficient for c in charts}
        assert len(values) == 1

    def test_chart_consistency_rank_one_in_three(self):
        m, k = 3, 1
        charts = [
            chart_form((i,), (j,), m, k) for i in range(1, 4) for j in range(1, 4)
        ]
        subset = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
        values = {reduce_top_form(subset, c).coefficient for c in charts}
        assert len(values) == 1


class TestMemoizedElimination:
    CASES = [
        (2, 1, (2,), (1,)),
        (3, 1, (3,), (2,)),
        (3, 2, (1, 3), (2, 3)),
        # The frontier, on the reference chart only.
        (4, 2, (1, 2), (1, 2)),
    ]
    # The (4,2) subsets compared, a seeded sample: the tree walk takes 3.5 s
    # over all 1,820 of them in both orders.
    FRONTIER_SAMPLE = 250

    @classmethod
    def compare_with_the_tree_walk(cls, m, k, rows, cols):
        # Cold, warm, and in reverse order (other subsets fill the memo first),
        # on the reference chart and on the given chart, in both orders.
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        subsets = list(combinations(positions, k * (2 * m - k)))
        if m == 4:
            subsets = random.Random(19).sample(subsets, cls.FRONTIER_SAMPLE)
        ref = reference_chart_indices(k)
        for chart in dict.fromkeys(((ref, ref), (rows, cols))):
            for order in ("lex", "revlex"):
                expected = [tree_walk_reduce(s, *chart, m, order) for s in subsets]
                for run in ("cold", "warm", "reverse"):
                    if run != "warm":
                        clear_caches()
                    pairs = list(zip(subsets, expected))
                    if run == "reverse":
                        pairs.reverse()
                    for subset, want in pairs:
                        got = forms._reduce_positions(subset, *chart, m, order)
                        assert got == want, (chart, order, run, subset)

    @pytest.mark.parametrize("m, k, rows, cols", CASES)
    def test_matches_the_tree_walk(self, m, k, rows, cols):
        self.compare_with_the_tree_walk(m, k, rows, cols)

    def test_negated_cofactor_sign_fails_the_tree_walk(self, monkeypatch):
        # One cofactor of each minor differential changes sign; on the
        # reference chart it is never the pivot's, (rows[-1], cols[-1]).
        real = forms._cofactors

        def one_sign_negated(rows, cols):
            cofactors = real(rows, cols)
            sign, sub_rows, sub_cols = cofactors[rows[-1], cols[0]]
            cofactors[rows[-1], cols[0]] = (-sign, sub_rows, sub_cols)
            return cofactors

        monkeypatch.setattr(forms, "_cofactors", one_sign_negated)
        ref = reference_chart_indices(2)
        try:
            with pytest.raises(AssertionError):
                self.compare_with_the_tree_walk(4, 2, ref, ref)
        finally:
            clear_caches()

    @pytest.mark.parametrize("m, k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3)])
    def test_numerators_are_integer_polynomials(self, m, k):
        clear_caches()
        verify_nash(m, k)
        coefficients = [
            coef
            for memo in forms._ELIMINATION_CACHE.values()
            for terms, _ in memo.values()
            for coef in terms.values()
        ]
        assert coefficients
        assert all(type(coef) is int for coef in coefficients)

    def test_dead_and_cancelling_wedges_are_told_apart(self):
        # Every branch of the first dies on a repeated differential, one step
        # below the start: B = 0.  The branches of the second reach the chart
        # set and cancel: B = 4.
        ref = reference_chart_indices(1)
        dead = ((1, 1), (1, 2), (2, 3), (3, 1), (3, 2))
        cancelling = ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
        for order in ("lex", "revlex"):
            for subset, bpow in ((dead, 0), (cancelling, 4)):
                result = forms._reduce_positions(subset, ref, ref, 3, order)
                assert result == (MultiPoly.zero(3), bpow)
                assert result == tree_walk_reduce(subset, ref, ref, 3, order)

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_pivot_tables_match_partial_derivatives(self, m, k):
        # Every chart's table against the formal partials of each (k+1)-minor
        # (rows + i | cols + j): its partial at the bad pivot (i, j) is
        # +-delta, and the terms at (p, q) are -(that sign) * its partial there.
        # The table and the masks are keyed by bit, decoded here to positions.
        def position(b):
            return b // m + 1, b % m + 1

        charts = list(combinations(range(1, m + 1), k))
        for rows in charts:
            for cols in charts:
                good, bad, steps = forms._chart_steps(m, rows, cols)
                full_good = chart_variable_set(rows, cols, m)
                assert good == sum(1 << (i - 1) * m + j - 1 for i, j in full_good)
                assert good | bad == (1 << m * m) - 1 and not good & bad
                delta = minor_poly(MinorIndex(rows, cols), m)
                everywhere = {(i, j) for i in range(1, m + 1) for j in range(1, m + 1)}
                assert set(map(position, steps)) == everywhere - set(full_good)
                assert sum(1 << b for b in steps) == bad
                for b, branches in steps.items():
                    i, j = position(b)
                    big_rows, big_cols = sorted(rows + (i,)), sorted(cols + (j,))
                    big = minor_poly(MinorIndex(big_rows, big_cols), m)
                    pivot = partial_derivative(big, m, i, j)
                    pivot_sign = 1 if pivot == delta else -1
                    assert pivot == pivot_sign * delta
                    expected = {
                        (p, q) for p in big_rows for q in big_cols if (p, q) != (i, j)
                    }
                    assert {position(bq) for bq, _ in branches} == expected
                    for bq, terms in branches:
                        p, q = position(bq)
                        assert all(type(c) is int for _, c in terms)
                        assert MultiPoly(m, dict(terms)) == (
                            -pivot_sign * partial_derivative(big, m, p, q)
                        ), (rows, cols, (i, j), (p, q))

    def test_orders_share_one_pivot_table_per_chart(self):
        clear_caches()
        subset = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        for rows, cols in (((1,), (1,)), ((3,), (2,))):
            for order in ("lex", "revlex"):
                reduce_top_form(subset, chart_form(rows, cols, 3, 1), elimination_order=order)
        charts = {key[:3] for key in forms._ELIMINATION_CACHE}
        assert charts == set(forms._CHART_CACHE) == {(3, (1,), (1,)), (3, (3,), (2,))}

    def test_orders_keep_separate_memos(self):
        clear_caches()
        verify_nash(3, 1)
        keys = set(forms._ELIMINATION_CACHE)
        lex = {key[:3] for key in keys if key[3] == "lex"}
        revlex = {key[:3] for key in keys if key[3] == "revlex"}
        assert lex and lex == revlex and len(keys) == 2 * len(lex)
        for chart in lex:
            assert forms._ELIMINATION_CACHE[chart + ("lex",)] is not (
                forms._ELIMINATION_CACHE[chart + ("revlex",)]
            )

    def test_memo_holds_the_wedges_of_its_own_pivot_order(self):
        # The orders return the same (N, B), so only the wedges each memo
        # holds tell the lowest bad bit (lex) from the highest (revlex): from
        # a cold memo, a subset leaves exactly the wedges the tree walk meets
        # in that order, as bit masks.  At (3, 1) many subsets have two or
        # more bad positions, where the two orders meet different wedges.
        m, k = 3, 1
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        ref = reference_chart_indices(k)
        differ = 0
        try:
            for subset in combinations(positions, k * (2 * m - k)):
                held = {}
                for order in ("lex", "revlex"):
                    forms._ELIMINATION_CACHE.clear()
                    forms._reduce_positions(subset, ref, ref, m, order)
                    walked = set()
                    tree_walk_reduce(subset, ref, ref, m, order, walked)
                    held[order] = set(forms._ELIMINATION_CACHE[m, ref, ref, order])
                    assert held[order] == {
                        sum(1 << (i - 1) * m + j - 1 for i, j in wedge) for wedge in walked
                    }, (subset, order)
                differ += held["lex"] != held["revlex"]
        finally:
            clear_caches()
        assert differ


def _single_swap_pairs(chart_indices):
    """Every pair of charts one row swap apart, then every pair one column
    swap apart, as (rows1, cols1, rows2, cols2), from one list of index sets."""
    swaps = [(a, b) for a, b in combinations(chart_indices, 2) if len(set(a) ^ set(b)) == 2]
    for a, b in swaps:
        for fixed in chart_indices:
            yield a, fixed, b, fixed
    for a, b in swaps:
        for fixed in chart_indices:
            yield fixed, a, fixed, b


def _transition_minors(rows1, cols1, rows2, cols2, m, k):
    """For two charts one swap apart: the union of their rows and the union
    of their columns have k+1 and k entries, in either order.  For each index
    e outside the size-k side, the (k+1)-minor on the unions plus e, as its
    differential from `forms._cofactors` and each chart's position in it
    (minor rows - chart rows, minor cols - chart cols): (cofactors, p1, p2)."""
    big_rows = tuple(sorted(set(rows1) | set(rows2)))
    big_cols = tuple(sorted(set(cols1) | set(cols2)))
    grow_rows = len(big_rows) == k
    side = big_rows if grow_rows else big_cols
    for e in sorted(set(range(1, m + 1)).difference(side)):
        grown = tuple(sorted(side + (e,)))
        minor_rows, minor_cols = (grown, big_cols) if grow_rows else (big_rows, grown)
        p1, p2 = (
            (*set(minor_rows).difference(rows), *set(minor_cols).difference(cols))
            for rows, cols in ((rows1, cols1), (rows2, cols2))
        )
        yield forms._cofactors(minor_rows, minor_cols), p1, p2


def _swap_identity(rows1, cols1, rows2, cols2, m, k):
    """Each chart's position in every transition minor's differential has
    that chart's own minor as its coefficient, compared on index sets."""
    return all(
        cofactors[p1][1:] == (rows1, cols1) and cofactors[p2][1:] == (rows2, cols2)
        for cofactors, p1, p2 in _transition_minors(rows1, cols1, rows2, cols2, m, k)
    )


def _gluing_sign(rows1, cols1, rows2, cols2, m, k):
    """(wedge, eps) with wedge(S_C2) = eps * (delta2 / delta1)**(m-k) * wedge(S_C1)
    on the overlap of the charts C1 and C2, one swap apart.

    In each transition minor's differential, sigma1 * delta1 * dx_p1 +
    sigma2 * delta2 * dx_p2 vanishes modulo positions both charts share, where
    p1 lies on C2 only and p2 on C1 only.  So each dx_p1 of wedge(S_C2) becomes
    -sigma1 * sigma2 * (delta2 / delta1) * dx_p2, and eps collects those signs
    and the re-sort signs; the wedge left must be wedge(S_C1)."""
    wedge = chart_variable_set(rows2, cols2, m)
    eps = 1
    for cofactors, p1, p2 in _transition_minors(rows1, cols1, rows2, cols2, m, k):
        wedge, resort = _replace_in_wedge(wedge, p1, p2)
        eps *= -cofactors[p1][0] * cofactors[p2][0] * resort
    return wedge, eps


def _swap_pairs_up_to_four():
    """Every single-swap pair at 2 <= m <= 4, k < m, as (m, k, pair), and the
    chart_form sign of every chart involved, keyed by (m, rows, cols)."""
    pairs, signs = [], {}
    for m in range(2, 5):
        for k in range(1, m):
            charts = list(combinations(range(1, m + 1), k))
            pairs += [(m, k, pair) for pair in _single_swap_pairs(charts)]
            for rows, cols in product(charts, charts):
                signs[m, rows, cols] = chart_form(rows, cols, m, k).sign
    return pairs, signs


def _gluing_failures(pairs, signs):
    """The pairs whose wedge does not end as wedge(S_C1) or whose chart signs
    break s1 = eps * s2, and the number of pairs with eps = -1."""
    failures, negative = [], 0
    for m, k, (rows1, cols1, rows2, cols2) in pairs:
        wedge, eps = _gluing_sign(rows1, cols1, rows2, cols2, m, k)
        negative += eps < 0
        if wedge != chart_variable_set(rows1, cols1, m) or (
            signs[m, rows1, cols1] != eps * signs[m, rows2, cols2]
        ):
            failures.append((m, k, rows1, cols1, rows2, cols2))
    return failures, negative


class TestChartTransitions:
    def test_row_swap_two_by_two(self):
        assert verify_chart_transition((1,), (1,), (2,), (1,), 2, 1)

    def test_column_swap_three_by_three(self):
        assert verify_chart_transition((1,), (1,), (1,), (2,), 3, 1)

    def test_identity_transition(self):
        assert verify_chart_transition((1,), (1,), (1,), (1,), 2, 1)

    def test_double_swap_rejected(self):
        with pytest.raises(PreconditionError):
            verify_chart_transition((1,), (1,), (2,), (2,), 2, 1)
        with pytest.raises(PreconditionError, match="one row swap or one column swap"):
            verify_chart_transition((1, 2), (1, 2), (3, 4), (1, 2), 4, 2)

    def test_k_two_row_swap(self):
        assert verify_chart_transition((1, 2), (1, 2), (1, 3), (1, 2), 3, 2)

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_identity_holds_for_every_single_swap(self, m, k):
        pairs = list(_single_swap_pairs(list(combinations(range(1, m + 1), k))))
        assert pairs
        for pair in pairs:
            assert _swap_identity(*pair, m, k), pair

    def test_every_chart_has_a_swap_neighbour_below_full_rank(self):
        # Every chart lies in a single-swap pair when k < m, so a report's
        # transitions_ok, which reads the chart signs, equals minors_realized
        # (checked on the reports in TestVerifyNash and TestFrontier).
        count = 0
        for m in range(2, 5):
            for k in range(1, m):
                charts = list(combinations(range(1, m + 1), k))
                pairs = list(_single_swap_pairs(charts))
                ends = {end for a1, b1, a2, b2 in pairs for end in ((a1, b1), (a2, b2))}
                assert ends == set(product(charts, charts)), (m, k)
                count += len(pairs)
        assert count == 280

    def test_gluing_sign_holds_on_every_single_swap(self):
        # The canonical form s_C * delta_C**-(m-k) * wedge(S_C) is one form:
        # with wedge(S_C2) = eps * (delta2 / delta1)**(m-k) * wedge(S_C1) it
        # glues across two charts exactly when s1 = eps * s2.
        pairs, signs = _swap_pairs_up_to_four()
        failures, negative = _gluing_failures(pairs, signs)
        assert len(pairs) == 280
        assert failures == []
        assert negative == 34

    def test_gluing_sign_fails_without_the_parity_sign(self, monkeypatch):
        # Chart signs come from the real cofactors; only the transition
        # minors' differentials lose their parity signs.
        pairs, signs = _swap_pairs_up_to_four()
        real = forms._cofactors

        def unsigned(rows, cols):
            return {pq: (1, *rest) for pq, (_, *rest) in real(rows, cols).items()}

        monkeypatch.setattr(forms, "_cofactors", unsigned)
        failures, _ = _gluing_failures(pairs, signs)
        assert len(failures) == 96

    @pytest.mark.parametrize(
        "rows1, cols1, rows2, cols2, entries",
        [
            ((1, 2), (1, 2), (1, 3), (1, 2), ((2, 3), (3, 3))),
            ((2,), (1,), (2,), (3,), ((1, 1), (1, 3))),
        ],
        ids=["row_swap", "column_swap"],
    )
    def test_identity_fails_on_swapped_coefficients(
        self, monkeypatch, rows1, cols1, rows2, cols2, entries
    ):
        # Exchanging the coefficients of the two chart positions in every
        # differential puts each chart minor against the other's position.
        m = 3
        k = len(rows1)
        assert _swap_identity(rows1, cols1, rows2, cols2, m, k)
        real = forms._cofactors

        def swapped_terms(rows, cols):
            terms = real(rows, cols)
            first, second = entries
            if first in terms and second in terms:
                terms[first], terms[second] = terms[second], terms[first]
            return terms

        monkeypatch.setattr(forms, "_cofactors", swapped_terms)
        assert not _swap_identity(rows1, cols1, rows2, cols2, m, k)


class TestVerifyNash:
    def test_two_by_two_rank_one(self):
        report = verify_nash(2, 1)
        assert report.passed
        assert len(report.subsets) == 4
        # the reduced coefficients span all four matrix entries
        coefficients = {
            tuple(sorted(tuple(e["exp"]) for e in entry["F"])) for entry in report.subsets
        }
        assert len(coefficients) == 4

    def test_report_certificates_reexpand(self):
        # the emitted certificate is a rectangular standard expansion of F
        from detmld.tableaux import DoubleTableau, bideterminant
        from detmld.core import parse_rational

        m, k = 2, 1
        report = verify_nash(m, k)
        for entry in report.subsets:
            assert entry["certificate"] is not None
            total = MultiPoly.zero(m)
            for term in entry["certificate"]:
                tab = DoubleTableau.from_json(term)
                assert all(r == k for r in tab.shape.rows)
                total = total + parse_rational(term["coef"]) * bideterminant(tab, m)
            assert total == MultiPoly.from_json(m, entry["F"])

    def test_smooth_cases_are_units(self):
        for m, k in ((2, 2), (3, 3)):
            report = verify_nash(m, k)
            assert report.passed
            assert len(report.subsets) == 1
            (entry,) = report.subsets
            assert entry["F"] == MultiPoly.one(m).to_json()

    def test_guard(self):
        with pytest.raises(PreconditionError):
            verify_nash(5, 2)

    def test_a_cold_pass_leaves_no_cyclic_garbage(self):
        # Each elimination's self-referencing closure is dropped after its
        # call, so a cold pass is freed by reference counting alone.
        cases = [(m, k) for m in (1, 2, 3) for k in range(1, m + 1)]
        calls = {case: functools.partial(verify_nash, *case) for case in cases}
        calls["chart_form"] = functools.partial(chart_form, (2,), (3,), 3, 1)
        garbage = {}
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, call in calls.items():
                clear_caches()
                gc.collect()
                call()
                garbage[name] = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert not any(garbage.values()), garbage

    @pytest.mark.parametrize("m, k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_minor_power_sign_matches_the_polynomial_route(self, m, k):
        # Reference: (chart minor)**(m-k) multiplied out, straightened and
        # re-expanded, compared with F as polynomials.
        ref = reference_chart_indices(k)
        charts = list(combinations(range(1, m + 1), k))
        for rows in charts:
            for cols in charts:
                numerator, bpow = forms._reduce_positions(
                    chart_variable_set(rows, cols, m), ref, ref, m, "lex"
                )
                expansion = forms._resolve_coefficient(numerator, bpow, m, k)
                coeff = expansion.to_poly(m)
                power = minor_poly(MinorIndex(rows, cols), m) ** (m - k)
                expected = standard_coordinates(power, m, k_bound=k).to_poly(m)
                old = 1 if coeff == expected else -1 if coeff == -expected else 0
                assert old != 0
                assert forms._sign_against_minor_power(expansion, rows, cols, m, k) == old
                doubled = StandardExpansion(tuple((2 * c, dt) for c, dt in expansion))
                assert forms._sign_against_minor_power(doubled, rows, cols, m, k) == 0
                zero = StandardExpansion(())
                assert forms._sign_against_minor_power(zero, rows, cols, m, k) == 0

    def test_transitions_agree_with_the_public_check(self):
        for m, k in ((2, 1), (3, 1), (3, 2)):
            charts = list(combinations(range(1, m + 1), k))
            expected = all(
                verify_chart_transition(rows_a, cols_a, rows_b, cols_b, m, k)
                for rows_a, cols_a, rows_b, cols_b in _single_swap_pairs(charts)
            )
            assert expected
            report = verify_nash(m, k)
            assert report.transitions_ok == expected == report.minors_realized

    def test_unrealized_chart_fails_its_transitions(self, monkeypatch):
        # A chart whose own wedge does not reduce to +-(its minor)^(m-k) has
        # sign 0, and every transition through it fails.  Here both of the
        # wedge's eliminations return a zero numerator.
        broken = chart_variable_set((2,), (1,), 2)
        real = forms._reduce_positions

        def reduce_breaking_one_chart(positions, rows, cols, m, order):
            numerator, bpow = real(positions, rows, cols, m, order)
            if tuple(sorted(positions)) == broken:
                return MultiPoly.zero(m), bpow
            return numerator, bpow

        monkeypatch.setattr(forms, "_reduce_positions", reduce_breaking_one_chart)
        report = verify_nash(2, 1)
        signs = {(tuple(c["rows"]), tuple(c["cols"])): c["sign"] for c in report.charts}
        assert signs[(2,), (1,)] == 0
        assert all(sign != 0 for key, sign in signs.items() if key != ((2,), (1,)))
        assert not report.minors_realized
        assert not report.transitions_ok

    def test_perturbed_revlex_expansion_fails_order_independence(self, monkeypatch):
        # Negating every revlex numerator negates every revlex expansion, so
        # each nonzero F disagrees with its lex reduction.
        real = forms._reduce_positions

        def negated_revlex(positions, rows, cols, m, order):
            numerator, bpow = real(positions, rows, cols, m, order)
            return (-numerator if order == "revlex" else numerator), bpow

        monkeypatch.setattr(forms, "_reduce_positions", negated_revlex)
        report = verify_nash(2, 1)
        assert report.all_member and report.minors_realized and report.transitions_ok
        assert not any(entry["order_independent"] for entry in report.subsets)
        assert not report.order_independent
        assert not report.passed

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (3, 2)])
    def test_revlex_numerator_plus_an_ideal_element_fails_order_independence(
        self, monkeypatch, m, k
    ):
        # Adding the (k+1)-minor (1..k+1 | 1..k+1) to every revlex numerator
        # leaves each revlex expansion modulo the (k+1)-minors as it was, but
        # the two orders must return the same numerator exactly.
        real = forms._reduce_positions
        lead = tuple(range(1, k + 2))
        minor = minor_poly(MinorIndex(lead, lead), m)

        def shifted_revlex(*args):
            numerator, bpow = real(*args)
            return (numerator + minor if args[-1] == "revlex" else numerator), bpow

        monkeypatch.setattr(forms, "_reduce_positions", shifted_revlex)
        report = verify_nash(m, k)
        assert report.all_member and report.minors_realized and report.transitions_ok
        assert not any(entry["order_independent"] for entry in report.subsets)
        assert not report.order_independent
        assert not report.passed

    def test_cold_run_after_clear_caches_matches_warm_run(self):
        verify_nash(3, 1)
        warm = _untimed_json(verify_nash(3, 1))
        clear_caches()
        assert all(not cache for cache in _CACHES)
        assert _untimed_json(verify_nash(3, 1)) == warm
        # Modulo the 2-minors the expansion is read off in closed form.
        assert not tableaux._BLOCK_CACHE

    def test_cold_run_at_rank_two_fills_every_cache(self):
        verify_nash(3, 2)
        warm = _untimed_json(verify_nash(3, 2))
        clear_caches()
        assert all(not cache for cache in _CACHES)
        assert _untimed_json(verify_nash(3, 2)) == warm
        assert all(_CACHES)

    def test_edited_minor_results_do_not_reach_the_minor_table(self):
        # minor_poly and a one-row bideterminant once returned the memoized
        # minor itself, so editing their terms changed every later product
        def double_tableau(rows, cols):
            return tableaux.DoubleTableau(tableaux.Tableau((rows,)), tableaux.Tableau((cols,)))

        entry, full = MinorIndex((2,), (2,)), MinorIndex((1, 2), (1, 2))
        square = double_tableau((1, 2), (1, 2))
        clear_caches()
        cold = _untimed_json(verify_nash(2, 1))
        expected = dict(tableaux.bideterminant(square, 2).terms)
        assert dict(StandardExpansion(((Fraction(1), square),)).to_poly(2).terms) == expected
        clear_caches()
        try:
            for poly in (
                minor_poly(entry, 2),
                minor_poly(full, 2),
                tableaux.bideterminant(double_tableau((2,), (2,)), 2),
                tableaux.bideterminant(square, 2),
            ):
                poly.terms[(0, 0, 0, 0)] = Fraction(1)
            assert _untimed_json(verify_nash(2, 1)) == cold
            assert tableaux.bideterminant(square, 2).terms == expected
            assert StandardExpansion(((Fraction(1), square),)).to_poly(2).terms == expected
            assert minor_poly(entry, 2) is not minor_poly(entry, 2)
        finally:
            clear_caches()

        # The product table: edited to_poly and bideterminant results (one
        # and two rows, at m = 3) reach neither a later bideterminant of the
        # same tableau nor a warm verify_nash(3, 2), whose F terms include
        # (12|12) and read its memoized product.
        one_row = double_tableau((1, 2), (1, 2))
        two_rows = tableaux.DoubleTableau(
            tableaux.Tableau(((1, 2), (3,))), tableaux.Tableau(((1, 3), (2,)))
        )
        expansion = StandardExpansion(((Fraction(1), one_row), (Fraction(-1, 2), two_rows)))
        warm = _untimed_json(verify_nash(3, 2))
        expected = {
            "one": dict(tableaux.bideterminant(one_row, 3).terms),
            "two": dict(tableaux.bideterminant(two_rows, 3).terms),
            "sum": dict(expansion.to_poly(3).terms),
        }
        try:
            for poly in (
                expansion.to_poly(3),
                tableaux.bideterminant(one_row, 3),
                tableaux.bideterminant(two_rows, 3),
            ):
                poly.terms[(0,) * 9] = Fraction(1)
            assert _untimed_json(verify_nash(3, 2)) == warm
            assert tableaux.bideterminant(one_row, 3).terms == expected["one"]
            assert tableaux.bideterminant(two_rows, 3).terms == expected["two"]
            assert expansion.to_poly(3).terms == expected["sum"]
            assert expansion.to_poly(3) is not expansion.to_poly(3)
        finally:
            clear_caches()


@pytest.fixture(scope="module")
def nash_report():
    """verify_nash, run once per (m, k) for the tests that only read its report."""
    return functools.cache(verify_nash)


class TestFrontier:
    def test_rank_one_in_four_reduction_is_pinned(self):
        # A (4,1) top-form with B = 5 > m - k, so it takes the division path.
        # The digest is of the coefficient JSON as first computed.
        chart = chart_form((1,), (1,), 4, 1)
        positions = [(1, 3), (2, 1), (2, 4), (3, 3), (3, 4), (4, 2), (4, 3)]
        for order in ("lex", "revlex"):
            result = reduce_top_form(positions, chart, elimination_order=order)
            text = json.dumps(result.coefficient.to_json())
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "0c63e788f7e35cbab7babf21ba50c39ac8fcdc399ef5d3d1bab2890bad84b5d2"
            )
            assert result.denominator_power == 5
            assert result.certificate.is_member

    @pytest.mark.parametrize(
        "k, expected",
        [
            (1, "e36002069fddab80a79d8e3d4bd30ad0d6bbb8cb587b4da588655d4f33d690dc"),
            (2, "ccd60f92c473833390ed7da815adb234926b4f2cc52b45547f3d2300f6610824"),
            (3, "d6eda88fa7139c10b9c0953b54188ed58faa5af1d74775da536ff7f5c4212da1"),
            (4, "dfd6805906558773c7274974f8122e4f2c631a6444df37b6a01a65205af6a3e6"),
        ],
    )
    def test_rank_in_four_reports_are_pinned(self, nash_report, k, expected):
        report = nash_report(4, k)
        assert report.passed
        assert report.transitions_ok == report.minors_realized
        assert hashlib.sha256(_untimed_json(report).encode()).hexdigest() == expected

    @pytest.mark.parametrize(
        "m, k, sample",
        [(2, 1, None), (3, 1, None), (3, 2, None), (3, 3, None), (4, 1, 200), (4, 2, 200)],
    )
    def test_entries_match_reduce_top_form(self, nash_report, m, k, sample):
        # verify_nash calls reduce_top_form's private steps itself; each entry
        # must equal the public call on the reference chart, recomputed here
        # from cold caches.
        entries = {tuple(map(tuple, e["positions"])): e for e in nash_report(m, k).subsets}
        subsets = list(entries)
        if sample is not None:
            subsets = random.Random(3200 + 10 * m + k).sample(subsets, sample)
        clear_caches()
        ref = reference_chart_indices(k)
        chart = chart_form(ref, ref, m, k)
        for subset in subsets:
            entry, result = entries[subset], reduce_top_form(subset, chart)
            witness = result.certificate.expansion
            assert entry["F"] == result.coefficient.to_json(), subset
            assert entry["member"] == result.certificate.is_member, subset
            assert entry["certificate"] == (witness.to_json() if witness is not None else None), subset
            assert entry["denominator_power"] == result.denominator_power, subset


class TestSubstitutionOracle:
    def test_all_top_forms_m2_k1(self):
        # parametrize the chart by (x11, x12, x21) with x22 = x12 x21 / x11 and
        # expand each wedge in that basis; clears denominators exactly
        m, k = 2, 1
        chart = chart_form((1,), (1,), m, k)
        positions = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for subset in combinations(positions, 3):
            reduced = reduce_top_form(subset, chart)
            oracle_num, oracle_pow = _substitution_oracle(subset)
            lhs = standard_coordinates(
                reduced.coefficient * x(m, 1, 1) ** oracle_pow, m, k_bound=k
            ).to_poly(m)
            rhs = standard_coordinates(oracle_num * x(m, 1, 1), m, k_bound=k).to_poly(m)
            assert lhs == rhs, subset


def _numeric_det(rows):
    rows = [row[:] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def _numeric_form_oracle(m, k, subset, rng):
    """Independent pointwise oracle for the reduction.

    Samples a random rank <= k matrix with invertible leading k x k block,
    computes the dependent entries and their differentials by implicit
    differentiation of the vanishing (k+1)-minors, and expands the wedge of
    the chosen differentials in the chart coordinate basis.  Returns the
    value the reduced coefficient must take at that point, and the point.
    """
    ref = tuple(range(1, k + 1))
    good = chart_variable_set(ref, ref, m)
    good_index = {pos: a for a, pos in enumerate(good)}
    delta = minor_poly(MinorIndex(ref, ref), m)
    while True:
        values = [Fraction(0)] * (m * m)
        for i, j in good:
            values[(i - 1) * m + (j - 1)] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if delta.evaluate(values) != 0:
            break
    bigs = {}
    for i in range(k + 1, m + 1):
        for j in range(k + 1, m + 1):
            big = minor_poly(MinorIndex(ref + (i,), ref + (j,)), m)
            bigs[(i, j)] = big
            slope = big.partial(i, j).evaluate(values)
            offset = big.evaluate(values)  # the (i, j) slot still holds zero
            values[(i - 1) * m + (j - 1)] = -offset / slope
    rows = []
    for i, j in sorted(subset):
        if (i, j) in good_index:
            row = [Fraction(0)] * len(good)
            row[good_index[(i, j)]] = Fraction(1)
        else:
            big = bigs[(i, j)]
            denom = big.partial(i, j).evaluate(values)
            row = [-big.partial(p, q).evaluate(values) / denom for p, q in good]
        rows.append(row)
    return _numeric_det(rows) * delta.evaluate(values) ** (m - k), values


class TestNumericParametrizationOracle:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2)])
    def test_reduction_matches_pointwise(self, m, k):
        # evaluate both sides of (wedge) = F * w at random points of the
        # rank <= k locus; independent of the elimination and straightening code
        rng = random.Random(100 * m + k)
        ref = reference_chart_indices(k)
        chart = chart_form(ref, ref, m, k)
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        for subset in combinations(positions, k * (2 * m - k)):
            reduced = reduce_top_form(subset, chart)
            for _ in range(2):
                expected, values = _numeric_form_oracle(m, k, subset, rng)
                assert reduced.coefficient.evaluate(values) == expected, subset


def _substitution_oracle(subset):
    """Wedge of the chosen differentials in the chart basis (dx11, dx12, dx21).

    Entries of dx22 carry denominator x11**2; returns (numerator, power) with
    the wedge equal to numerator / x11**power times dx11 ^ dx12 ^ dx21.
    """
    m = 2
    one, zero = MultiPoly.one(m), MultiPoly.zero(m)
    basis_rows = {
        (1, 1): ([one, zero, zero], 0),
        (1, 2): ([zero, one, zero], 0),
        (2, 1): ([zero, zero, one], 0),
        (2, 2): (
            [-(x(m, 1, 2) * x(m, 2, 1)), x(m, 2, 1) * x(m, 1, 1), x(m, 1, 2) * x(m, 1, 1)],
            2,
        ),
    }
    rows = [basis_rows[pos] for pos in sorted(subset)]
    power = sum(p for _, p in rows)
    det = zero
    from itertools import permutations

    for perm in permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        term = one
        for r in range(3):
            term = term * rows[r][0][perm[r]]
        det = det + (term if sign > 0 else -term)
    return det, power


_CHART_2_1 = ((1,), (1,), 2, 1)
_WEDGE_2_1 = ((1, 1), (1, 2), (2, 1))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: chart_form((1, 1), (1, 2), 3, 2), id="repeated_chart_index"),
        pytest.param(lambda: chart_form((1, 2, 3), (1, 2, 3), 2, 3), id="k_above_m"),
        pytest.param(
            lambda: reduce_top_form(_WEDGE_2_1, chart_form(*_CHART_2_1), "diagonal"),
            id="unknown_elimination_order",
        ),
        pytest.param(
            lambda: reduce_top_form(((1, 1), (1, 2), (3, 1)), chart_form(*_CHART_2_1)),
            id="position_outside_the_matrix",
        ),
        pytest.param(
            lambda: reduce_top_form(((1, 1, 1), (1, 2), (2, 1)), chart_form(*_CHART_2_1)),
            id="position_not_a_pair",
        ),
        pytest.param(
            lambda: reduce_top_form((1, (1, 2), (2, 1)), chart_form(*_CHART_2_1)),
            id="position_not_a_sequence",
        ),
        # m and k are ints, and a bool is not one.
        pytest.param(lambda: chart_form((1,), (1,), 2, 1.0), id="chart_float_k"),
        pytest.param(lambda: chart_form((1,), (1,), 2.0, 1), id="chart_float_m"),
        pytest.param(
            lambda: verify_chart_transition((1,), (1,), (2,), (1,), 2, True),
            id="transition_bool_k",
        ),
        pytest.param(lambda: verify_nash(2.0, 1), id="nash_float_m"),
        pytest.param(lambda: verify_nash(2, True), id="nash_bool_k"),
    ],
)
def test_preconditions_raise(call):
    with pytest.raises(PreconditionError):
        call()


@pytest.mark.parametrize(
    "name, replacement",
    [
        # A chart's own wedge is not +-(its minor)^(m-k), so _chart_sign raises.
        ("_sign_against_minor_power", lambda *args: 0),
    ],
)
def test_transition_check_returns_false(monkeypatch, name, replacement):
    assert verify_chart_transition((1,), (1,), (2,), (1,), 2, 1)
    monkeypatch.setattr(forms, name, replacement)
    assert verify_chart_transition((1,), (1,), (2,), (1,), 2, 1) is False
