import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from detmld import clear_caches, forms, tableaux
from detmld.core import PreconditionError
from detmld.forms import (
    chart_form,
    chart_variable_set,
    d_minor_terms,
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


# Every module-level cache, which clear_caches() empties (test_package checks that).
_CACHES = tuple(module_caches().values())


def tree_walk_reduce(positions, rows, cols, m, k, order):
    """Reference elimination: the path-sum walk over the elimination tree.

    Each path from the start wedge to the chart set carries the product of
    its coefficients and its depth; N sums the paths over delta to the
    largest depth B.  Every wedge is walked afresh, with no sharing.
    """
    good_rows, good_cols = set(rows), set(cols)
    delta = minor_poly(MinorIndex(rows, cols), m)
    full_good = chart_variable_set(rows, cols, m)
    stack = [(MultiPoly.one(m), tuple(sorted(positions)), 0)]
    collected = []
    while stack:
        coeff, wedge, bpow = stack.pop()
        bad = [pq for pq in wedge if pq[0] not in good_rows and pq[1] not in good_cols]
        if not bad:
            assert wedge == full_good
            collected.append((coeff, bpow))
            continue
        i, j = bad[0] if order == "lex" else bad[-1]
        dm = d_minor_terms(MinorIndex(tuple(sorted(rows + (i,))), tuple(sorted(cols + (j,)))), m)
        pivot_sign = 1 if dm[(i, j)] == delta else -1
        assert dm[(i, j)] == pivot_sign * delta
        for (p, q), comp in dm.items():
            if (p, q) == (i, j):
                continue
            new_wedge, swap_sign = forms._replace_in_wedge(wedge, (i, j), (p, q))
            if new_wedge is not None:
                stack.append((-pivot_sign * swap_sign * (coeff * comp), new_wedge, bpow + 1))
    if not collected:
        return MultiPoly.zero(m), 0
    top = max(b for _, b in collected)
    total = MultiPoly.zero(m)
    for coeff, b in collected:
        total = total + coeff * delta ** (top - b)
    return total, top


class TestDMinor:
    def test_two_by_two(self):
        m = 2
        dm = d_minor_terms(MinorIndex((1, 2), (1, 2)), m)
        assert dm[(1, 1)] == x(m, 2, 2)
        assert dm[(1, 2)] == -x(m, 2, 1)
        assert dm[(2, 1)] == -x(m, 1, 2)
        assert dm[(2, 2)] == x(m, 1, 1)

    def test_single_entry(self):
        dm = d_minor_terms(MinorIndex((1,), (3,)), 3)
        assert dm == {(1, 3): MultiPoly.one(3)}

    def test_full_three_by_three_center(self):
        m = 3
        dm = d_minor_terms(MinorIndex((1, 2, 3), (1, 2, 3)), m)
        assert dm[(2, 2)] == minor_poly(MinorIndex((1, 3), (1, 3)), m)

    def test_matches_partial_derivatives(self):
        # the differential agrees with the formal gradient, for all minors m <= 3
        for m in (2, 3):
            for size in range(1, m + 1):
                for rows in combinations(range(1, m + 1), size):
                    for cols in combinations(range(1, m + 1), size):
                        idx = MinorIndex(rows, cols)
                        poly = minor_poly(idx, m)
                        dm = d_minor_terms(idx, m)
                        for i in range(1, m + 1):
                            for j in range(1, m + 1):
                                expected = partial_derivative(poly, m, i, j)
                                got = dm.get((i, j), MultiPoly.zero(m))
                                assert got == expected


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

    @pytest.mark.parametrize("rows, cols", [((1,), (1,)), ((2,), (2,))])
    def test_indivisible_numerator_is_rejected(self, rows, cols):
        # x12 / delta**2 with m - k = 1 would need delta to divide x12
        with pytest.raises(RuntimeError):
            forms._resolve_coefficient(x(2, 1, 2), 2, rows, cols, 2, 1)

    def test_division_residual_in_every_chart(self):
        # F * delta**(B - (m - k)) is the chart sign times N, modulo the ideal:
        # the residual check of every division, in all nine (3,1) charts
        m, k = 3, 1
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        divisions = 0
        for rows, cols in [((i,), (j,)) for i in range(1, m + 1) for j in range(1, m + 1)]:
            chart = chart_form(rows, cols, m, k)
            delta = minor_poly(MinorIndex(rows, cols), m)
            for subset in combinations(positions, k * (2 * m - k)):
                numerator, bpow = forms._reduce_positions(subset, rows, cols, m, k, "lex")
                if bpow <= m - k:
                    continue
                divisions += 1
                coeff = reduce_top_form(subset, chart).coefficient
                assert standard_coordinates(
                    coeff * delta ** (bpow - (m - k)), m, k_bound=k
                ).to_poly(m) == chart.sign * standard_coordinates(
                    numerator, m, k_bound=k
                ).to_poly(m), (rows, cols, subset)
        assert divisions

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
    ]

    @pytest.mark.parametrize("m, k, rows, cols", CASES)
    def test_matches_the_tree_walk(self, m, k, rows, cols):
        # Cold, warm, and in reverse order (other subsets fill the memo first),
        # on the reference chart and on one other chart, in both orders.
        positions = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        subsets = list(combinations(positions, k * (2 * m - k)))
        ref = reference_chart_indices(k)
        for chart in ((ref, ref), (rows, cols)):
            for order in ("lex", "revlex"):
                expected = [tree_walk_reduce(s, *chart, m, k, order) for s in subsets]
                for run in ("cold", "warm", "reverse"):
                    if run != "warm":
                        clear_caches()
                    pairs = list(zip(subsets, expected))
                    if run == "reverse":
                        pairs.reverse()
                    for subset, want in pairs:
                        got = forms._reduce_positions(subset, *chart, m, k, order)
                        assert got == want, (chart, order, run, subset)

    def test_dead_and_cancelling_wedges_are_told_apart(self):
        # Every branch of the first dies on a repeated differential, one step
        # below the start: B = 0.  The branches of the second reach the chart
        # set and cancel: B = 4.
        ref = reference_chart_indices(1)
        dead = ((1, 1), (1, 2), (2, 3), (3, 1), (3, 2))
        cancelling = ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
        for order in ("lex", "revlex"):
            for subset, bpow in ((dead, 0), (cancelling, 4)):
                result = forms._reduce_positions(subset, ref, ref, 3, 1, order)
                assert result == (MultiPoly.zero(3), bpow)
                assert result == tree_walk_reduce(subset, ref, ref, 3, 1, order)

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

    def test_k_two_row_swap(self):
        assert verify_chart_transition((1, 2), (1, 2), (1, 3), (1, 2), 3, 2)

    @pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (3, 2)])
    def test_identity_holds_for_every_single_swap(self, m, k):
        pairs = list(forms._single_swap_pairs(list(combinations(range(1, m + 1), k))))
        assert pairs
        for pair in pairs:
            assert forms._swap_identity(*pair, m, k), pair

    @pytest.mark.parametrize(
        "swapped, fixed, swap, transpose, entries",
        [
            ((1, 2), (1, 2), (2, 3), False, ((2, 3), (3, 3))),
            ((1,), (2,), (1, 3), True, ((1, 1), (1, 3))),
        ],
    )
    def test_identity_fails_on_swapped_coefficients(
        self, monkeypatch, swapped, fixed, swap, transpose, entries
    ):
        # Exchanging the dx_ij and dx_i2j coefficients of every differential
        # puts each chart minor against the other's position.
        m = 3
        k = len(swapped)
        assert forms._transition_identity(swapped, fixed, swap, m, k, transpose)
        real = forms.d_minor_terms

        def swapped_terms(idx, m):
            terms = dict(real(idx, m))
            first, second = entries
            if first in terms and second in terms:
                terms[first], terms[second] = terms[second], terms[first]
            return terms

        monkeypatch.setattr(forms, "d_minor_terms", swapped_terms)
        assert not forms._transition_identity(swapped, fixed, swap, m, k, transpose)


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

    @pytest.mark.parametrize("m, k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_minor_power_sign_matches_the_polynomial_route(self, m, k):
        # Reference: (chart minor)**(m-k) multiplied out, straightened and
        # re-expanded, compared with F as polynomials.
        ref = reference_chart_indices(k)
        charts = list(combinations(range(1, m + 1), k))
        for rows in charts:
            for cols in charts:
                numerator, bpow = forms._reduce_positions(
                    chart_variable_set(rows, cols, m), ref, ref, m, k, "lex"
                )
                expansion = forms._resolve_coefficient(numerator, bpow, ref, ref, m, k)
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
                for rows_a, cols_a, rows_b, cols_b in forms._single_swap_pairs(charts)
            )
            assert expected
            assert verify_nash(m, k).transitions_ok == expected

    def test_unrealized_chart_fails_its_transitions(self, monkeypatch):
        # A chart whose own wedge does not reduce to +-(its minor)^(m-k) has
        # sign 0, and every transition through it fails.
        broken = chart_variable_set((2,), (1,), 2)
        real = forms.reduce_top_form

        def reduce_breaking_one_chart(positions, chart, elimination_order="lex"):
            result = real(positions, chart, elimination_order)
            if tuple(sorted(positions)) == broken:
                return dataclasses.replace(
                    result, coefficient=MultiPoly.zero(2), expansion=StandardExpansion(())
                )
            return result

        monkeypatch.setattr(forms, "reduce_top_form", reduce_breaking_one_chart)
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

        def negated_revlex(positions, rows, cols, m, k, order):
            numerator, bpow = real(positions, rows, cols, m, k, order)
            return (-numerator if order == "revlex" else numerator), bpow

        monkeypatch.setattr(forms, "_reduce_positions", negated_revlex)
        report = verify_nash(2, 1)
        assert report.all_member and report.minors_realized and report.transitions_ok
        assert not any(entry["order_independent"] for entry in report.subsets)
        assert not report.order_independent
        assert not report.passed

    def test_failed_swap_identity_fails_transitions(self, monkeypatch):
        monkeypatch.setattr(forms, "_transition_identity", lambda *args, **kwargs: False)
        report = verify_nash(2, 1)
        assert report.minors_realized
        assert not report.transitions_ok

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
    def test_rank_in_four_reports_are_pinned(self, k, expected):
        report = verify_nash(4, k)
        assert report.passed
        assert hashlib.sha256(_untimed_json(report).encode()).hexdigest() == expected


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
