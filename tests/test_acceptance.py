"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they print.
Every tolerance here is exact (rational arithmetic); the only numeric limits
are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from detmld import tableaux
from detmld.core import INF, MldValue, new_pair, new_partition
from detmld.forms import chart_form, reduce_top_form, verify_nash
from detmld.mld import beta_coefficients, is_terminal, mld_at_rank, semicontinuity_profile
from detmld.oracle import (
    LocusTarget,
    PointTarget,
    compare_with_closed_form,
    minimize_objective,
    series_minor_order,
)
from detmld.orbits import contact_order_subvariety, nash_contact_order, orbit_codim, orbit_codim_point
from detmld.polynomials import MinorIndex, MultiPoly, minor_poly
from detmld.tableaux import (
    DoubleTableau,
    Tableau,
    bideterminant,
    dominance_leq,
    enumerate_standard_basis,
    standard_coordinates,
    straighten,
)

QUARTER_GRID = [Fraction(i, 4) for i in range(13)]  # 0, 1/4, ..., 3


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_headline_point_formula(run_cli_json):
    started = time.perf_counter()
    failures = []
    for m in range(1, 7):
        for k in range(1, m + 1):
            alphas = ",".join(["0"] * k)
            for q in range(0, k + 1):
                out = run_cli_json(
                    ["mld", "point", "--m", str(m), "--k", str(k), "--alphas", alphas, "--q", str(q)]
                )
                expected = q * (m - k) + k * m
                if out["mld"] != str(expected):
                    failures.append((m, k, q, out["mld"], expected))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    assert _report(1, ok, f"point sweep m<=6 exact, {elapsed:.2f}s (<1s)")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_singular_locus_and_terminality(run_cli_json):
    failures = []
    for m in range(2, 7):
        for k in range(1, m):
            alphas = ",".join(["0"] * k)
            out = run_cli_json(
                ["mld", "locus", "--m", str(m), "--k", str(k), "--alphas", alphas, "--j", "1"]
            )
            if out["mld"] != str(m - k + 1):
                failures.append((m, k, out["mld"]))
            if not is_terminal(m, k):
                failures.append((m, k, "not terminal"))
    ok = not failures
    assert _report(2, ok, "locus mld = m-k+1 and terminality for all k < m <= 6")
    assert not failures, failures


def _sample_alpha(rng, k, accept, max_tries=200_000):
    for _ in range(max_tries):
        alphas = [rng.choice(QUARTER_GRID) for _ in range(k)]
        if accept(alphas):
            return alphas
    raise AssertionError("rejection sampling failed to find an admissible alpha")


def test_criterion_3_oracle_agreement_random_alphas():
    started = time.perf_counter()
    rng = random.Random(20260808)
    checked_agree = checked_neginf = 0
    for m in range(1, 6):
        for k in range(1, m + 1):
            for q in range(0, k + 1):
                count = k - q

                def all_beta_nonneg(alphas):
                    betas = beta_coefficients(new_pair(m, k, alphas), count)
                    return all(b >= 0 for b in betas)

                for _ in range(100):
                    alphas = _sample_alpha(rng, k, all_beta_nonneg)
                    pair = new_pair(m, k, alphas)
                    comp = compare_with_closed_form(pair, PointTarget(q), 2)
                    assert comp.agree, (m, k, q, alphas)
                    assert comp.closed_form == mld_at_rank(pair, q)
                    checked_agree += 1

                if count == 0:
                    continue
                extreme = beta_coefficients(new_pair(m, k, [Fraction(3)] * k), count)
                if all(s >= 0 for s in extreme.prefix_sums()):
                    continue  # no grid alpha can push a prefix sum negative

                def some_prefix_negative(alphas):
                    betas = beta_coefficients(new_pair(m, k, alphas), count)
                    return any(s < 0 for s in betas.prefix_sums())

                for _ in range(100):
                    alphas = _sample_alpha(rng, k, some_prefix_negative)
                    result = minimize_objective(new_pair(m, k, alphas), PointTarget(q), 2)
                    assert result.prefix_unbounded, (m, k, q, alphas)
                    assert result.minimum == MldValue.NEG_INFINITY
                    checked_neginf += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    assert _report(
        3,
        ok,
        f"{checked_agree} agreements + {checked_neginf} analytic -inf certificates, "
        f"{elapsed:.1f}s (<30s)",
    )
    assert elapsed < 30.0


def test_criterion_4_documented_divergence(run_cli_json):
    pair = new_pair(3, 2, [1, Fraction(7, 2)])
    comp = compare_with_closed_form(pair, PointTarget(0), 6)
    library_ok = (
        comp.closed_form == MldValue.NEG_INFINITY
        and comp.oracle.minimum.is_finite
        and not comp.oracle.at_boundary
        and not comp.agree
    )
    out = run_cli_json(
        ["mld", "point", "--m", "3", "--k", "2", "--alphas", "1,7/2", "--q", "0", "--oracle", "6"]
    )
    cli_ok = (
        out["mld"] == "-inf"
        and out["agree"] is False
        and out["oracle"]["at_boundary"] is False
        and out["oracle"]["minimum"] == "1/2"
    )
    ok = library_ok and cli_ok
    assert _report(4, ok, "closed form -inf vs sorted-domain oracle 1/2 at (1,1), agree=false")
    assert library_ok and cli_ok


def test_criterion_5_contact_order_series_oracle():
    started = time.perf_counter()
    checked = 0
    for m in range(1, 5):
        partitions = [
            tuple(sorted(entries, reverse=True))
            for entries in combinations_with_replacement(range(0, 4), m)
        ]
        for entries in sorted(set(partitions), reverse=True):
            truncation = max(sum(entries), 1)
            for s in range(1, m + 1):
                expected = sum(entries[m - s:])
                for seed in (None, 0, 1, 2, 3, 4):
                    got = series_minor_order(entries, m, s, truncation, seed=seed)
                    assert got == expected, (m, entries, s, seed, got, expected)
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    assert _report(5, ok, f"{checked} series orders match exactly, {elapsed:.1f}s (<60s)")
    assert elapsed < 60.0


def test_criterion_6_semicontinuity_random_profiles():
    rng = random.Random(17)
    for m in range(1, 6):
        for k in range(1, m + 1):
            for _ in range(50):
                alphas = [rng.choice(QUARTER_GRID) for _ in range(k)]
                pair = new_pair(m, k, alphas)
                profile = semicontinuity_profile(pair)
                for q in range(1, k + 1):
                    lower, upper = profile[q - 1], profile[q]
                    if not upper.is_finite:
                        assert not lower.is_finite, (m, k, alphas, q)
                    if lower.is_finite and upper.is_finite:
                        expected = (m - k) + pair.alpha_prefix(k - q + 1)
                        assert upper.value - lower.value == expected, (m, k, alphas, q)
                        assert expected >= 0
                        if expected > 0:
                            assert upper > lower
                        else:
                            # degenerate only for the smooth ambient with zero weights
                            assert m == k and pair.alpha_prefix(k - q + 1) == 0
    assert _report(6, True, "profiles increase with the exact differences, m <= 5, 50 draws each")


def _row_sorted_fillings(m, shape):
    per_row = [list(combinations(range(1, m + 1), length)) for length in shape]
    return [tuple(rows) for rows in product(*per_row)]


def _shapes(total, max_part):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _shapes(total - first, first):
            yield (first,) + rest


def _rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    pivot_row = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def test_criterion_7_straightening_soundness():
    started = time.perf_counter()
    straightened = 0
    for m in (1, 2, 3):
        for degree in (1, 2, 3):
            basis = enumerate_standard_basis(m, degree=degree)
            vectors = [bideterminant(b, m) for b in basis]
            monomials = sorted({e for v in vectors for e in v.terms})
            index = {e: i for i, e in enumerate(monomials)}
            dense = [[Fraction(0)] * len(basis) for _ in monomials]
            for c, v in enumerate(vectors):
                for e, coef in v.terms.items():
                    dense[index[e]][c] = coef
            assert _rank(dense) == len(basis), (m, degree)

            for shape in _shapes(degree, m):
                fillings = _row_sorted_fillings(m, shape)
                for left in fillings:
                    for right in fillings:
                        d = DoubleTableau(Tableau(left), Tableau(right))
                        p = bideterminant(d, m)
                        for k_bound in (None, 1, 2):
                            exp = straighten(d, m, k_bound=k_bound)
                            straightened += 1
                            if k_bound is None:
                                assert exp.to_poly(m) == p, (m, d)
                            else:
                                again = standard_coordinates(
                                    exp.to_poly(m), m, k_bound=k_bound
                                )
                                assert again == exp, (m, d, k_bound)
                            for coef, term in exp:
                                assert term.is_standard
                                assert dominance_leq(d.shape, term.shape)
                                assert term.left.content(m) == d.left.content(m)
                                assert term.right.content(m) == d.right.content(m)
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0
    assert _report(
        7,
        ok,
        f"{straightened} expansions re-expand exactly, bases independent, {elapsed:.1f}s (<120s)",
    )
    assert elapsed < 120.0


def test_criterion_7_fails_on_a_negated_packed_minor_term(monkeypatch):
    # straighten multiplies out both its input and the block columns from
    # packed minors, while criterion 7 re-expands with bideterminant on
    # MultiPoly.  One wrong sign in one packed minor must fail the criterion.
    real = tableaux._packed_minor

    def negated(m, bits, rows, cols):
        minor = real(m, bits, rows, cols)
        if rows == cols == (1, 2):
            (mono, sign), *rest = minor
            return [(mono, -sign), *rest]
        return minor

    monkeypatch.setattr(tableaux, "_packed_minor", negated)
    monkeypatch.setattr(tableaux, "_BLOCK_CACHE", {})
    with pytest.raises(AssertionError):
        test_criterion_7_straightening_soundness()
    # The unbounded re-expansion alone catches it: x12 x21 is not standard.
    d = DoubleTableau(Tableau(((1,), (2,))), Tableau(((2,), (1,))))
    assert straighten(d, 2).to_poly(2) != bideterminant(d, 2)


def _substitution_oracle_m2(subset):
    """Chart parametrization x22 = x12 x21 / x11: wedge of the chosen
    differentials over (dx11, dx12, dx21), as (numerator, power of x11)."""
    m = 2
    one, zero = MultiPoly.one(m), MultiPoly.zero(m)
    x = MultiPoly.variable
    table = {
        (1, 1): ([one, zero, zero], 0),
        (1, 2): ([zero, one, zero], 0),
        (2, 1): ([zero, zero, one], 0),
        (2, 2): (
            [-(x(m, 1, 2) * x(m, 2, 1)), x(m, 2, 1) * x(m, 1, 1), x(m, 1, 2) * x(m, 1, 1)],
            2,
        ),
    }
    rows = [table[pos] for pos in sorted(subset)]
    power = sum(p for _, p in rows)
    det = zero
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


def test_criterion_8_nash_verification():
    started = time.perf_counter()
    outcomes = {}
    for m, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        report = verify_nash(m, k)
        outcomes[(m, k)] = report.passed
        assert report.all_member, (m, k)
        assert report.order_independent, (m, k)
        assert report.minors_realized, (m, k)
        assert report.transitions_ok, (m, k)

    # independent substitution oracle for (2, 1)
    m, k = 2, 1
    chart = chart_form((1,), (1,), m, k)
    x11 = MultiPoly.variable(m, 1, 1)
    for subset in combinations([(1, 1), (1, 2), (2, 1), (2, 2)], 3):
        reduced = reduce_top_form(subset, chart)
        numerator, power = _substitution_oracle_m2(subset)
        lhs = standard_coordinates(reduced.coefficient * x11 ** power, m, k_bound=k).to_poly(m)
        rhs = standard_coordinates(numerator * x11, m, k_bound=k).to_poly(m)
        assert lhs == rhs, subset

    elapsed = time.perf_counter() - started
    ok = all(outcomes.values()) and elapsed < 300.0
    assert _report(
        8,
        ok,
        f"all five reports pass + substitution oracle for (2,1), {elapsed:.1f}s (<300s)",
    )
    assert all(outcomes.values()), outcomes
    assert elapsed < 300.0


def test_criterion_9_property_suites_cover_full_claims():
    # the general statements (all divisorial valuations; integral-closure
    # equality) admit no finite computation; the exact identities and
    # small-instance oracle equivalences below are their checkable shadow
    for m in range(1, 7):
        for k in range(1, m + 1):
            pair = new_pair(m, k, [])
            for q in range(0, k + 1):
                assert compare_with_closed_form(pair, PointTarget(q), 2).agree
            for j in range(1, k + 1):
                comp = compare_with_closed_form(pair, LocusTarget(j), 2)
                assert comp.agree, (m, k, j)

    for m in range(1, 6):
        for k in range(1, m + 1):
            pair = new_pair(m, k, [])
            for tail in combinations_with_replacement(range(3), k):
                tail = tuple(sorted(tail, reverse=True))
                lam = new_partition((INF,) * (m - k) + tail)
                w1 = contact_order_subvariety(lam, pair, 1)
                expected = 0 if k == m else (m - k) * w1
                assert nash_contact_order(lam, pair) == expected
                q = sum(1 for e in tail if e == 0)
                if q <= k and all(e > 0 for e in tail[: k - q]):
                    assert orbit_codim_point(lam, pair, q) - orbit_codim(lam, pair) == q * (
                        2 * m - q
                    )

    report = verify_nash(2, 1)
    assert report.passed
    assert _report(9, True, "full-strength claims covered by exact identity and oracle suites")
