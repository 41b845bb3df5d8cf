import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmld.core import MldValue, PreconditionError, new_pair
from detmld.mld import (
    beta_coefficients,
    first_lc_violation,
    is_lc_along,
    is_lc_at_rank,
    is_terminal,
    mld_along,
    mld_at_rank,
    semicontinuity_profile,
)

HALF = Fraction(1, 2)


class TestBeta:
    def test_zero_coefficients(self):
        assert beta_coefficients(new_pair(3, 2, []), 2).betas == (2, 4)

    def test_nonzero(self):
        assert beta_coefficients(new_pair(3, 2, [1]), 2).betas == (1, 3)

    def test_empty(self):
        assert beta_coefficients(new_pair(2, 1, []), 0).betas == ()

    def test_count_out_of_range(self):
        with pytest.raises(PreconditionError):
            beta_coefficients(new_pair(2, 1, []), 2)

    def test_prefix_sums(self):
        betas = beta_coefficients(new_pair(3, 2, [1, Fraction(7, 2)]), 2)
        assert betas.betas == (1, -HALF)
        assert betas.prefix_sums() == (1, HALF)

    def test_indexing(self):
        betas = beta_coefficients(new_pair(3, 2, [1, Fraction(7, 2)]), 2)
        assert (betas[0], betas[1], betas[-1]) == (1, -HALF, -HALF)
        assert betas[:1] == (1,)
        with pytest.raises(IndexError):
            betas[2]


class TestLcAtRank:
    def test_boundary_equality_holds(self):
        assert is_lc_at_rank(new_pair(3, 2, [2, 0]), 0)

    def test_violation(self):
        assert not is_lc_at_rank(new_pair(3, 2, [Fraction(5, 2), 0]), 0)

    def test_q_equals_k_vacuous(self):
        assert is_lc_at_rank(new_pair(3, 2, [Fraction(5, 2), 0]), 2)

    def test_monotone_in_q(self):
        # fewer conditions at higher rank
        for alphas in ([3, 1], [Fraction(5, 2), 4], [0, 9]):
            pair = new_pair(3, 2, alphas)
            for q in range(1, pair.k + 1):
                if is_lc_at_rank(pair, q - 1):
                    assert is_lc_at_rank(pair, q)

    def test_violation_report(self):
        assert first_lc_violation(new_pair(3, 2, [Fraction(5, 2), 0]), 2) == (
            1,
            Fraction(5, 2),
            Fraction(2),
        )


class TestMldAtRank:
    def test_smooth_point_of_cone(self):
        assert mld_at_rank(new_pair(2, 1, []), 0) == MldValue.finite(2)

    def test_weighted(self):
        assert mld_at_rank(new_pair(3, 2, [1]), 1) == MldValue.finite(6)

    def test_not_lc(self):
        assert mld_at_rank(new_pair(3, 2, [Fraction(5, 2), 0]), 0) == MldValue.NEG_INFINITY

    def test_smooth_point_normalization(self):
        # at a maximal-rank point the mld equals the dimension k(2m-k)
        for m in range(1, 9):
            for k in range(1, m + 1):
                value = mld_at_rank(new_pair(m, k, []), k)
                assert value == MldValue.finite(k * (2 * m - k))


class TestLcAlong:
    def test_zero(self):
        assert is_lc_along(new_pair(3, 2, []), 1)

    def test_violation_beyond_j(self):
        # the criterion ranges over all prefix lengths up to k, not just j
        assert not is_lc_along(new_pair(3, 2, [0, 5]), 1)

    def test_boundary(self):
        assert is_lc_along(new_pair(4, 1, [4]), 1)


class TestMldAlong:
    def test_singular_locus(self):
        assert mld_along(new_pair(3, 2, []), 1) == MldValue.finite(2)

    def test_deeper_locus(self):
        assert mld_along(new_pair(5, 3, []), 2) == MldValue.finite(8)

    def test_weighted(self):
        assert mld_along(new_pair(3, 2, [1, 1]), 2) == MldValue.finite(3)

    def test_consistency_of_parts(self):
        # at zero coefficients the value along the j-th sublocus is j(m-k)+j^2
        for m in range(1, 7):
            for k in range(1, m + 1):
                pair = new_pair(m, k, [])
                for j in range(1, k + 1):
                    assert mld_along(pair, j) == MldValue.finite(j * (m - k) + j * j)


class TestTerminal:
    def test_examples(self):
        assert is_terminal(3, 2)
        assert is_terminal(2, 1)
        assert is_terminal(4, 4)
        assert is_terminal(1, 1)

    def test_rejects_bad_range(self):
        with pytest.raises(PreconditionError):
            is_terminal(2, 3)


class TestSemicontinuity:
    def test_zero_profile(self):
        profile = semicontinuity_profile(new_pair(3, 2, []))
        assert [str(v) for v in profile] == ["6", "7", "8"]

    def test_two_by_two(self):
        assert [str(v) for v in semicontinuity_profile(new_pair(2, 1, []))] == ["2", "3"]

    def test_weighted_profile(self):
        profile = semicontinuity_profile(new_pair(3, 2, [1, 1]))
        assert [str(v) for v in profile] == ["3", "6", "8"]

    def test_negative_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            semicontinuity_profile(new_pair(2, 1, [-1]))

    @settings(max_examples=60)
    @given(
        st.integers(1, 5),
        st.data(),
    )
    def test_difference_identity(self, m, data):
        k = data.draw(st.integers(1, m))
        alphas = [
            data.draw(st.integers(0, 12)) * Fraction(1, 4) for _ in range(k)
        ]
        pair = new_pair(m, k, alphas)
        profile = semicontinuity_profile(pair)
        for q in range(1, k + 1):
            lower, upper = profile[q - 1], profile[q]
            if lower.is_finite and upper.is_finite:
                expected = (m - k) + pair.alpha_prefix(k - q + 1)
                assert upper.value - lower.value == expected
            if not upper.is_finite:
                # minus infinity propagates downward in rank
                assert not lower.is_finite

    def test_equals_rank_by_rank_on_criterion_6_grid(self):
        # the one-pass profile against mld_at_rank at every rank, on the grid
        # of acceptance criterion 6 (m <= 5, every k, quarter coefficients)
        rng = random.Random(17)
        quarters = [Fraction(i, 4) for i in range(13)]
        for m in range(1, 6):
            for k in range(1, m + 1):
                for _ in range(50):
                    pair = new_pair(m, k, [rng.choice(quarters) for _ in range(k)])
                    expected = [mld_at_rank(pair, q) for q in range(k + 1)]
                    assert semicontinuity_profile(pair) == expected, (m, k, pair.alphas)

    @pytest.mark.parametrize("violated_at", [None, 10_001])
    def test_large_k_is_linear(self, violated_at):
        # k = 20,000 is out of reach of a rank-by-rank profile; alpha_i = 1
        # keeps every prefix inside the criterion until a large coefficient
        k = 20_000
        alphas = [1] * k
        if violated_at is not None:
            alphas[violated_at - 1] = 3 * k
        pair = new_pair(k, k, alphas)
        profile = semicontinuity_profile(pair)
        assert len(profile) == k + 1
        for q in (0, 1, k // 2, k - 1, k):
            assert profile[q] == mld_at_rank(pair, q), q
        assert profile[k // 2].is_finite
        assert profile[0].is_finite is (violated_at is None)


# The closed forms as Fraction expressions over the coefficients themselves:
# the reference the integer prefix-sum route must reproduce exactly.
def reference_prefix(pair):
    return list(accumulate(pair.alphas, initial=Fraction(0)))


def reference_violation(pair, prefix, count):
    for j in range(1, count + 1):
        lhs, rhs = prefix[j], Fraction(pair.m - pair.k + 2 * j - 1)
        if lhs > rhs:
            return (j, lhs, rhs)
    return None


def reference_mld_at_rank(pair, prefix, q):
    m, k = pair.m, pair.k
    if reference_violation(pair, prefix, k - q) is not None:
        return MldValue.NEG_INFINITY
    correction = sum(
        ((k - q - i + 1) * pair.alphas[i - 1] for i in range(1, k - q + 1)), Fraction(0)
    )
    return MldValue.finite(Fraction(q * (m - k) + k * m) - correction)


def reference_mld_along(pair, prefix, j):
    m, k = pair.m, pair.k
    if reference_violation(pair, prefix, k) is not None:
        return MldValue.NEG_INFINITY
    correction = sum(((j - i + 1) * pair.alphas[i - 1] for i in range(1, j + 1)), Fraction(0))
    return MldValue.finite(Fraction(j * (m - k + j)) - correction)


def reference_betas(pair, prefix, count):
    return tuple(pair.m - pair.k + 2 * j - 1 - prefix[j] for j in range(1, count + 1))


def reference_prefix_sums(betas):
    return tuple(accumulate(betas, initial=Fraction(0)))[1:]


# halves, thirds, negatives and zero; tripled, the prefixes soon break the
# criterion, as they are they mostly keep it
ALPHA_POOL = [
    Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
    Fraction(1, 3), Fraction(-2, 3), Fraction(5, 3), Fraction(1), Fraction(-1), Fraction(2),
]


def _integer_route_pairs(size):
    """Seeded pairs: six per k <= m = size when size <= 8; at k = size, one
    pair at m = k + 7 and one at m = k whose middle coefficient k breaks the
    criterion, so ranks on both sides of it are checked."""
    rng = random.Random(20261019 + size)
    if size <= 8:
        return [
            new_pair(size, k, [rng.choice((1, 1, 3)) * rng.choice(ALPHA_POOL) for _ in range(k)])
            for k in range(1, size + 1)
            for _ in range(6)
        ]
    alphas = [[rng.choice(ALPHA_POOL) for _ in range(size)] for _ in range(2)]
    alphas[1][size // 2] = Fraction(size)
    return [new_pair(size + 7, size, alphas[0]), new_pair(size, size, alphas[1])]


def assert_matches_fraction_route(pair):
    k = pair.k
    prefix = reference_prefix(pair)
    for j in range(k + 3):
        assert pair.alpha_prefix(j) == prefix[min(j, k)], j
    for count in range(k + 1):
        assert first_lc_violation(pair, count) == reference_violation(pair, prefix, count)
        betas = beta_coefficients(pair, count)
        assert betas.betas == reference_betas(pair, prefix, count), count
        assert betas.prefix_sums() == reference_prefix_sums(betas.betas), count
    for q in range(k + 1):
        assert mld_at_rank(pair, q) == reference_mld_at_rank(pair, prefix, q), q
    for j in range(1, k + 1):
        assert mld_along(pair, j) == reference_mld_along(pair, prefix, j), j


class TestIntegerRouteMatchesFractions:
    @pytest.mark.parametrize("size", list(range(1, 9)) + [80, 150, 300])
    def test_every_closed_form(self, size):
        for pair in _integer_route_pairs(size):
            assert_matches_fraction_route(pair)

    def test_grid_reaches_both_sides_of_the_criterion(self):
        for sizes in (range(1, 9), (80,), (150,), (300,)):
            lc = [
                first_lc_violation(p, p.k) is None for s in sizes for p in _integer_route_pairs(s)
            ]
            assert any(lc) and not all(lc), sizes


    @pytest.mark.parametrize("size", list(range(1, 9)) + [80])
    def test_values_stay_below_the_printable_bound(self, size):
        # core._check_printable rejects a pair unless 4*k*m*scale prints, and
        # every closed-form value must have its numerator and denominator below it
        for pair in _integer_route_pairs(size):
            prefix = pair._scaled_prefix
            bound = 4 * pair.k * pair.m * max(pair._denominator, max(map(abs, prefix)))
            values = list(pair.alphas) + list(beta_coefficients(pair, pair.k))
            values += [mld_at_rank(pair, q) for q in range(pair.k + 1)]
            values += [mld_along(pair, j) for j in range(1, pair.k + 1)]
            if min(pair.alphas) >= 0:
                values += semicontinuity_profile(pair)
            violation = first_lc_violation(pair, pair.k)
            if violation is not None:
                values += violation[1:]
            for value in values:
                if isinstance(value, MldValue):
                    if not value.is_finite:
                        continue
                    value = value.value
                assert abs(value.numerator) < bound and value.denominator < bound, (pair, value)


_PAIR = new_pair(3, 2, (0, 0))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: first_lc_violation(_PAIR, -1), id="lc_violation_count_below_0"),
        pytest.param(lambda: first_lc_violation(_PAIR, 3), id="lc_violation_count_above_k"),
        pytest.param(lambda: is_lc_at_rank(_PAIR, -1), id="lc_at_rank_q_below_0"),
        pytest.param(lambda: is_lc_at_rank(_PAIR, 3), id="lc_at_rank_q_above_k"),
        pytest.param(lambda: is_lc_along(_PAIR, 0), id="lc_along_j_below_1"),
        pytest.param(lambda: is_lc_along(_PAIR, 3), id="lc_along_j_above_k"),
    ],
)
def test_preconditions_raise(call):
    with pytest.raises(PreconditionError):
        call()
