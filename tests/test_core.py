import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmld.core import (
    INF,
    DeterminantalPair,
    ExtendedPartition,
    MldValue,
    PreconditionError,
    format_rational,
    new_pair,
    new_partition,
    parse_rational,
)


class TestInfinity:
    def test_ordering_against_ints(self):
        assert INF > 10**18
        assert not (INF < 0)
        assert 3 < INF
        assert INF >= INF
        assert not (INF > INF)

    def test_absorbing_arithmetic(self):
        assert INF + 5 is INF
        assert 5 + INF is INF
        assert sum([2, INF, 1]) is INF
        assert 3 * INF is INF

    def test_degenerate_product_rejected(self):
        with pytest.raises(ArithmeticError):
            0 * INF

    def test_singleton(self):
        assert INF is type(INF)()


class TestPair:
    def test_direct_construction(self):
        pair = new_pair(3, 2, [1, 0])
        assert (pair.m, pair.k) == (3, 2)
        assert pair.alphas == (Fraction(1), Fraction(0))

    def test_k_above_m_rejected(self):
        with pytest.raises(PreconditionError):
            new_pair(2, 3, [])

    def test_k_zero_rejected(self):
        with pytest.raises(PreconditionError):
            new_pair(2, 0, [])

    @pytest.mark.parametrize("m, k", [(3, 2.0), (3, "2"), (3.0, 2), ("3", 2)])
    def test_non_integer_size_or_rank_rejected(self, m, k):
        with pytest.raises(PreconditionError) as info:
            new_pair(m, k, [1])
        assert "must be an integer >= 1" in str(info.value)

    def test_huge_rank_rejected_before_padding(self):
        # 10**20 zeros cannot be allocated, so padding first would raise
        # OverflowError instead of the precondition error.
        with pytest.raises(PreconditionError) as info:
            new_pair(3, 10**20, [1])
        assert "exceeds matrix size" in str(info.value)

    def test_huge_valid_pair_rejected_before_padding(self):
        with pytest.raises(PreconditionError) as info:
            new_pair(10**20, 10**20)
        assert "exceeds the supported" in str(info.value)

    def test_zero_padding(self):
        pair = new_pair(4, 2, [Fraction(1, 2)])
        assert pair.alphas == (Fraction(1, 2), Fraction(0))

    def test_too_many_alphas_rejected(self):
        with pytest.raises(PreconditionError):
            new_pair(4, 2, [1, 2, 3])

    def test_k_equals_m_allowed(self):
        assert new_pair(3, 3, []).alphas == (Fraction(0),) * 3

    def test_negative_alphas_allowed(self):
        assert new_pair(2, 1, [-1]).alphas == (Fraction(-1),)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=8))
    def test_alpha_prefix_is_the_prefix_sum(self, alphas):
        pair = new_pair(len(alphas), len(alphas), alphas)
        for j in range(len(alphas) + 3):
            assert pair.alpha_prefix(j) == sum(alphas[:j], Fraction(0))

    def test_alpha_prefix_rejects_negative_length(self):
        with pytest.raises(PreconditionError):
            new_pair(3, 2, [1, 1]).alpha_prefix(-1)

    def test_prefix_cache_is_not_part_of_identity(self):
        pair = new_pair(3, 2, [1, 0])
        assert pair == DeterminantalPair(3, 2, (1, 0))
        assert hash(pair) == hash(DeterminantalPair(3, 2, (1, 0)))
        assert "_prefix" not in repr(pair)


class TestPartition:
    def test_valid(self):
        lam = new_partition([INF, 2, 1])
        assert lam.entries == (INF, 2, 1)

    def test_inf_string_accepted(self):
        assert new_partition(["inf", 2, 0]).entries == (INF, 2, 0)

    def test_increase_rejected(self):
        with pytest.raises(PreconditionError):
            new_partition([2, INF, 0])

    def test_all_zero(self):
        assert new_partition([0, 0]).entries == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            new_partition([2, -1])

    def test_json_roundtrip(self):
        lam = new_partition([INF, INF, 2, 1, 0])
        assert lam.to_json() == ["inf", "inf", 2, 1, 0]
        assert ExtendedPartition.from_json(lam.to_json()) == lam

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
    def test_construction_idempotent(self, entries):
        entries = sorted(entries, reverse=True)
        lam = new_partition(entries)
        assert new_partition(lam.entries) == lam


class TestRationalSerialization:
    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)

    def test_parse_garbage_rejected(self):
        with pytest.raises(PreconditionError):
            parse_rational("not-a-number")

    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    def test_arithmetic_exact_through_chains(self, a, b, c):
        # the same value reached along two op chains is identical, not approximate
        left = (a + b) * c - a * c
        right = b * c
        assert left == right
        assert parse_rational(format_rational(left)) == right


class TestMldValue:
    def test_neg_infinity_below_everything(self):
        bottom = MldValue.NEG_INFINITY
        assert bottom < MldValue.finite(-(10**12))
        assert not bottom < bottom
        assert bottom == MldValue.NEG_INFINITY

    def test_finite_ordering(self):
        assert MldValue.finite(Fraction(1, 3)) < MldValue.finite(Fraction(1, 2))

    def test_serialization(self):
        assert str(MldValue.finite(Fraction(7, 2))) == "7/2"
        assert str(MldValue.NEG_INFINITY) == "-inf"

    def test_value_access(self):
        assert MldValue.finite(6).value == 6
        with pytest.raises(PreconditionError):
            MldValue.NEG_INFINITY.value


# Coefficients and mld values are exact: an int (not a bool) or a Fraction.
# A string is not parsed and a float is not read as its binary expansion.
@pytest.mark.parametrize("value", ["x", "1/2", 0.1, True])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda v: new_pair(2, 1, [v]), id="new_pair"),
        pytest.param(lambda v: DeterminantalPair(2, 2, (0, v)), id="DeterminantalPair"),
        pytest.param(MldValue, id="MldValue"),
        pytest.param(MldValue.finite, id="MldValue.finite"),
    ],
)
def test_coefficients_must_be_int_or_fraction(build, value):
    with pytest.raises(PreconditionError, match=re.escape(repr(value))):
        build(value)
