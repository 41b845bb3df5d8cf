from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmld.core import INF, PreconditionError, new_pair, new_partition
from detmld.orbits import (
    contact_order_subvariety,
    nash_contact_order,
    orbit_codim,
    orbit_codim_point,
    orbit_has_finite_codim,
    orbit_in_jet_space,
    orbit_meets_point_fiber,
)


@st.composite
def pair_with_finite_tail(draw, max_m=5, max_entry=4):
    """A pair and a partition in its jet space with finite codimension."""
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, m))
    tail = sorted(
        (draw(st.integers(0, max_entry)) for _ in range(k)), reverse=True
    )
    lam = new_partition((INF,) * (m - k) + tuple(tail))
    return new_pair(m, k, []), lam


class TestMembership:
    def test_in_jet_space(self):
        pair = new_pair(3, 2, [])
        assert orbit_in_jet_space(new_partition([INF, 1, 0]), pair)
        assert not orbit_in_jet_space(new_partition([2, 1, 0]), pair)

    def test_k_equals_m_no_prefix_needed(self):
        assert orbit_in_jet_space(new_partition([3, 1]), new_pair(2, 2, []))

    def test_length_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            orbit_in_jet_space(new_partition([INF, 1]), new_pair(3, 2, []))

    def test_finite_codim(self):
        pair = new_pair(3, 2, [])
        assert orbit_has_finite_codim(new_partition([INF, 1, 0]), pair)
        assert not orbit_has_finite_codim(new_partition([INF, INF, 0]), pair)
        assert orbit_has_finite_codim(new_partition([INF, 0, 0]), pair)

    def test_finite_codim_requires_jet_space(self):
        with pytest.raises(PreconditionError):
            orbit_has_finite_codim(new_partition([2, 1, 0]), new_pair(3, 2, []))

    def test_point_fiber(self):
        pair = new_pair(3, 2, [])
        assert orbit_meets_point_fiber(new_partition([INF, 1, 0]), pair, 1)
        assert not orbit_meets_point_fiber(new_partition([INF, 1, 1]), pair, 1)
        assert orbit_meets_point_fiber(
            new_partition([INF, INF, 1, 0, 0]), new_pair(5, 3, []), 2
        )

    def test_point_fiber_range_rejected(self):
        pair = new_pair(3, 2, [])
        with pytest.raises(PreconditionError):
            orbit_meets_point_fiber(new_partition([INF, 1, 0]), pair, 3)


class TestContactOrders:
    def test_order_of_top_subvariety(self):
        pair = new_pair(3, 2, [])
        assert contact_order_subvariety(new_partition([INF, 2, 1]), pair, 1) == 3

    def test_order_of_deeper_subvariety(self):
        # frozen from the power-series oracle: min t-order over all 2x2 minors
        # of diag(t^(N+1), t^2, t) is 2 + 1 = 3, over 1x1 minors is 1
        pair = new_pair(3, 2, [])
        assert contact_order_subvariety(new_partition([INF, 2, 1]), pair, 2) == 1

    def test_all_zero_tail(self):
        pair = new_pair(3, 2, [])
        assert contact_order_subvariety(new_partition([INF, 0, 0]), pair, 1) == 0

    def test_inf_absorbed(self):
        pair = new_pair(3, 2, [])
        assert contact_order_subvariety(new_partition([INF, INF, 1]), pair, 1) is INF
        assert contact_order_subvariety(new_partition([INF, INF, 1]), pair, 2) == 1

    def test_index_range_rejected(self):
        pair = new_pair(3, 2, [])
        with pytest.raises(PreconditionError):
            contact_order_subvariety(new_partition([INF, 1, 0]), pair, 3)

    def test_nash_contact_order(self):
        assert nash_contact_order(new_partition([INF, 2, 1]), new_pair(3, 2, [])) == 3
        assert nash_contact_order(new_partition([INF, INF, 1, 1]), new_pair(4, 2, [])) == 4
        assert nash_contact_order(new_partition([1, 1]), new_pair(2, 2, [])) == 0

    def test_nash_inf(self):
        assert nash_contact_order(new_partition([INF, INF, 2]), new_pair(3, 2, [])) is INF


class TestCodim:
    def test_codim_examples(self):
        pair = new_pair(3, 2, [])
        assert orbit_codim(new_partition([INF, 2, 1]), pair) == 11
        assert orbit_codim(new_partition([INF, 1, 0]), pair) == 3
        assert orbit_codim(new_partition([INF, 0, 0]), pair) == 0

    def test_codim_infinite_rejected(self):
        with pytest.raises(PreconditionError):
            orbit_codim(new_partition([INF, INF, 1]), new_pair(3, 2, []))

    def test_codim_point_examples(self):
        assert orbit_codim_point(new_partition([INF, 1, 0]), new_pair(3, 2, []), 1) == 8
        # q(2m-q) + (2(m-k+1)-1) * lam_{m-k+1} = 2*8 + 5*1 = 21 for (m,k,q)=(5,3,2)
        assert (
            orbit_codim_point(new_partition([INF, INF, 1, 0, 0]), new_pair(5, 3, []), 2)
            == 21
        )
        assert orbit_codim_point(new_partition([1, 1, 1]), new_pair(3, 3, []), 0) == 9

    def test_codim_point_fiber_rejected(self):
        with pytest.raises(PreconditionError):
            orbit_codim_point(new_partition([INF, 1, 1]), new_pair(3, 2, []), 1)

    def test_codim_point_infinite_rejected(self):
        # meets the fiber over a rank-0 point, but lam_{m-k+1} is INF
        with pytest.raises(PreconditionError, match="infinite codimension"):
            orbit_codim_point(new_partition([INF, INF, 1]), new_pair(3, 2, []), 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda lam, pair: orbit_has_finite_codim(lam, pair),
            lambda lam, pair: orbit_meets_point_fiber(lam, pair, 0),
            lambda lam, pair: contact_order_subvariety(lam, pair, 1),
            lambda lam, pair: nash_contact_order(lam, pair),
            lambda lam, pair: orbit_codim(lam, pair),
            lambda lam, pair: orbit_codim_point(lam, pair, 0),
        ],
        ids=["finite_codim", "point_fiber", "contact_order", "nash", "codim", "codim_point"],
    )
    def test_every_public_function_checks_jet_space(self, call):
        with pytest.raises(PreconditionError, match="does not lie in the jet space"):
            call(new_partition([2, 1, 1]), new_pair(3, 2, []))


class TestInvariants:
    @given(pair_with_finite_tail())
    def test_point_codim_difference(self, data):
        pair, lam = data
        q = sum(1 for e in lam if e == 0)
        if q > pair.k or not orbit_meets_point_fiber(lam, pair, q):
            return
        assert orbit_codim_point(lam, pair, q) - orbit_codim(lam, pair) == q * (
            2 * pair.m - q
        )

    @given(pair_with_finite_tail())
    def test_contact_orders_monotone_and_convex(self, data):
        pair, lam = data
        ws = [contact_order_subvariety(lam, pair, i) for i in range(1, pair.k + 1)]
        assert all(a >= b for a, b in zip(ws, ws[1:]))
        diffs = [a - b for a, b in zip(ws, ws[1:])]
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    @given(pair_with_finite_tail())
    def test_nash_is_scaled_first_order(self, data):
        pair, lam = data
        expected = (
            0
            if pair.k == pair.m
            else (pair.m - pair.k) * contact_order_subvariety(lam, pair, 1)
        )
        assert nash_contact_order(lam, pair) == expected
