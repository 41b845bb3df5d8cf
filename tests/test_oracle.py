import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmld import clear_caches, oracle
from detmld.core import (
    INF,
    ExtendedPartition,
    MldValue,
    PreconditionError,
    new_pair,
    new_partition,
)
from detmld.mld import beta_coefficients, mld_at_rank
from detmld.orbits import (
    contact_order_subvariety,
    nash_contact_order,
    orbit_codim,
    orbit_codim_point,
)
from detmld.oracle import (
    ABOVE_TRUNCATION,
    MAX_SERIES_SIZE,
    MAX_TRUNCATION,
    LocusTarget,
    PointTarget,
    compare_with_closed_form,
    discrepancy_objective,
    iter_tails,
    minimize_objective,
    series_minor_order,
)
from detmld.polynomials import MinorIndex, minor_poly, substitute_series


def full_partition(pair, tail):
    """Prepend the INF prefix of length m-k to a finite tail of length k."""
    tail = tuple(tail)
    assert len(tail) == pair.k
    return ExtendedPartition((INF,) * (pair.m - pair.k) + tail)


def naive_tail_count(pair, target, bound):
    """Independent recursive count of admissible nonincreasing tails."""

    def count(remaining, hi, floors):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - 1, v, floors[1:]) for v in range(floors[0], hi + 1)
        )

    k = pair.k
    if isinstance(target, PointTarget):
        free = k - target.q
        return count(free, bound, (1,) * free)
    floors = (1,) * target.j + (0,) * (k - target.j)
    return count(k, bound, floors)


class TestObjective:
    def test_point_value(self):
        pair = new_pair(3, 2, [])
        lam = full_partition(pair, (1, 1))
        assert discrepancy_objective(pair, lam, PointTarget(0)) == 6

    def test_point_value_corner(self):
        pair = new_pair(2, 1, [])
        lam = full_partition(pair, (1,))
        assert discrepancy_objective(pair, lam, PointTarget(0)) == 2

    def test_locus_value(self):
        pair = new_pair(3, 2, [])
        lam = full_partition(pair, (1, 0))
        assert discrepancy_objective(pair, lam, LocusTarget(1)) == 2

    def test_membership_violation_rejected(self):
        pair = new_pair(3, 2, [])
        with pytest.raises(PreconditionError):
            discrepancy_objective(pair, full_partition(pair, (1, 1)), PointTarget(1))

    def test_infinite_entries_rejected(self):
        pair = new_pair(3, 2, [])
        lam = new_partition([INF, INF, 1])
        with pytest.raises(PreconditionError):
            discrepancy_objective(pair, lam, LocusTarget(1))

    @settings(max_examples=80)
    @given(st.data())
    def test_linear_form_decomposition(self, data):
        # the objective equals q(2m-q) + sum(beta_i * tail_i) over the free entries
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, m))
        q = data.draw(st.integers(0, k))
        alphas = [data.draw(st.integers(-4, 8)) * Fraction(1, 4) for _ in range(k)]
        pair = new_pair(m, k, alphas)
        free = sorted(
            (data.draw(st.integers(1, 3)) for _ in range(k - q)), reverse=True
        )
        tail = tuple(free) + (0,) * q
        value = discrepancy_objective(pair, full_partition(pair, tail), PointTarget(q))
        betas = beta_coefficients(pair, k - q)
        linear = q * (2 * m - q) + sum(
            (b * t for b, t in zip(betas, free)), Fraction(0)
        )
        assert value == linear

    @settings(max_examples=80)
    @given(st.data())
    def test_locus_linear_form_decomposition(self, data):
        # for a sublocus target the objective is sum(beta_i * tail_i) over all k entries
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, m))
        j = data.draw(st.integers(1, k))
        alphas = [data.draw(st.integers(-4, 8)) * Fraction(1, 4) for _ in range(k)]
        pair = new_pair(m, k, alphas)
        base = sorted((data.draw(st.integers(0, 3)) for _ in range(k)), reverse=True)
        tail = tuple(max(e, 1) if pos < j else e for pos, e in enumerate(base))
        value = discrepancy_objective(pair, full_partition(pair, tail), LocusTarget(j))
        betas = beta_coefficients(pair, k)
        linear = sum((b * t for b, t in zip(betas, tail)), Fraction(0))
        assert value == linear


@st.composite
def objective_case(draw, max_m=6, max_entry=4):
    """A pair with coefficients in (1/2)Z>=0, a target, and a valid tail for it."""
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, m))
    pair = new_pair(m, k, [Fraction(draw(st.integers(0, 8)), 2) for _ in range(k)])
    if draw(st.booleans()):
        target = PointTarget(draw(st.integers(0, k)))
        free = k - target.q
        floors = (1,) * free + (0,) * target.q
        ceilings = (max_entry,) * free + (0,) * target.q
    else:
        target = LocusTarget(draw(st.integers(1, k)))
        floors = (1,) * target.j + (0,) * (k - target.j)
        ceilings = (max_entry,) * k
    tail = []
    for lo, hi in zip(floors, ceilings):
        hi = min(hi, tail[-1]) if tail else hi
        tail.append(draw(st.integers(lo, hi)))
    return pair, target, tuple(tail)


def checked_objective(pair, lam, target):
    """The objective assembled from the public, individually checked orbit functions."""
    if isinstance(target, PointTarget):
        cod = orbit_codim_point(lam, pair, target.q)
    else:
        cod = orbit_codim(lam, pair)
    weighted = sum(
        (pair.alphas[i - 1] * contact_order_subvariety(lam, pair, i) for i in range(1, pair.k + 1)),
        Fraction(0),
    )
    return cod - nash_contact_order(lam, pair) - weighted


class TestObjectiveChecksOnce:
    """discrepancy_objective checks each orbit once and then evaluates the
    unchecked formula bodies; it must agree with the checked public functions
    and still reject every invalid orbit."""

    @settings(max_examples=150)
    @given(objective_case())
    def test_matches_checked_functions(self, case):
        pair, target, tail = case
        lam = full_partition(pair, tail)
        assert discrepancy_objective(pair, lam, target) == checked_objective(pair, lam, target)

    def test_coprime_denominators(self):
        # the coefficients' common denominator is 3 * 5 * 7 = 105
        pair = new_pair(4, 3, [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)])
        denominators = set()
        for target in (PointTarget(0), PointTarget(1), LocusTarget(1), LocusTarget(3)):
            for tail in iter_tails(pair, target, 3):
                lam = full_partition(pair, tail)
                value = discrepancy_objective(pair, lam, target)
                assert value == checked_objective(pair, lam, target)
                denominators.add(value.denominator)
        assert {15, 21, 35, 105} <= denominators

    @settings(max_examples=60)
    @given(objective_case())
    def test_outside_jet_space_rejected(self, case):
        pair, target, tail = case
        if pair.k == pair.m:
            return  # every orbit lies in the jet space when k = m
        lam = new_partition((tail[0] + 1,) * (pair.m - pair.k) + tail)
        with pytest.raises(PreconditionError, match="does not lie in the jet space"):
            discrepancy_objective(pair, lam, target)

    @settings(max_examples=60)
    @given(objective_case())
    def test_infinite_codim_rejected(self, case):
        pair, target, tail = case
        lam = new_partition((INF,) * (pair.m - pair.k + 1) + tail[1:])
        with pytest.raises(PreconditionError, match="infinite codimension"):
            discrepancy_objective(pair, lam, target)

    @settings(max_examples=60)
    @given(objective_case(), st.data())
    def test_missing_point_fiber_rejected(self, case, data):
        pair, _, _ = case
        k = pair.k
        q = data.draw(st.integers(0, k))
        # a zero inside the first k - q entries, or a nonzero among the last q
        if q < k and (q == 0 or data.draw(st.booleans())):
            tail = (1,) * (k - q - 1) + (0,) * (q + 1)
        else:
            tail = (1,) * (k - q + 1) + (0,) * (q - 1)
        lam = full_partition(pair, tail)
        with pytest.raises(PreconditionError, match="misses the fiber"):
            discrepancy_objective(pair, lam, PointTarget(q))

    @settings(max_examples=60)
    @given(objective_case(), st.data())
    def test_not_centred_on_locus_rejected(self, case, data):
        pair, _, _ = case
        j = data.draw(st.integers(1, pair.k))
        ones = data.draw(st.integers(0, j - 1))
        lam = full_partition(pair, (1,) * ones + (0,) * (pair.k - ones))
        with pytest.raises(PreconditionError, match="not centered"):
            discrepancy_objective(pair, lam, LocusTarget(j))


@st.composite
def small_rational(draw):
    """p/q in [-4, 4] with q in {1, 2, 3, 5, 7}."""
    q = draw(st.sampled_from((1, 2, 3, 5, 7)))
    return Fraction(draw(st.integers(-4 * q, 4 * q)), q)


def reference_search(pair, target, bound):
    """The bounded search redone in Fraction arithmetic from the checked public
    orbit functions, with the prefix-sum certificate taken from the alphas.
    Returns (minimum, argmin, at_boundary, prefix_unbounded)."""
    m, k = pair.m, pair.k
    count = k - target.q if isinstance(target, PointTarget) else k
    prefix = Fraction(0)
    for j in range(1, count + 1):
        prefix += (m - k) + (2 * j - 1) - sum(pair.alphas[:j])
        if prefix < 0:
            return MldValue.NEG_INFINITY, None, False, True
    value, tail = min(
        (checked_objective(pair, full_partition(pair, tail), target), tail)
        for tail in iter_tails(pair, target, bound)
    )
    return MldValue.finite(value), tail, any(v == bound for v in tail[:count]), False


class TestMinimize:
    def test_zero_coefficients(self):
        result = minimize_objective(new_pair(3, 2, []), PointTarget(0), 3)
        assert result.minimum == MldValue.finite(6)
        assert result.argmin == (1, 1)
        assert not result.at_boundary
        assert not result.prefix_unbounded

    def test_analytic_neg_infinity_certificate(self):
        result = minimize_objective(
            new_pair(3, 2, [Fraction(5, 2), 0]), PointTarget(0), 8
        )
        assert result.prefix_unbounded
        assert result.minimum == MldValue.NEG_INFINITY
        assert result.argmin is None

    def test_search_gives_johnsons_lct_at_full_rank(self):
        # At k = m the pair with c on alphas[m - p], the coefficient of
        # D^(p-1), carries the ideal of p-minors, whose log canonical
        # threshold is Johnson's min over 0 <= t < p of (m - t)**2 / (p - t).
        # The search is finite and >= 0 at that c, and certified -inf at
        # c + 1/7, for every 1 <= p <= m <= 7.
        cases = 0
        for m in range(1, 8):
            for p in range(1, m + 1):
                lct = min(Fraction((m - t) ** 2, p - t) for t in range(p))
                for c in (lct, lct + Fraction(1, 7)):
                    alphas = [0] * m
                    alphas[m - p] = c
                    result = minimize_objective(new_pair(m, m, alphas), PointTarget(0), 2)
                    if c == lct:
                        assert result.minimum.is_finite, (m, p)
                        assert result.minimum >= MldValue.finite(0), (m, p)
                        assert not result.prefix_unbounded, (m, p)
                    else:
                        assert result.prefix_unbounded, (m, p)
                        assert result.minimum == MldValue.NEG_INFINITY, (m, p)
                cases += 1
        assert cases == 28

    def test_locus_minimum(self):
        result = minimize_objective(new_pair(2, 1, []), LocusTarget(1), 3)
        assert result.minimum == MldValue.finite(2)
        assert result.argmin == (1,)

    def test_bound_rejected(self):
        with pytest.raises(PreconditionError):
            minimize_objective(new_pair(2, 1, []), PointTarget(0), 0)

    def test_search_size_is_bounded(self, monkeypatch):
        # The tails are counted exactly before the search: (2,1) at a point
        # has L tails, (3,2) along j = 1 has C(L+2, 2) - 1.  The analytic
        # certificate comes first, so an unbounded pair never reaches the guard.
        monkeypatch.setattr(oracle, "MAX_SEARCH_TAILS", 10)
        assert minimize_objective(new_pair(2, 1, []), PointTarget(0), 10).argmin == (1,)
        assert minimize_objective(new_pair(3, 2, []), LocusTarget(1), 3).argmin == (1, 0)
        for pair, target, bound in (
            (new_pair(2, 1, []), PointTarget(0), 11),
            (new_pair(2, 1, []), PointTarget(0), 10**30),
            (new_pair(3, 2, []), LocusTarget(1), 4),
        ):
            with pytest.raises(PreconditionError):
                minimize_objective(pair, target, bound)
        unbounded = new_pair(3, 2, [Fraction(5, 2), 0])
        assert minimize_objective(unbounded, PointTarget(0), 10**30).prefix_unbounded

    def test_boundary_flag(self):
        # with bound 1 the only admissible tail is all ones, which sits on the
        # boundary; the flag marks the minimum as an upper bound only
        result = minimize_objective(new_pair(3, 2, []), PointTarget(0), 1)
        assert result.argmin == (1, 1)
        assert result.at_boundary
        assert result.minimum == MldValue.finite(6)

    def test_diagonal_ties_prefer_small_argmin(self):
        # beta = (1, -1): every diagonal tail ties at 0; report (1, 1)
        pair = new_pair(3, 2, [1, Fraction(4)])
        betas = beta_coefficients(pair, 2)
        assert betas.betas == (1, -1)
        result = minimize_objective(pair, PointTarget(0), 5)
        assert result.minimum == MldValue.finite(0)
        assert result.argmin == (1, 1)
        assert not result.at_boundary

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, m))
        pair = new_pair(m, k, [data.draw(small_rational()) for _ in range(k)])
        if data.draw(st.booleans()):
            target = PointTarget(data.draw(st.integers(0, k)))
        else:
            target = LocusTarget(data.draw(st.integers(1, k)))
        bound = data.draw(st.integers(1, 3))
        result = minimize_objective(pair, target, bound)
        assert (
            result.minimum,
            result.argmin,
            result.at_boundary,
            result.prefix_unbounded,
        ) == reference_search(pair, target, bound)

    @settings(max_examples=40)
    @given(st.data())
    def test_enumeration_count_matches_recursion(self, data):
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, m))
        bound = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            target = PointTarget(data.draw(st.integers(0, k)))
        else:
            target = LocusTarget(data.draw(st.integers(1, k)))
        pair = new_pair(m, k, [])
        tails = list(iter_tails(pair, target, bound))
        assert len(tails) == len(set(tails))
        assert len(tails) == naive_tail_count(pair, target, bound)
        assert len(tails) == oracle._tail_count(pair, target, bound)
        assert tails == sorted(tails, reverse=True)
        for tail in tails:
            assert all(a >= b for a, b in zip(tail, tail[1:]))


@pytest.fixture
def patched_tables():
    """The search tabulates each box once per process, so a test that patches
    a formula body or `iter_tails` calls clear_caches() before each patched
    search; this fixture drops the tables the patched searches built."""
    yield
    clear_caches()


@pytest.mark.usefixtures("patched_tables")
class TestSearchScoresEveryTrustedTail:
    # A pair whose searches to L = 4 agree with the closed form, each with a
    # unique argmin: (1, 0) along j = 1 and (1, 1) at a rank-0 point.
    PAIR = new_pair(3, 2, [Fraction(1, 2), Fraction(1, 3)])
    TARGETS = [(LocusTarget(1), "_codim"), (PointTarget(0), "_codim_point")]

    @pytest.mark.parametrize("k", range(1, 5))
    def test_trusted_partitions_pass_validation(self, k):
        for m in (k, k + 1):
            pair = new_pair(m, k, [])
            targets = [PointTarget(q) for q in range(k + 1)]
            targets += [LocusTarget(j) for j in range(1, k + 1)]
            for target in targets:
                for bound in range(1, 5):
                    for tail in iter_tails(pair, target, bound):
                        entries = (INF,) * (m - k) + tail
                        lam = new_partition(entries)
                        assert lam.entries == entries
                        assert lam == full_partition(pair, tail)

    def _argmin_tail(self, target):
        before = compare_with_closed_form(self.PAIR, target, 4)
        assert before.agree
        return before, before.oracle.argmin

    @pytest.mark.parametrize("target, name", TARGETS)
    def test_codim_of_the_argmin_is_read(self, monkeypatch, target, name):
        before, argmin = self._argmin_tail(target)
        original = getattr(oracle, name)

        def bumped(tail, m, *rest):
            return original(tail, m, *rest) + (tail == argmin)

        monkeypatch.setattr(oracle, name, bumped)
        clear_caches()
        after = compare_with_closed_form(self.PAIR, target, 4)
        assert after.oracle.minimum > before.oracle.minimum
        assert not after.agree

    @pytest.mark.parametrize("target", [target for target, _ in TARGETS])
    def test_contact_orders_of_the_argmin_are_read(self, monkeypatch, target):
        before, argmin = self._argmin_tail(target)
        original = oracle._contact_orders

        def bumped(tail):
            w = original(tail)
            return (w[0] + 1,) + w[1:] if tail == argmin else w

        monkeypatch.setattr(oracle, "_contact_orders", bumped)
        clear_caches()
        after = compare_with_closed_form(self.PAIR, target, 4)
        assert after.oracle.minimum < before.oracle.minimum
        assert not after.agree

    @pytest.mark.parametrize("target", [target for target, _ in TARGETS])
    def test_every_tail_is_scored(self, monkeypatch, target):
        # raising every contact order of one orbit by 100 lowers its value by
        # 100 * (1/2 + 1/3), below every other value in the box
        original = oracle._contact_orders
        for tail in iter_tails(self.PAIR, target, 4):

            def raised(scored, tail=tail):
                w = original(scored)
                return tuple(x + 100 for x in w) if scored == tail else w

            monkeypatch.setattr(oracle, "_contact_orders", raised)
            clear_caches()
            assert minimize_objective(self.PAIR, target, 4).argmin == tail


@pytest.mark.usefixtures("patched_tables")
class TestSearchChecksEveryTail:
    """The search checks the membership of every tail it scores: one bad tail
    slipped among the good ones of `iter_tails`, first, in the middle or
    last, must raise."""

    PAIR = new_pair(4, 3, [])
    CASES = [
        pytest.param(PointTarget(1), (INF, 1, 0), "infinite codimension", id="point_inf_first"),
        pytest.param(LocusTarget(1), (INF, 1, 0), "infinite codimension", id="locus_inf_first"),
        pytest.param(PointTarget(1), (2, 0, 0), "misses the fiber", id="zero_in_free_entries"),
        pytest.param(PointTarget(1), (2, 1, 1), "misses the fiber", id="nonzero_past_free_entries"),
        pytest.param(LocusTarget(2), (2, 0, 0), "not centered", id="zero_at_locus_entry_j"),
        pytest.param(PointTarget(0), (1, 1), "has length 3, expected m=4", id="short_tail"),
    ]

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("target, bad, match", CASES)
    def test_a_bad_tail_raises(self, monkeypatch, target, bad, match, position):
        expected = minimize_objective(self.PAIR, target, 3)
        good = list(iter_tails(self.PAIR, target, 3))
        at = {"first": 0, "middle": len(good) // 2, "last": len(good)}[position]
        tails = good  # the patched enumeration reads `tails` when it is called
        monkeypatch.setattr(oracle, "iter_tails", lambda pair, target, bound: iter(tails))
        clear_caches()
        assert minimize_objective(self.PAIR, target, 3) == expected
        tails = good[:at] + [bad] + good[at:]
        clear_caches()
        with pytest.raises(PreconditionError, match=match) as raised:
            minimize_objective(self.PAIR, target, 3)
        if len(bad) == self.PAIR.k:
            assert str((INF,) + bad) in str(raised.value)


def _boxes(max_m, max_bound):
    """Every search box (pair with no coefficients, target, bound) with
    m <= max_m and bound <= max_bound."""
    for m in range(1, max_m + 1):
        for k in range(1, m + 1):
            pair = new_pair(m, k, [])
            targets = [PointTarget(q) for q in range(k + 1)]
            targets += [LocusTarget(j) for j in range(1, k + 1)]
            for target in targets:
                for bound in range(1, max_bound + 1):
                    yield pair, target, bound


# Coefficient vectors of every sign pattern; the first is the zero vector,
# the last makes some beta prefix sums negative at k >= 2.
_ALPHAS = ((), (Fraction(1, 2), Fraction(1, 3), 0), (-1, Fraction(5, 2), Fraction(-2, 7)),
           (Fraction(7, 3), Fraction(-1, 5), 1), (Fraction(5, 2), 0, 0))


@pytest.mark.usefixtures("patched_tables")
class TestSearchTables:
    """Each box is tabulated once per process; a warm search must equal a
    cold one, whatever coefficients the table was first built for."""

    def test_warm_search_equals_cold_search(self):
        searched = 0
        for pair, target, bound in _boxes(3, 4):
            pairs = [new_pair(pair.m, pair.k, alphas[:pair.k]) for alphas in _ALPHAS]
            cold = []
            for each in pairs:
                clear_caches()
                cold.append(minimize_objective(each, target, bound))
            clear_caches()
            warm = [minimize_objective(each, target, bound) for each in pairs]
            assert warm == cold, (pair, target, bound)
            assert warm == [minimize_objective(each, target, bound) for each in reversed(pairs)][::-1]
            for each, result in zip(pairs, warm):
                assert (
                    result.minimum, result.argmin, result.at_boundary, result.prefix_unbounded
                ) == reference_search(each, target, bound)
            searched += sum(not result.prefix_unbounded for result in warm)
        assert searched > 300

    def test_the_table_is_keyed_by_box(self):
        clear_caches()
        minimize_objective(new_pair(3, 2, [1]), LocusTarget(1), 3)
        minimize_objective(new_pair(3, 2, [Fraction(1, 2)]), LocusTarget(1), 3)
        minimize_objective(new_pair(3, 2, []), PointTarget(1), 3)
        minimize_objective(new_pair(4, 2, []), PointTarget(1), 3)
        minimize_objective(new_pair(4, 2, []), PointTarget(1), 2)
        box = (3, 2, LocusTarget(1), 3)
        assert set(oracle._TAIL_TABLE_CACHE) == {
            box, (3, 2, PointTarget(1), 3), (4, 2, PointTarget(1), 3), (4, 2, PointTarget(1), 2)
        }
        table = oracle._TAIL_TABLE_CACHE[box]
        pair = new_pair(3, 2, [])
        assert [tail for tail, _, _ in table] == list(iter_tails(pair, LocusTarget(1), 3))
        for tail, base, orders in table:
            lam = full_partition(pair, tail)
            assert base == orbit_codim(lam, pair) - nash_contact_order(lam, pair)
            assert orders == tuple(contact_order_subvariety(lam, pair, i) for i in (1, 2))

    def test_an_unbounded_pair_builds_no_table(self):
        clear_caches()
        assert minimize_objective(new_pair(3, 2, [Fraction(5, 2), 0]), PointTarget(0), 8).prefix_unbounded
        assert not oracle._TAIL_TABLE_CACHE

    def test_a_second_search_calls_no_formula_body(self, monkeypatch):
        calls = []
        for name in ("iter_tails", "_require_member", "_codim", "_codim_point",
                     "_nash_contact_order", "_contact_orders"):
            original = getattr(oracle, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(oracle, name, counted)
        clear_caches()
        for target in (PointTarget(1), LocusTarget(2)):
            first = minimize_objective(new_pair(4, 3, [1, Fraction(1, 3)]), target, 4)
            assert {"iter_tails", "_require_member", "_nash_contact_order", "_contact_orders"} <= set(calls)
            calls.clear()
            second = minimize_objective(new_pair(4, 3, [Fraction(-1, 2), 2]), target, 4)
            again = minimize_objective(new_pair(4, 3, [1, Fraction(1, 3)]), target, 4)
            assert calls == []
            assert again == first and second != first
            clear_caches()
            assert minimize_objective(new_pair(4, 3, [Fraction(-1, 2), 2]), target, 4) == second


class TestComparison:
    def test_agreement(self):
        comp = compare_with_closed_form(new_pair(4, 2, []), PointTarget(1), 3)
        assert comp.closed_form == MldValue.finite(10)
        assert comp.oracle.minimum == MldValue.finite(10)
        assert comp.agree

    def test_documented_divergence(self):
        pair = new_pair(3, 2, [1, Fraction(7, 2)])
        comp = compare_with_closed_form(pair, PointTarget(0), 6)
        assert comp.closed_form == MldValue.NEG_INFINITY
        assert comp.oracle.minimum == MldValue.finite(Fraction(1, 2))
        assert comp.oracle.argmin == (1, 1)
        assert not comp.oracle.at_boundary
        assert not comp.agree

    def test_divergence_characterisation(self):
        # Exhaustive over m <= 3, alpha in {0, 1/2, ..., 4}^k, every point and
        # locus target, bound 6: the search and the closed form disagree
        # exactly when some beta is negative while every beta prefix sum stays
        # nonnegative.  At a point the search then returns the closed-form
        # expression without its lc gate.
        grid = [Fraction(i, 2) for i in range(9)]
        cases = divergent = divergent_points = 0
        for m in range(1, 4):
            for k in range(1, m + 1):
                targets = [PointTarget(q) for q in range(k + 1)]
                targets += [LocusTarget(j) for j in range(1, k + 1)]
                for alphas in product(grid, repeat=k):
                    pair = new_pair(m, k, alphas)
                    for target in targets:
                        cases += 1
                        comp = compare_with_closed_form(pair, target, 6)
                        point = isinstance(target, PointTarget)
                        betas = beta_coefficients(pair, k - target.q if point else k)
                        gap = any(b < 0 for b in betas) and all(
                            s >= 0 for s in betas.prefix_sums()
                        )
                        assert comp.agree != gap, (m, k, alphas, target)
                        if comp.agree:
                            continue
                        divergent += 1
                        if point:
                            divergent_points += 1
                            q = target.q
                            ungated = q * (m - k) + k * m - sum(
                                (k - q - i + 1) * alphas[i - 1] for i in range(1, k - q + 1)
                            )
                            assert comp.oracle.minimum == MldValue.finite(ungated), (
                                m, k, alphas, target,
                            )
        assert (cases, divergent, divergent_points) == (5994, 168, 64)

    def test_smooth_ambient(self):
        comp = compare_with_closed_form(new_pair(2, 2, []), PointTarget(0), 2)
        assert comp.closed_form == MldValue.finite(4)
        assert comp.agree

    def test_closed_form_sweep_zero_alpha(self):
        # all beta are positive when alpha = 0, so the all-ones tail is optimal
        for m in range(1, 7):
            for k in range(1, m + 1):
                pair = new_pair(m, k, [])
                for q in range(0, k + 1):
                    comp = compare_with_closed_form(pair, PointTarget(q), 2)
                    assert comp.agree, (m, k, q)
                    assert comp.closed_form == mld_at_rank(pair, q)


class TestSeriesOracle:
    def test_full_minor(self):
        assert series_minor_order((2, 1), 2, 2, 10) == 3

    def test_entry_minor(self):
        assert series_minor_order((2, 1), 2, 1, 10) == 1

    def test_unit_minors(self):
        assert series_minor_order((0, 0, 0), 3, 2, 5) == 0

    def test_above_truncation(self):
        # exponents N+1 stand for infinite entries
        assert series_minor_order((7, 1), 2, 2, 6) is ABOVE_TRUNCATION

    def test_above_truncation_survives_copy_and_pickle(self):
        assert copy.copy(ABOVE_TRUNCATION) is ABOVE_TRUNCATION
        assert copy.deepcopy(ABOVE_TRUNCATION) is ABOVE_TRUNCATION
        assert pickle.loads(pickle.dumps(ABOVE_TRUNCATION)) is ABOVE_TRUNCATION

    def test_invalid_size_rejected(self):
        with pytest.raises(PreconditionError):
            series_minor_order((1, 1), 2, 3, 10)

    def test_truncation_below_sum_rejected(self):
        with pytest.raises(PreconditionError):
            series_minor_order((3, 2), 2, 2, 4)

    def test_conjugation_invariance(self):
        lam = (3, 2, 1)
        N = 6
        base = series_minor_order(lam, 3, 2, N)
        assert base == 3
        for seed in range(5):
            assert series_minor_order(lam, 3, 2, N, seed=seed) == base

    def test_matches_contact_order(self):
        # agrees with the partition-arithmetic contact order (sum of the s
        # smallest exponents), for a sample of partitions
        from detmld.orbits import contact_order_subvariety

        m = 3
        for entries in ((3, 1, 0), (2, 2, 2), (3, 3, 0), (1, 0, 0)):
            N = max(sum(entries), 1)
            lam = new_partition(entries)
            pair = new_pair(m, m, [])
            for s in range(1, m + 1):
                expected = contact_order_subvariety(lam, pair, m - s + 1)
                assert series_minor_order(entries, m, s, N) == expected

    def test_matches_contact_order_with_infinite_entries(self):
        # exhaustive over {INF, 3..0}-partitions: infinite contact orders
        # correspond exactly to orders above the truncation (INF entries are
        # passed to the series oracle as exponent N+1)
        from detmld.orbits import contact_order_subvariety

        for m in (2, 3):
            pair = new_pair(m, m, [])
            for entries in combinations_with_replacement((INF, 3, 2, 1, 0), m):
                lam = new_partition(entries)
                finite_sum = sum(e for e in entries if e is not INF)
                truncation = max(finite_sum, 1)
                padded = tuple(
                    truncation + 1 if e is INF else e for e in entries
                )
                for s in range(1, m + 1):
                    expected = contact_order_subvariety(lam, pair, m - s + 1)
                    got = series_minor_order(padded, m, s, truncation)
                    if expected is INF:
                        assert got is ABOVE_TRUNCATION, (entries, s)
                    else:
                        assert got == expected, (entries, s)


def minor_by_minor_order(exponents, m, size, truncation, seed=None):
    """The series oracle's previous route: every size x size minor as a
    Leibniz polynomial, evaluated on the (conjugated) series matrix."""
    assignment = [[[0] * (truncation + 1) for _ in range(m)] for _ in range(m)]
    if seed is None:
        for i, e in enumerate(exponents):
            if e <= truncation:
                assignment[i][i][e] = 1
    else:
        rng = random.Random(seed)
        left = oracle._random_invertible(m, rng)
        right = oracle._random_invertible(m, rng)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if exponents[c] <= truncation:
                        assignment[a][b][exponents[c]] += left[a][c] * right[c][b]
    orders = []
    for rows in combinations(range(1, m + 1), size):
        for cols in combinations(range(1, m + 1), size):
            poly = minor_poly(MinorIndex(rows, cols), m)
            series = substitute_series(poly, assignment, truncation)
            order = next((i for i, c in enumerate(series) if c), None)
            if order is not None:
                orders.append(order)
    return min(orders) if orders else ABOVE_TRUNCATION


def _partitions(m, top):
    return [tuple(sorted(e, reverse=True)) for e in combinations_with_replacement(range(top + 1), m)]


class TestSeriesExpansionMatchesMinorByMinor:
    """The row-by-row expansion against the minor-by-minor evaluation."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_grid(self, m):
        for entries in _partitions(m, 3):
            truncation = max(sum(entries), 1)
            for size in range(1, m + 1):
                for seed in (None, 0, 1, 2):
                    expected = minor_by_minor_order(entries, m, size, truncation, seed)
                    got = series_minor_order(entries, m, size, truncation, seed=seed)
                    assert got == expected, (entries, size, seed)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_grid_with_one_entry_above_truncation(self, m):
        for rest in _partitions(m - 1, 3):
            truncation = max(sum(rest), 1)
            entries = (truncation + 1,) + rest
            for size in range(1, m + 1):
                for seed in (None, 0, 1, 2):
                    expected = minor_by_minor_order(entries, m, size, truncation, seed)
                    got = series_minor_order(entries, m, size, truncation, seed=seed)
                    assert got == expected, (entries, size, seed)

    def test_random_size_five(self):
        rng = random.Random(5)
        for _ in range(40):
            entries = tuple(sorted((rng.randint(0, 4) for _ in range(5)), reverse=True))
            truncation = sum(entries) + rng.randint(0, 2)
            size = rng.randint(1, 5)
            expected = minor_by_minor_order(entries, 5, size, truncation)
            assert series_minor_order(entries, 5, size, truncation) == expected, (entries, size)


def unpack(packed, bits, count):
    """The count coefficients of a packed series, each read from its bit
    field as a balanced digit in [-2**(bits-1), 2**(bits-1))."""
    coeffs = []
    for _ in range(count):
        digit = packed & ((1 << bits) - 1)
        if digit >= 1 << (bits - 1):
            digit -= 1 << bits
        coeffs.append(digit)
        packed = (packed - digit) >> bits
    assert packed == 0, "bits left above the truncation"
    return coeffs


def reference_minors(rows, m, size, truncation):
    """{(rows, column mask): (order, coefficients)} of every nonzero size x size
    minor of the series matrix given as `_series_rows` rows, each minor a
    Leibniz polynomial evaluated by `substitute_series`."""
    assignment = [[[0] * (truncation + 1) for _ in range(m)] for _ in range(m)]
    for a, row in enumerate(rows):
        for b, terms in row:
            for e, x in terms:
                assignment[a][b][e] += x
    minors = {}
    for rs in combinations(range(m), size):
        for cs in combinations(range(m), size):
            index = MinorIndex(tuple(r + 1 for r in rs), tuple(c + 1 for c in cs))
            series = substitute_series(minor_poly(index, m), assignment, truncation)
            assert all(c.denominator == 1 for c in series)
            coeffs = [int(c) for c in series]
            if any(coeffs):
                order = next(i for i, c in enumerate(coeffs) if c)
                minors[rs, sum(1 << c for c in cs)] = (order, coeffs)
    return minors


def unpacked_minors(rows, m, size, truncation):
    """The packed kernel's minors in the form of `reference_minors`."""
    bits, level = oracle._packed_minors(rows, m, size, truncation)
    return {
        (rs, cols): (order, unpack(packed, bits, truncation + 1))
        for rs, minors in level.items()
        for cols, (order, packed) in minors.items()
    }


def rows_of(matrix):
    """`_series_rows` rows of a matrix of coefficient lists."""
    return [
        [(b, tuple((e, x) for e, x in enumerate(entry) if x)) for b, entry in enumerate(row) if any(entry)]
        for row in matrix
    ]


class TestPackedSeries:
    """The packed kernel keeps every minor as its exact truncated series."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_minor_is_its_truncated_series(self, m):
        for entries in _partitions(m, 2) + [(3,) + (0,) * (m - 1)]:
            truncation = max(sum(entries), 1)
            for seed in (None, 0, 1):
                rows = oracle._series_rows(entries, m, truncation, seed)
                for size in range(1, m + 1):
                    expected = reference_minors(rows, m, size, truncation)
                    assert unpacked_minors(rows, m, size, truncation) == expected, (entries, size, seed)

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            # (1 + t) * 1 - 1 * 1 = t: the constant terms cancel
            pytest.param([[[1, 1], [1]], [[1], [1]]], [0, 1], id="cancelling_constant"),
            # 1 * 1 - (1 + t) * 1 = -t
            pytest.param([[[1], [1, 1]], [[1], [1]]], [0, -1], id="negative_after_cancelling"),
            # (1 - t)(1 + t) - 1 = -t**2, negative in the top field
            pytest.param([[[1, -1], [1]], [[1], [1, 1, 0]]], [0, 0, -1], id="negative_top_field"),
            # (2 - t)(2 + t) - 4 * 1 = -t**2: the largest coefficients cancel
            pytest.param([[[2, -1], [4]], [[1], [2, 1, 0]]], [0, 0, -1], id="largest_cancel"),
            # proportional rows: every coefficient cancels
            pytest.param([[[1, -1, 1], [1, -1, 1]], [[-2, 2, -2], [-2, 2, -2]]], None, id="all_cancel"),
            # row operations leave diag(t, 1, -t**3): -t**4, the first four fields cancel
            pytest.param(
                [[[1, 1], [1], [1]], [[1], [1], [1]], [[1], [1], [1, 0, 0, -1, 0]]],
                [0, 0, 0, 0, -1],
                id="size_three",
            ),
        ],
    )
    def test_negative_and_cancelling_low_coefficients(self, matrix, expected):
        m = len(matrix)
        truncation = max(len(entry) for row in matrix for entry in row) - 1
        padded = [[entry + [0] * (truncation + 1 - len(entry)) for entry in row] for row in matrix]
        rows = rows_of(padded)
        got = unpacked_minors(rows, m, m, truncation)
        assert got == reference_minors(rows, m, m, truncation)
        if expected is None:
            assert got == {}
        else:
            order = next(i for i, c in enumerate(expected) if c)
            assert got == {(tuple(range(m)), (1 << m) - 1): (order, expected)}

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_integer_matrices(self, m):
        rng = random.Random(40 + m)
        for _ in range(25):
            truncation = rng.randint(0, 4)
            top = rng.choice((1, 3, 40))
            matrix = [
                [[rng.randint(-top, top) if rng.random() < 0.6 else 0 for _ in range(truncation + 1)]
                 for _ in range(m)]
                for _ in range(m)
            ]
            rows = rows_of(matrix)
            for size in range(1, m + 1):
                assert unpacked_minors(rows, m, size, truncation) == reference_minors(
                    rows, m, size, truncation
                ), (matrix, size)

    @pytest.mark.parametrize(
        "m, sizes",
        [(5, range(1, 6)), (6, range(1, 7)), (7, (1, 2, 3, 7)), (8, (1, 2))],
    )
    def test_seeded_large_matrices_match_minor_by_minor(self, m, sizes):
        rng = random.Random(m)
        for _ in range(2):
            entries = tuple(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True))
            truncation = sum(entries) + rng.randint(0, 1)
            seed = rng.randrange(1000)
            for size in sizes:
                expected = minor_by_minor_order(entries, m, size, truncation, seed)
                assert series_minor_order(entries, m, size, truncation, seed=seed) == expected
                assert expected == sum(sorted(entries)[:size])

    def test_widest_packing_matches_unseeded(self):
        # (8, s, 64) with seeds: the widest fields and the longest series the
        # bounds allow; the order is invariant under the conjugation
        exponents = (7, 6, 5, 4, 3, 2, 1, 0)
        for size in range(1, 9):
            expected = series_minor_order(exponents, 8, size, MAX_TRUNCATION)
            assert expected == sum(range(size))
            for seed in (0, 7, 11):
                assert series_minor_order(exponents, 8, size, MAX_TRUNCATION, seed=seed) == expected
        infinite = (MAX_TRUNCATION + 1,) + exponents[1:]
        for seed in (None, 7):
            assert series_minor_order(infinite, 8, 7, MAX_TRUNCATION, seed=seed) == 21
            assert series_minor_order(infinite, 8, 8, MAX_TRUNCATION, seed=seed) is ABOVE_TRUNCATION


def laplace_det(mat):
    """The determinant by recursive Laplace expansion along the first row:
    the reference for the series oracle's elimination."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** c * mat[0][c] * laplace_det([row[:c] + row[c + 1:] for row in mat[1:]])
        for c in range(len(mat))
    )


def laplace_random_invertible(m, rng):
    """The series oracle's matrix draw, tested with the Laplace determinant."""
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if laplace_det(mat) != 0:
            return mat


def singular_variants(mat, rng):
    """Copies of mat with a repeated row, a zero column, and a row that is
    the sum of two others."""
    m = len(mat)
    out = []
    if m >= 2:
        a, b = rng.sample(range(m), 2)
        repeated = [list(row) for row in mat]
        repeated[b] = list(mat[a])
        out.append(repeated)
    c = rng.randrange(m)
    out.append([row[:c] + [0] + row[c + 1:] for row in mat])
    if m >= 3:
        a, b, t = rng.sample(range(m), 3)
        summed = [list(row) for row in mat]
        summed[t] = [x + y for x, y in zip(mat[a], mat[b])]
        out.append(summed)
    return out


class TestIntegerDeterminant:
    """The elimination determinant against the Laplace expansion."""

    def test_small_cases(self):
        assert oracle._int_det([[5]]) == 5
        assert oracle._int_det([[0, 1], [1, 0]]) == -1
        assert oracle._int_det([[0, 0], [1, 2]]) == 0
        assert oracle._int_det([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_laplace_on_seeded_matrices(self, m):
        rng = random.Random(m)
        singular = 0
        for _ in range(60):
            # a small entry range makes zero pivots, and so row swaps, common
            mat = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
            for case in [mat] + singular_variants(mat, rng):
                before = [list(row) for row in case]
                assert oracle._int_det(case) == laplace_det(case), case
                assert case == before
                singular += laplace_det(case) == 0
        assert singular >= 60

    @pytest.mark.parametrize("m", range(1, 7))
    def test_random_invertible_draws_are_unchanged(self, m):
        for seed in range(10):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert oracle._random_invertible(m, rng) == laplace_random_invertible(m, reference)
            assert rng.getstate() == reference.getstate()

    def test_seeded_size_eight_matches_unseeded(self):
        exponents = (3, 2, 2, 1, 1, 1, 1, 0)
        for size, expected in ((1, 0), (2, 1), (8, 11)):
            assert series_minor_order(exponents, 8, size, 12) == expected
            for seed in (0, 7):
                assert series_minor_order(exponents, 8, size, 12, seed=seed) == expected


class TestSeriesBounds:
    def test_largest_accepted_size_and_truncation(self):
        m = MAX_SERIES_SIZE
        assert series_minor_order((0,) * m, m, m // 2, MAX_TRUNCATION) == 0

    def test_size_above_bound_rejected(self):
        m = MAX_SERIES_SIZE + 1
        with pytest.raises(PreconditionError, match="exceeds the supported"):
            series_minor_order((0,) * m, m, 1, 1)

    @pytest.mark.parametrize("truncation", [MAX_TRUNCATION + 1, 10**20])
    def test_truncation_above_bound_rejected(self, truncation):
        with pytest.raises(PreconditionError, match="exceeds the supported"):
            series_minor_order((1,), 1, 1, truncation)

    @pytest.mark.parametrize("exponents", [(3, 2), (3, 2, 1, 0)])
    def test_one_exponent_per_row(self, exponents):
        message = f"need m=3 exponents, got {len(exponents)}"
        with pytest.raises(PreconditionError, match=message):
            series_minor_order(exponents, 3, 1, 6)


_PAIR = new_pair(3, 2, (0, 0))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: minimize_objective(_PAIR, PointTarget(3), 2), id="q_above_k"),
        pytest.param(lambda: minimize_objective(_PAIR, LocusTarget(0), 2), id="j_below_1"),
        pytest.param(lambda: oracle._validate_target(_PAIR, "point"), id="unknown_target"),
        pytest.param(lambda: list(iter_tails(_PAIR, PointTarget(0), 0)), id="tail_bound_below_1"),
        pytest.param(lambda: series_minor_order((0, 0), 2, 1, -1), id="truncation_below_0"),
    ],
)
def test_preconditions_raise(call):
    with pytest.raises(PreconditionError):
        call()
