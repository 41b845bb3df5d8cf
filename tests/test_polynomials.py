import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmld.core import PreconditionError
from detmld.polynomials import (
    MinorIndex,
    MultiPoly,
    minor_poly,
    substitute_series,
)


def x(m, i, j):
    return MultiPoly.variable(m, i, j)


def leibniz_minor(rows, cols, m):
    """The determinant by direct permutation expansion, through MultiPoly products."""
    total = MultiPoly.zero(m)
    n = len(rows)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = MultiPoly.one(m)
        for a in range(n):
            term = term * x(m, rows[a], cols[perm[a]])
        total = total + (term if sign > 0 else -term)
    return total


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


class TestArithmetic:
    def test_difference_of_squares(self):
        m = 2
        p = (x(m, 1, 1) + x(m, 1, 2)) * (x(m, 1, 1) - x(m, 1, 2))
        assert p == x(m, 1, 1) * x(m, 1, 1) - x(m, 1, 2) * x(m, 1, 2)

    def test_additive_identity(self):
        m = 2
        p = x(m, 1, 1) * x(m, 2, 2) - 3 * x(m, 2, 1)
        assert p + MultiPoly.zero(m) == p

    def test_truth_value(self):
        assert not MultiPoly.zero(2) and not bool(x(2, 1, 1) - x(2, 1, 1))
        assert x(2, 1, 1) and MultiPoly.one(1)

    def test_add_int(self):
        m = 2
        assert x(m, 1, 1) + 3 == x(m, 1, 1) + MultiPoly.constant(m, 3)
        assert 3 + x(m, 1, 1) == x(m, 1, 1) + 3
        assert (x(m, 1, 1) + 0).terms == x(m, 1, 1).terms
        assert (MultiPoly.one(m) + -1).is_zero

    def test_repr(self):
        assert repr(MultiPoly.zero(2)) == "0"
        assert repr(MultiPoly.one(2) * 0) == "0"
        assert repr(x(2, 1, 2) * Fraction(-1, 2)) == "(-1/2)*x12"

    @pytest.mark.parametrize("other", [None, "x", 1.5])
    def test_foreign_operands_are_not_implemented(self, other):
        p = x(2, 1, 1)
        assert p.__eq__(other) is NotImplemented
        assert p.__add__(other) is NotImplemented
        assert p.__mul__(other) is NotImplemented
        assert p != other
        for op in (lambda: p + other, lambda: other + p, lambda: p * other, lambda: other * p):
            with pytest.raises(TypeError):
                op()

    def test_pow(self):
        m = 2
        assert x(m, 1, 1) ** 3 == x(m, 1, 1) * x(m, 1, 1) * x(m, 1, 1)
        assert x(m, 1, 1) ** 0 == MultiPoly.one(m)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            x(2, 1, 1) * x(3, 1, 1)

    def test_homogeneous_degree(self):
        m = 2
        assert (x(m, 1, 1) * x(m, 2, 2)).homogeneous_degree() == 2
        assert (x(m, 1, 1) + MultiPoly.one(m)).homogeneous_degree() is None

    def test_json_roundtrip(self):
        m = 3
        p = minor_poly(MinorIndex((1, 2), (2, 3)), m) * Fraction(5, 3)
        assert MultiPoly.from_json(m, p.to_json()) == p

    def test_partial_derivative(self):
        m = 2
        p = x(m, 1, 1) * x(m, 1, 1) * x(m, 2, 2) + 3 * x(m, 1, 2)
        assert p.partial(1, 1) == 2 * (x(m, 1, 1) * x(m, 2, 2))
        assert p.partial(1, 2) == MultiPoly.constant(m, 3)
        assert p.partial(2, 1).is_zero

    def test_evaluate(self):
        m = 2
        det = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        assert det.evaluate([1, 2, 3, 4]) == 1 * 4 - 2 * 3
        assert det.evaluate([Fraction(1, 2), 0, 0, 2]) == 1

    def test_evaluate_wrong_arity_rejected(self):
        with pytest.raises(PreconditionError):
            MultiPoly.one(2).evaluate([1, 2, 3])


class TestMinors:
    def test_two_by_two(self):
        m = 2
        expected = x(m, 1, 1) * x(m, 2, 2) - x(m, 1, 2) * x(m, 2, 1)
        assert minor_poly(MinorIndex((1, 2), (1, 2)), m) == expected

    def test_one_by_one(self):
        assert minor_poly(MinorIndex((1,), (3,)), 3) == x(3, 1, 3)

    def test_three_by_three_signs(self):
        m = 3
        det = minor_poly(MinorIndex((1, 2, 3), (1, 2, 3)), m)
        assert len(det.terms) == 6
        assert sorted(det.terms.values()) == [-1, -1, -1, 1, 1, 1]
        assert det == leibniz_minor((1, 2, 3), (1, 2, 3), m)

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            minor_poly(MinorIndex((1, 4), (1, 2)), 3)

    def test_nonsquare_rejected(self):
        with pytest.raises(PreconditionError):
            MinorIndex((1, 2), (1,))

    def test_cofactor_consistency(self):
        # against the permutation expansion through MultiPoly products, all sizes
        # <= 4 in m = 4; the library expands minors the same way, so the
        # independent oracle is the elimination test below
        m = 4
        for size in range(1, 5):
            for rows in combinations(range(1, 5), size):
                for cols in combinations(range(1, 5), size):
                    assert minor_poly(MinorIndex(rows, cols), m) == leibniz_minor(
                        rows, cols, m
                    )


def elimination_determinant(matrix):
    """Independent oracle: the determinant by exact Fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


class TestMinorsAgainstElimination:
    def test_every_minor_up_to_m5_at_random_points(self):
        rng = random.Random(4)
        for m in range(1, 6):
            points = [[rng.randint(-9, 9) for _ in range(m * m)] for _ in range(3)]
            for size in range(1, m + 1):
                for rows in combinations(range(1, m + 1), size):
                    for cols in combinations(range(1, m + 1), size):
                        poly = minor_poly(MinorIndex(rows, cols), m)
                        for point in points:
                            sub = [[point[(i - 1) * m + j - 1] for j in cols] for i in rows]
                            assert poly.evaluate(point) == elimination_determinant(sub)


def naive_product(p, q):
    """Independent oracle: pairwise Fraction products, summed term by term."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, Fraction(0)) + c1 * c2
    return {exp: c for exp, c in out.items() if c != 0}


_coefficients = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
_exponents = st.tuples(*[st.integers(0, 2)] * 4)
polys_m2 = st.one_of(
    st.just(MultiPoly.zero(2)),
    _coefficients.map(lambda c: MultiPoly.constant(2, c)),
    st.dictionaries(_exponents, _coefficients, max_size=6).map(lambda t: MultiPoly(2, t)),
)


class TestProductAgainstNaive:
    @given(polys_m2, polys_m2)
    def test_matches_naive_product(self, p, q):
        product = p * q
        assert product.terms == naive_product(p, q)
        assert all(isinstance(c, Fraction) and c != 0 for c in product.terms.values())

    @given(polys_m2, polys_m2)
    def test_cancelling_cross_terms(self, p, q):
        # (p + q)(p - q): the cross terms p*q and q*p cancel inside the product.
        f, g = p + q, p - q
        assert (f * g).terms == naive_product(f, g)
        assert f * g == p * p - q * q


def monomial(order, truncation):
    """Coefficient list of t**order mod t**(truncation + 1)."""
    coeffs = [0] * (truncation + 1)
    coeffs[order] = 1
    return coeffs


class TestSeries:
    def test_substitute_diagonal_det(self):
        m, N = 2, 10
        det = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        diag = [[monomial(2, N), [0] * (N + 1)], [[0] * (N + 1), monomial(1, N)]]
        result = substitute_series(det, diag, N)
        assert result == monomial(3, N)
        assert all(isinstance(c, Fraction) for c in result)

    def test_substitute_off_diagonal_zero(self):
        m, N = 2, 10
        diag = [[monomial(2, N), [0] * (N + 1)], [[0] * (N + 1), monomial(1, N)]]
        assert not any(substitute_series(x(m, 1, 2), diag, N))

    def test_substitute_cancellation(self):
        # det of [[t, 1], [t^2, t]] is t^2 - t^2 = 0
        m, N = 2, 8
        det = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        mat = [[monomial(1, N), monomial(0, N)], [monomial(2, N), monomial(1, N)]]
        assert not any(substitute_series(det, mat, N))

    def test_truncation_mismatch_rejected(self):
        m, N = 2, 5
        mat = [[monomial(1, N), monomial(0, N)], [monomial(2, N), monomial(1, N + 1)]]
        with pytest.raises(PreconditionError):
            substitute_series(x(m, 1, 1), mat, N)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            substitute_series(x(2, 1, 1), [[monomial(0, 3)] * 2], 3)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    def test_order_multiplicative_below_truncation(self, a, b):
        # x11 * x22 on diag(a, b) is the product of the two series
        N = 16
        sa = a + [0] * (N + 1 - len(a))
        sb = b + [0] * (N + 1 - len(b))
        zero = [0] * (N + 1)
        product = substitute_series(x(2, 1, 1) * x(2, 2, 2), [[sa, zero], [zero, sb]], N)
        oa, ob, op = (next((i for i, c in enumerate(s) if c), None) for s in (sa, sb, product))
        if oa is None or ob is None or oa + ob > N:
            return
        assert op == oa + ob


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: MultiPoly.variable(2, 3, 1), id="var_index_outside_the_matrix"),
        pytest.param(lambda: MultiPoly(2, {(1, 0, 0): 1}), id="exponent_length"),
        pytest.param(lambda: MultiPoly(2, {(-1, 0, 0, 0): 1}), id="exponent_negative"),
        pytest.param(lambda: MultiPoly(2, {(1.0, 0, 0, 0): 1}), id="exponent_float"),
        pytest.param(lambda: MultiPoly(2, {("1", 0, 0, 0): 1}), id="exponent_str"),
        pytest.param(lambda: MultiPoly(2, {(True, 0, 0, 0): 1}), id="exponent_bool"),
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [0, 0, 0, -2], "coef": "1"}]),
            id="from_json_exponent_negative",
        ),
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [True, 0, 0, 0], "coef": "1"}]),
            id="from_json_exponent_bool",
        ),
        # A malformed item is rejected before any dict is built from it.
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [[0], 0, 0, 0], "coef": "1"}]),
            id="from_json_exponent_nested",
        ),
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": 5, "coef": "1"}]), id="from_json_exponent_int"
        ),
        pytest.param(lambda: MultiPoly.from_json(2, [[0, 0, 0, 0]]), id="from_json_item_list"),
        pytest.param(lambda: MultiPoly.from_json(2, ["1"]), id="from_json_item_str"),
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [0, 0, 0, 0]}]), id="from_json_missing_coef"
        ),
        # a coefficient is p or p/q, never a decimal or an exponent
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [0, 0, 0, 0], "coef": "0.5"}]),
            id="from_json_decimal_coef",
        ),
        pytest.param(
            lambda: MultiPoly.from_json(2, [{"exp": [0, 0, 0, 0], "coef": "1e2"}]),
            id="from_json_exponent_coef",
        ),
        pytest.param(lambda: MultiPoly.one(2) ** -1, id="negative_power"),
        pytest.param(lambda: MultiPoly.one(2) ** True, id="bool_power"),
        pytest.param(lambda: MultiPoly.variable(2, 1.0, 1), id="variable_float_index"),
        pytest.param(lambda: MultiPoly.one(2).partial(1, True), id="partial_bool_index"),
        pytest.param(lambda: MinorIndex((1, 2), (1,)), id="minor_not_square"),
        pytest.param(lambda: MinorIndex((1, 1), (1, 2)), id="minor_repeated_index"),
        pytest.param(lambda: MinorIndex((0, 1), (1, 2)), id="minor_index_below_1"),
        pytest.param(lambda: minor_poly(MinorIndex((), ()), 2), id="empty_minor"),
    ],
)
def test_preconditions_raise(call):
    with pytest.raises(PreconditionError):
        call()
