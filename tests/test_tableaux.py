import gc
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from detmld import clear_caches, tableaux
from detmld.core import PreconditionError
from detmld.polynomials import MinorIndex, MultiPoly, minor_poly
from detmld.tableaux import (
    DoubleTableau,
    StandardExpansion,
    Tableau,
    YoungDiagram,
    bideterminant,
    dominance_leq,
    double_tableau_leq,
    enumerate_standard_basis,
    enumerate_standard_tableaux,
    is_standard,
    standard_coordinates,
    straighten,
    subalgebra_membership,
    tableau_leq,
)


def dt(left_rows, right_rows):
    return DoubleTableau(Tableau(tuple(left_rows)), Tableau(tuple(right_rows)))


def restrict_rows(expansion, k_bound):
    """The terms of a standard expansion with no row longer than k_bound (the
    others vanish modulo the ideal of (k_bound+1)-minors)."""
    return StandardExpansion(
        tuple(
            (c, d) for c, d in expansion.terms if all(len(r) <= k_bound for r in d.left.rows)
        )
    )


def all_fillings(m, shape):
    """All fillings with strictly increasing rows (row sets), sides independent."""
    per_row = [list(combinations(range(1, m + 1), length)) for length in shape]
    return [tuple(rows) for rows in product(*per_row)]


def all_double_tableaux(m, degree):
    shapes = [s for s in _shapes(degree, m)]
    out = []
    for shape in shapes:
        fillings = all_fillings(m, shape)
        for left in fillings:
            for right in fillings:
                out.append(dt(left, right))
    return out


def brute_force_tableaux(m, shape):
    """Independent oracle: every filling with entries 1..m that is_standard
    accepts.  Rows have fixed lengths, so the product order is row-lexicographic."""
    out = []
    for values in product(range(1, m + 1), repeat=sum(shape)):
        rows, start = [], 0
        for length in shape:
            rows.append(values[start:start + length])
            start += length
        tableau = Tableau(tuple(rows))
        if is_standard(tableau):
            out.append(tableau)
    return out


def reference_fillings(m, shape, content):
    """Independent per-shape enumerator: the standard fillings of one shape
    with one content, filled one value at a time by choosing the rows that
    take it, sorted by rows."""
    values = [v for v in range(1, m + 1) if content[v - 1]]
    if max(shape, default=0) > len(values):
        return []
    filled = [[] for _ in shape]
    results = []

    def place(i):
        if i == len(values):
            results.append(tuple(map(tuple, filled)))
            return
        lengths = [len(row) for row in filled]
        open_rows = [r for r, length in enumerate(lengths) if length < shape[r]]
        for chosen in combinations(open_rows, content[values[i] - 1]):
            # a row as long as the one above takes v only together with it
            if any(r and lengths[r - 1] == lengths[r] and r - 1 not in chosen for r in chosen):
                continue
            # a row that misses more boxes than there are values left is dead
            later = len(values) - i - 1
            if any(shape[r] - lengths[r] - (r in chosen) > later for r in open_rows):
                continue
            for r in chosen:
                filled[r].append(values[i])
            place(i + 1)
            for r in chosen:
                filled[r].pop()

    place(0)
    return sorted(results)


def _shapes(total, max_part):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _shapes(total - first, first):
            yield (first,) + rest


def _contents(m, degree):
    return [c for c in product(range(degree + 1), repeat=m) if sum(c) == degree]


def standard_basis_of_degree(m, degree, k_bound=None):
    """Every standard double tableau of the degree with entries in 1..m (and
    rows <= k_bound), in `sort_key` order: the union of the library's
    enumeration over every content pair of the degree."""
    contents = _contents(m, degree)
    basis = [
        d
        for lc in contents
        for rc in contents
        for d in enumerate_standard_basis(m, (lc, rc), k_bound)
    ]
    return sorted(basis, key=DoubleTableau.sort_key)


class TestDiagrams:
    def test_validation(self):
        assert YoungDiagram((3, 1, 1)).size == 5
        with pytest.raises(PreconditionError):
            YoungDiagram((1, 2))
        with pytest.raises(PreconditionError):
            YoungDiagram((0,))

    def test_tableau_size_counts_boxes(self):
        assert Tableau(((1, 2, 3), (2,), (3,))).size == 5
        assert Tableau(()).size == 0

    def test_dominance(self):
        assert dominance_leq(YoungDiagram((1, 1)), YoungDiagram((2,)))
        assert not dominance_leq(YoungDiagram((2, 2)), YoungDiagram((3,)))
        sigma = YoungDiagram((3, 2, 1))
        assert dominance_leq(sigma, sigma)


class TestTableauOrder:
    def test_reflexive(self):
        t = Tableau(((1, 2), (2,)))
        assert tableau_leq(t, t)

    def test_single_row_example(self):
        # counting entries <= q: (1,3) has fewer small entries than (1,2)
        assert tableau_leq(Tableau(((1, 3),)), Tableau(((1, 2),)))
        assert not tableau_leq(Tableau(((1, 2),)), Tableau(((1, 3),)))

    def test_incomparable_pair(self):
        row = Tableau(((1, 2),))
        column = Tableau(((1,), (1,)))
        assert not tableau_leq(row, column)
        assert not tableau_leq(column, row)

    def test_refines_dominance(self):
        # exhaustive for m <= 3 and shapes of size <= 4
        m = 3
        tableaux = []
        for degree in range(1, 5):
            for shape in _shapes(degree, m):
                for rows in product(*[product(range(1, m + 1), repeat=l) for l in shape]):
                    tableaux.append(Tableau(tuple(rows)))
        for t in tableaux:
            for u in tableaux:
                if tableau_leq(t, u):
                    assert dominance_leq(t.shape, u.shape), (t, u)

    def test_double_tableau_order_is_componentwise(self):
        a = dt(((1,), (2,)), ((1,), (2,)))
        b = dt(((1, 2),), ((1, 2),))
        assert double_tableau_leq(a, b)
        assert not double_tableau_leq(b, a)


class TestStandardness:
    def test_examples(self):
        assert is_standard(Tableau(((1, 2), (1, 3))))
        assert not is_standard(Tableau(((2, 1),)))
        assert is_standard(Tableau(((1, 2), (1,))))

    def test_column_violation(self):
        assert not is_standard(Tableau(((2, 3), (1, 4))))


class TestBideterminant:
    def test_single_minor(self):
        m = 2
        assert bideterminant(dt(((1, 2),), ((1, 2),)), m) == minor_poly(
            MinorIndex((1, 2), (1, 2)), m
        )

    def test_product_of_entries(self):
        m = 2
        expected = MultiPoly.variable(m, 1, 2) * MultiPoly.variable(m, 2, 1)
        assert bideterminant(dt(((1,), (2,)), ((2,), (1,))), m) == expected

    def test_three_row_example(self):
        # rows read as sets: full 3x3 determinant, a 2x2 minor, one entry
        m = 3
        value = bideterminant(dt(((2, 1, 3), (2, 3), (1,)), ((1, 2, 3), (1, 2), (2,))), m)
        expected = (
            minor_poly(MinorIndex((1, 2, 3), (1, 2, 3)), m)
            * minor_poly(MinorIndex((2, 3), (1, 2)), m)
            * minor_poly(MinorIndex((1,), (2,)), m)
        )
        assert value == expected

    def test_repeated_entry_rejected(self):
        with pytest.raises(PreconditionError):
            bideterminant(dt(((1, 1),), ((1, 2),)), 2)

    def test_empty_double_tableau_is_one(self):
        for m in (1, 2, 3):
            assert bideterminant(dt((), ()), m) == MultiPoly.one(m)


class TestEnumeration:
    def test_degree_one(self):
        assert len(standard_basis_of_degree(2, 1)) == 4

    def test_fixed_content(self):
        got = enumerate_standard_basis(2, ((1, 1), (1, 1)))
        keys = {d.sort_key() for d in got}
        assert keys == {
            (((1,), (2,)), ((1,), (2,))),
            (((1, 2),), ((1, 2),)),
        }

    def test_row_bound_excludes_long_rows(self):
        unbounded = standard_basis_of_degree(2, 2)
        bounded = standard_basis_of_degree(2, 2, k_bound=1)
        assert {d.sort_key() for d in bounded} < {d.sort_key() for d in unbounded}
        assert all(all(r <= 1 for r in d.shape.rows) for d in bounded)

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            enumerate_standard_basis(3, ((3, 3, 3), (3, 3, 3)))

    def test_negative_row_bound_rejected(self):
        with pytest.raises(PreconditionError, match="k_bound"):
            enumerate_standard_basis(2, ((1, 1), (1, 1)), k_bound=-1)

    @pytest.mark.parametrize(
        "m, shape, content",
        [
            (2, (1,), (1,)),  # content shorter than m
            (2, (1,), (1, 0, 0)),  # content longer than m
            (2, (2,), (1, -1)),  # negative multiplicity
            (2, (0,), None),  # empty row, and no content
            (2, (1, 2), None),  # rows not nonincreasing, and no content
            (2, (1, 2), (2, 1)),
            (2, (0,), (0, 0)),  # empty row
            (2, (1,), None),  # no content
        ],
    )
    def test_malformed_input_rejected(self, m, shape, content):
        with pytest.raises(PreconditionError):
            enumerate_standard_tableaux(m, shape, content)

    def test_standard_filling_counts(self):
        # hook content (1,1,0): fillings of shape (2) with entries {1,2}: [1,2]
        got = enumerate_standard_tableaux(3, (2,), (1, 1, 0))
        assert [t.rows for t in got] == [((1, 2),)]

    def test_matches_brute_force_filter(self):
        # every shape of size <= 5 (rows longer than m, or more rows than m,
        # included), m <= 4, with every content
        for m in range(1, 5):
            for size in range(6):
                contents = _contents(m, size)
                for shape in _shapes(size, size):
                    fillings = brute_force_tableaux(m, shape)
                    for content in contents:
                        expected = [t for t in fillings if t.content(m) == content]
                        assert enumerate_standard_tableaux(m, shape, content) == expected

    def test_every_content_matches_the_per_shape_reference(self):
        # Every zero-free content of degree <= MAX_DEGREE, padded with zeros
        # as _content_block pads it, against the per-shape reference: 193
        # padded contents, about 0.1 s on CPython 3.11.
        clear_caches()
        checked = 0
        for degree in range(tableaux.MAX_DEGREE + 1):
            for content in _compositions(degree):
                for size in range(max(len(content), 1), max(degree, 1) + 1):
                    padded = content + (0,) * (size - len(content))
                    expected = {}
                    for shape in _shapes(degree, size):
                        found = reference_fillings(size, shape, padded)
                        if found:
                            expected[shape] = found
                    got = tableaux._tableaux_by_shape(padded)
                    assert {s: [t.rows for t in tabs] for s, tabs in got.items()} == expected
                    checked += 1
        clear_caches()
        assert checked == 193

    def test_enumerated_tableaux_equal_validated_ones(self):
        # enumeration skips Tableau's checks; what it builds must equal the
        # validated Tableau of the same rows, hash alike and be standard
        for m in range(1, 5):
            for size in range(5):
                for shape in _shapes(size, m):
                    for content in _contents(m, size):
                        for t in enumerate_standard_tableaux(m, shape, content):
                            validated = Tableau(t.rows)
                            assert t == validated and hash(t) == hash(validated), t
                            assert t.shape.rows == shape and is_standard(t), t
                            assert all(type(v) is int for row in t.rows for v in row), t

    def test_outside_input_is_still_checked(self):
        for rows in (((0,),), ((1,), ()), ((1,), (1, 2))):
            with pytest.raises(PreconditionError):
                Tableau(rows)

    def test_the_union_over_contents_matches_brute_force_pairs(self):
        # every pair of brute-force standard fillings of one shape, m <= 3
        for m in range(1, 4):
            for degree in range(5):
                expected = sorted(
                    (
                        DoubleTableau(left, right)
                        for shape in _shapes(degree, m)
                        for left in brute_force_tableaux(m, shape)
                        for right in brute_force_tableaux(m, shape)
                    ),
                    key=DoubleTableau.sort_key,
                )
                assert standard_basis_of_degree(m, degree) == expected, (m, degree)

    def test_each_call_enumerates_only_its_contents(self):
        # one memo entry per content the call names, m <= 3, degree <= 3
        for m in range(1, 4):
            for degree in range(4):
                contents = _contents(m, degree)
                for content in contents:
                    for shape in _shapes(degree, degree):
                        clear_caches()
                        enumerate_standard_tableaux(m, shape, content)
                        assert list(tableaux._TABLEAU_CACHE) == [content]
                for lc in contents:
                    for rc in contents:
                        clear_caches()
                        enumerate_standard_basis(m, (lc, rc))
                        assert set(tableaux._TABLEAU_CACHE) == {lc, rc}
        clear_caches()
        assert len(enumerate_standard_tableaux(8, (2, 2, 2), (1,) * 6 + (0, 0))) == 5
        assert list(tableaux._TABLEAU_CACHE) == [(1,) * 6 + (0, 0)]
        clear_caches()


class TestStraighten:
    def test_standard_is_fixed(self):
        m = 2
        basis_element = dt(((1, 2),), ((1, 2),))
        exp = straighten(basis_element, m)
        assert len(exp) == 1
        coef, term = exp.terms[0]
        assert coef == 1 and term == basis_element

    def test_known_expansion(self):
        m = 2
        exp = straighten(dt(((1,), (2,)), ((2,), (1,))), m)
        as_map = {term.sort_key(): coef for coef, term in exp}
        assert as_map == {
            (((1,), (2,)), ((1,), (2,))): 1,
            (((1, 2),), ((1, 2),)): -1,
        }

    def test_row_bound_projects(self):
        m = 2
        exp = straighten(dt(((1,), (2,)), ((2,), (1,))), m, k_bound=1)
        assert len(exp) == 1
        coef, term = exp.terms[0]
        assert coef == 1 and term.sort_key() == (((1,), (2,)), ((1,), (2,)))

    def test_negative_row_bound_rejected(self):
        p = MultiPoly.one(2) + MultiPoly.variable(2, 1, 2)
        with pytest.raises(PreconditionError, match="k_bound"):
            standard_coordinates(p, 2, k_bound=-1)

    def test_row_bound_zero_keeps_only_the_constant(self):
        # Every 1-minor is in the ideal, so only the empty tableau survives.
        m = 2
        constant = MultiPoly.one(m) * 3
        p = constant + MultiPoly.variable(m, 1, 2) + minor_poly(MinorIndex((1, 2), (1, 2)), m)
        exp = standard_coordinates(p, m, k_bound=0)
        assert exp.terms == ((3, dt((), ())),)
        assert standard_coordinates(p - constant, m, k_bound=0).is_zero

    def test_input_vanishing_mod_ideal(self):
        m = 2
        exp = straighten(dt(((1, 2),), ((1, 2),)), m, k_bound=1)
        assert exp.is_zero

    def test_unsorted_rows_same_expansion(self):
        m = 3
        sorted_exp = straighten(dt(((1, 2), (3,)), ((2, 3), (1,))), m)
        unsorted_exp = straighten(dt(((2, 1), (3,)), ((3, 2), (1,))), m)
        assert sorted_exp == unsorted_exp

    def test_degree_guard(self):
        wide = Tableau(((1, 2, 3), (1, 2, 3), (1,)))
        with pytest.raises(PreconditionError):
            straighten(DoubleTableau(wide, wide), 3)

    def test_json_shape_consistency_checked(self):
        with pytest.raises(PreconditionError):
            Tableau.from_json({"shape": [2], "rows": [[1], [2]]})

    def test_soundness_and_orders_exhaustive_degree_two(self):
        m = 3
        for d in all_double_tableaux(m, 2):
            p = bideterminant(d, m)
            exp = straighten(d, m)
            assert exp.to_poly(m) == p
            for coef, term in exp:
                assert term.is_standard
                assert dominance_leq(d.shape, term.shape)
                assert term.left.content(m) == d.left.content(m)
                assert term.right.content(m) == d.right.content(m)

    def test_bounded_soundness(self):
        m = 3
        for d in all_double_tableaux(m, 2):
            for k_bound in (0, 1, 2):
                exp = straighten(d, m, k_bound=k_bound)
                reprojected = standard_coordinates(exp.to_poly(m), m, k_bound=k_bound)
                assert reprojected == exp

    def test_matches_the_polynomial_route_on_seeded_tableaux(self):
        # Reference: the bideterminant multiplied out on MultiPoly and
        # expanded by standard_coordinates.  The terms come in sort_key
        # order, with Fraction coefficients.
        rng = random.Random(2022)
        cases = [(m, dt((), ())) for m in range(1, 6)]
        cases += [_random_double_tableau(rng) for _ in range(200)]
        for m, d in cases:
            p = bideterminant(d, m)
            for k_bound in (None, 0, 1, 2, 3):
                got = straighten(d, m, k_bound)
                assert got == standard_coordinates(p, m, k_bound=k_bound), (m, d, k_bound)
                keys = [term.sort_key() for _, term in got]
                assert keys == sorted(keys), (m, d, k_bound)
                assert all(type(coef) is Fraction for coef, _ in got), (m, d, k_bound)

    def test_builds_no_polynomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("straighten built a polynomial")

        clear_caches()
        monkeypatch.setattr(tableaux, "bideterminant", refuse)
        monkeypatch.setattr(MultiPoly, "__mul__", refuse)
        inputs = (dt([(3, 1), (2,)], [(2, 3), (1,)]), dt([(3,), (2,)], [(1,), (3,)]))
        cases = [(d, k_bound) for d in inputs for k_bound in (None, 0, 1, 2)]
        got = [straighten(d, 3, k_bound) for d, k_bound in cases]
        assert tableaux._BLOCK_CACHE
        monkeypatch.undo()
        for (d, k_bound), expansion in zip(cases, got):
            assert expansion == standard_coordinates(bideterminant(d, 3), 3, k_bound=k_bound)
        assert sum(len(expansion) for expansion in got) > 2


    def test_row_longer_than_the_bound_builds_no_block(self, monkeypatch):
        # Every term's shape dominates the input's, so no term has its first
        # row as short as k_bound and the answer is the zero expansion.
        def refuse(*args):
            raise AssertionError("straighten built a content block")

        d = dt([(1, 2, 3), (4, 5, 6)], [(2, 1, 3), (4, 6, 5)])
        monkeypatch.setattr(tableaux, "_content_block", refuse)
        for k_bound in (0, 1, 2):
            assert straighten(d, 6, k_bound) == StandardExpansion(())
        monkeypatch.undo()
        assert standard_coordinates(bideterminant(d, 6), 6, k_bound=2) == StandardExpansion(())
        assert len(straighten(d, 6, 3)) > 0


def _random_double_tableau(rng):
    """(m, double tableau) with m <= 5 and degree <= 6.  Each side's rows are
    drawn, in random order, from a random support of 1..m of at most four
    entries, so supports often miss the first rows and columns."""
    m = rng.randint(1, 5)
    row_support = rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
    col_support = rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
    width = min(len(row_support), len(col_support))
    shape = rng.choice(list(_shapes(rng.randint(1, 6), width)))
    left = [tuple(rng.sample(row_support, length)) for length in shape]
    right = [tuple(rng.sample(col_support, length)) for length in shape]
    return m, dt(left, right)


def cell_by_cell_monomials(m, row_content, col_content):
    """Reference enumeration: every entry of the matrix chosen in turn,
    largest exponent first, so the vectors come in descending order."""
    results = []
    exp = [0] * (m * m)
    cols_left = list(col_content)

    def fill(cell, budget):
        i, j = divmod(cell, m)
        if j == 0 and cell:
            if budget:
                return
            if i == m:
                results.append(tuple(exp))
                return
            budget = row_content[i]
        for e in range(min(budget, cols_left[j]), -1, -1):
            exp[cell] = e
            cols_left[j] -= e
            fill(cell + 1, budget - e)
            cols_left[j] += e
        exp[cell] = 0

    fill(0, row_content[0])
    return results


def _pack(exp, bits):
    """Reference packing in the block's field order: the first variable in
    the most significant field."""
    n = len(exp)
    return sum(e << ((n - 1 - idx) * bits) for idx, e in enumerate(exp))


def _unpack(packed, bits, n):
    mask = (1 << bits) - 1
    return tuple((packed >> ((n - 1 - idx) * bits)) & mask for idx in range(n))


def _compositions(total):
    """Tuples of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _assert_rows_are_every_monomial(m, rows, cols):
    """The block's rows, in order, are every monomial of the content, packed,
    in descending order."""
    block = tableaux._ContentBlock(m, rows, cols)
    expected = [_pack(exp, block.bits) for exp in cell_by_cell_monomials(m, rows, cols)]
    assert list(block.row_of) == expected, (rows, cols)
    assert list(block.row_of.values()) == list(range(len(expected)))


class TestMonomialEnumeration:
    def test_matches_cell_by_cell_order(self):
        # contents with zero rows and columns, as a block at the content's own m
        for m in range(1, 5):
            for degree in range(5):
                contents = [c for c in product(range(degree + 1), repeat=m) if sum(c) == degree]
                for rows in contents:
                    for cols in contents:
                        _assert_rows_are_every_monomial(m, rows, cols)

    def test_every_block_straighten_admits(self):
        # Every zero-free content pair of degree <= MAX_DEGREE, padded as
        # _content_block pads it: 1,365 blocks and the empty content, about
        # 4.5 s on CPython 3.11 (2.9 s of it the block builds).  A block's
        # rows are the monomials its standard bideterminants reach; here
        # they are checked against an independent enumeration, which the
        # straightening law says they equal.
        clear_caches()
        blocks = 0
        for degree in range(tableaux.MAX_DEGREE + 1):
            for rows in _compositions(degree):
                for cols in _compositions(degree):
                    size = max(len(rows), len(cols), 1)
                    _assert_rows_are_every_monomial(
                        size,
                        rows + (0,) * (size - len(rows)),
                        cols + (0,) * (size - len(cols)),
                    )
                    blocks += 1
        clear_caches()
        assert blocks == 1 + 1365

    def test_a_missing_standard_tableau_fails_the_build(self, monkeypatch):
        # (1,1)|(1,1) has the monomials x11 x22 and x12 x21, and two standard
        # double tableaux: ((1,), (2,)) | ((1,), (2,)), which is x11 x22, and
        # ((1, 2),) | ((1, 2),), the 2-minor.  Without the first, the 2-minor
        # alone reaches both monomials: two rows for one column.
        real = tableaux._standard_basis
        monkeypatch.setattr(tableaux, "_standard_basis", lambda *args: real(*args)[1:])
        with pytest.raises(RuntimeError, match="straightening law"):
            tableaux._ContentBlock(2, (1, 1), (1, 1))

    def test_a_monomial_outside_the_rows_is_rejected(self):
        block = tableaux._ContentBlock(2, (1, 1), (1, 1))
        foreign = _pack((2, 0, 0, 0), block.bits)  # x11^2, of another content
        with pytest.raises(RuntimeError, match="straightening law"):
            block.coordinates({foreign: Fraction(1)})

    def test_large_matrix_does_not_recurse_per_entry(self):
        # m * m = 1,024 entries: deeper than the default recursion limit
        assert standard_coordinates(MultiPoly.variable(32, 1, 1), 32) == StandardExpansion(
            ((Fraction(1), dt([(1,)], [(1,)])),)
        )


class TestRowShift:
    def test_leading_row_on_top_multiplies_by_the_leading_minor(self):
        # the law that divides by a chart minor: (1..k | 1..k) on top of a
        # standard double tableau with rows <= k stays standard and
        # multiplies its bideterminant by the leading k x k minor
        for m in range(1, 5):
            for k in range(1, m):
                lead = tuple(range(1, k + 1))
                delta = minor_poly(MinorIndex(lead, lead), m)
                for degree in range(5):
                    for d in standard_basis_of_degree(m, degree, k_bound=k):
                        shifted = dt((lead,) + d.left.rows, (lead,) + d.right.rows)
                        assert shifted.is_standard, d
                        assert bideterminant(shifted, m) == delta * bideterminant(d, m), d


def _random_poly(rng, m, max_degree):
    """A few random monomials of degree <= max_degree.  Some come in groups
    of one content whose coefficients sum to zero, so they vanish modulo the
    2-minors."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        degree = rng.randint(0, max_degree)
        cells = [rng.randrange(m * m) for _ in range(degree)]
        exp = [0] * (m * m)
        for cell in cells:
            exp[cell] += 1
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if rng.random() < 0.4 and degree >= 2:
            # the same content, rows matched to the columns in another order
            rows = sorted(c // m for c in cells)
            cols = [c % m for c in cells]
            rng.shuffle(cols)
            twin = [0] * (m * m)
            for i, j in zip(rows, cols):
                twin[i * m + j] += 1
            terms[tuple(twin)] = terms.get(tuple(twin), 0) - coef
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coef
    return MultiPoly(m, terms)


def running_sum_to_poly(expansion, m):
    """Reference re-expansion: one polynomial addition per term, each term a
    chain of `MultiPoly` products of its row minors (`bideterminant` is the
    one-term `to_poly`, so it is not used here)."""
    total = MultiPoly.zero(m)
    for coef, d in expansion:
        term = MultiPoly.constant(m, coef)
        for lrow, rrow in zip(d.left.rows, d.right.rows):
            term = term * minor_poly(MinorIndex(lrow, rrow), m)
        total = total + term
    return total


class TestRankOneClosedForm:
    # k_bound = 0 keeps only the constant term, through the block route.
    def test_matches_the_full_ring_route_on_random_polynomials(self):
        rng = random.Random(20261018)
        for m in range(1, 5):
            for _ in range(40):
                p = _random_poly(rng, m, 4)
                for k_bound in (0, 1):
                    assert standard_coordinates(p, m, k_bound=k_bound) == (
                        restrict_rows(standard_coordinates(p, m), k_bound)
                    ), (p, k_bound)

    def test_matches_the_full_ring_route_on_standard_bideterminants(self):
        m = 3
        for degree in range(4):
            for d in standard_basis_of_degree(m, degree):
                p = bideterminant(d, m)
                for k_bound in (0, 1):
                    assert standard_coordinates(p, m, k_bound=k_bound) == (
                        restrict_rows(standard_coordinates(p, m), k_bound)
                    ), (d, k_bound)

    def test_builds_no_content_block(self):
        clear_caches()
        p = MultiPoly.variable(3, 1, 2) * MultiPoly.variable(3, 3, 1) + MultiPoly.variable(3, 2, 2)
        assert len(standard_coordinates(p, 3, k_bound=1)) == 2
        assert not tableaux._BLOCK_CACHE

    def test_columns_come_from_the_enumeration_memo(self):
        # each content's one-column tableau is the only standard filling of
        # shape (1^d) with that content, read from the enumeration memo
        clear_caches()
        p = MultiPoly.variable(3, 1, 2) * MultiPoly.variable(3, 3, 1) + MultiPoly.variable(3, 2, 2)
        for _, d in standard_coordinates(p, 3, k_bound=1):
            shape = (1,) * d.shape.size
            assert d.left is tableaux._TABLEAU_CACHE[d.left.content(3)][shape][0]
            assert d.right is tableaux._TABLEAU_CACHE[d.right.content(3)][shape][0]

    def test_cancelling_content_is_dropped(self):
        # the 2-minor x11 x22 - x12 x21 is one content whose coefficients
        # cancel; only x11 is left
        m = 2
        p = minor_poly(MinorIndex((1, 2), (1, 2)), m) + MultiPoly.variable(m, 1, 1)
        assert standard_coordinates(p, m, k_bound=1) == StandardExpansion(
            ((Fraction(1), dt([(1,)], [(1,)])),)
        )


class TestToPoly:
    def test_one_pass_matches_the_running_sum(self):
        rng = random.Random(1018)
        for m in range(1, 4):
            for _ in range(30):
                expansion = standard_coordinates(_random_poly(rng, m, 3), m)
                poly = expansion.to_poly(m)
                assert poly == running_sum_to_poly(expansion, m)
                assert all(type(c) is Fraction for c in poly.terms.values()), poly

    def test_cancelling_terms_leave_no_zero_coefficients(self):
        d = dt([(1, 2)], [(1, 2)])
        expansion = StandardExpansion(((Fraction(1), d), (Fraction(-1), d)))
        assert expansion.to_poly(2).terms == {}
        assert running_sum_to_poly(expansion, 2).is_zero

    def test_unlike_denominators_on_rectangles_of_two_minors(self):
        # m = 4 rectangles of one to three 2-minors, with coefficients over
        # unlike denominators, so the common denominator is a proper lcm
        rng = random.Random(3201)
        fillings = {
            rows: sorted(
                (
                    t
                    for content in _contents(4, 2 * rows)
                    for t in enumerate_standard_tableaux(4, (2,) * rows, content)
                ),
                key=lambda t: t.rows,
            )
            for rows in (1, 2, 3)
        }
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(2, 5)):
                rows = rng.choice((1, 2, 3))
                coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                terms.append((coef, DoubleTableau(rng.choice(fillings[rows]), rng.choice(fillings[rows]))))
            expansion = StandardExpansion(tuple(terms))
            poly = expansion.to_poly(4)
            assert poly == running_sum_to_poly(expansion, 4), expansion
            assert all(type(c) is Fraction for c in poly.terms.values()), poly
        halves_and_thirds = StandardExpansion(
            ((Fraction(1, 2), dt([(1, 2)], [(3, 4)])), (Fraction(-2, 3), dt([(1, 3)], [(2, 4)])))
        )
        assert halves_and_thirds.to_poly(4) == running_sum_to_poly(halves_and_thirds, 4)

    def test_empty_expansion_is_the_zero_polynomial_of_its_layout(self):
        for m in (1, 3, 4):
            poly = StandardExpansion(()).to_poly(m)
            assert poly == MultiPoly.zero(m) and poly.m == m


def _check_block(m, rc, cc):
    """The columns the block's solver holds equal the bideterminants
    multiplied out on MultiPoly, and every packed monomial of a column
    decodes to one of the block's exponent vectors."""
    block = tableaux._ContentBlock(m, rc, cc)
    bits = sum(rc).bit_length()
    assert block.bits == bits
    got = {(r, c): v for c, col in enumerate(block.solver.columns) for r, v in col.items()}
    expected = {
        (block.row_of[_pack(exp, bits)], c): coef
        for c, d in enumerate(block.tableaux)
        for exp, coef in bideterminant(d, m).terms.items()
    }
    assert got == expected, (rc, cc)
    monomials = set(cell_by_cell_monomials(m, rc, cc))
    for d in block.tableaux:
        for mono in tableaux._packed_bideterminant(d, m, bits):
            assert _unpack(mono, bits, m * m) in monomials, (rc, cc, d)
    return len(block.tableaux)


def _check_block_columns(m, degree):
    """_check_block on every content of the degree; the number of columns."""
    return sum(
        _check_block(m, rc, cc)
        for rc in _contents(m, degree)
        for cc in _contents(m, degree)
        if cell_by_cell_monomials(m, rc, cc)
    )


class TestPackedColumns:
    def test_blocks_match_the_bideterminant_route(self):
        for m, top in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
            for degree in range(top + 1):
                assert _check_block_columns(m, degree) > 0, (m, degree)

    def test_cold_and_warm_at_three(self):
        clear_caches()
        assert not tableaux._PACKED_MINOR_CACHE
        cold = [_check_block_columns(3, degree) for degree in range(5)]
        assert tableaux._PACKED_MINOR_CACHE
        warm = [_check_block_columns(3, degree) for degree in range(5)]
        assert cold == warm
        clear_caches()
        assert not tableaux._PACKED_MINOR_CACHE

    def test_field_width_edge(self):
        # x11^7 and x11^8: the field grows from 3 to 4 bits between them, and
        # x11's exponent fills its field.  Every m = 2 content of both
        # degrees is checked too.
        for degree in (7, 8):
            assert _check_block_columns(2, degree) > 0
            for m in (1, 3, 4):
                x11 = MultiPoly.variable(m, 1, 1) ** degree
                bits = degree.bit_length()
                assert _pack(next(iter(x11.terms)), bits) == degree << ((m * m - 1) * bits)
                rc = cc = (degree,) + (0,) * (m - 1)
                assert _check_block(m, rc, cc) == 1
                assert standard_coordinates(x11, m).to_poly(m) == x11


def direct_coordinates(p, m):
    """Reference route: one _ContentBlock per content at p's own m, keyed by
    the content itself, zero rows and columns included, with no relabelling
    (the block route before blocks were shared)."""
    by_content = {}
    for exp, coef in p.terms.items():
        by_content.setdefault(p.monomial_content(exp), {})[exp] = coef
    terms = []
    for (rc, cc), chunk in by_content.items():
        block = tableaux._ContentBlock(m, rc, cc)
        packed = {_pack(exp, block.bits): coef for exp, coef in chunk.items()}
        terms.extend(block.coordinates(packed))
    terms.sort(key=lambda t: t[1].sort_key())
    return StandardExpansion(tuple(terms))


class TestSharedBlocks:
    def test_every_small_content_matches_the_direct_route(self):
        rng = random.Random(1304)
        for m, top in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
            for degree in range(top + 1):
                for rc in _contents(m, degree):
                    for cc in _contents(m, degree):
                        p = MultiPoly(m)
                        p.terms = {
                            exp: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                            for exp in cell_by_cell_monomials(m, rc, cc)
                        }
                        assert standard_coordinates(p, m) == direct_coordinates(p, m), (rc, cc)

    def test_random_polynomials_match_the_direct_route(self):
        rng = random.Random(20261018)
        for m in range(1, 6):
            for _ in range(25):
                p = _random_poly(rng, m, 4)
                expansion = standard_coordinates(p, m)
                assert expansion == direct_coordinates(p, m), p
                assert expansion.to_poly(m) == p

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_constant(self, m):
        empty = DoubleTableau(Tableau(()), Tableau(()))
        assert standard_coordinates(MultiPoly.one(m), m) == StandardExpansion(
            ((Fraction(1), empty),)
        )

    def test_constant_mixed_with_higher_degrees(self):
        m = 3
        p = (
            MultiPoly.one(m) * Fraction(-5, 2)
            + MultiPoly.variable(m, 2, 3)
            + MultiPoly.variable(m, 1, 3) * MultiPoly.variable(m, 3, 1)
            + bideterminant(dt([(1, 3)], [(2, 3)]), m) * 4
        )
        expansion = standard_coordinates(p, m)
        assert expansion == direct_coordinates(p, m)
        assert expansion.to_poly(m) == p
        assert (Fraction(-5, 2), DoubleTableau(Tableau(()), Tableau(()))) in expansion.terms
        assert standard_coordinates(p, m, k_bound=2) == restrict_rows(direct_coordinates(p, m), 2)

    def test_relabelled_contents_share_one_block(self):
        clear_caches()
        # (1,0,2)|(0,2,1) at m = 3 and (0,1,0,0,2)|(2,1,0,0,0) at m = 5
        # both have the zero-free content (1,2)|(2,1).
        x3 = MultiPoly.variable(3, 1, 2) * MultiPoly.variable(3, 3, 2) * MultiPoly.variable(3, 3, 3)
        x5 = MultiPoly.variable(5, 2, 1) * MultiPoly.variable(5, 5, 1) * MultiPoly.variable(5, 5, 2)
        assert x3.monomial_content(next(iter(x3.terms))) == ((1, 0, 2), (0, 2, 1))
        assert x5.monomial_content(next(iter(x5.terms))) == ((0, 1, 0, 0, 2), (2, 1, 0, 0, 0))
        for p, m in ((x3, 3), (x5, 5)):
            assert standard_coordinates(p, m) == direct_coordinates(p, m)
        assert list(tableaux._BLOCK_CACHE) == [((1, 2), (2, 1))]

    def test_identity_support_returns_the_block_tableaux(self):
        clear_caches()
        m = 3
        # (1,1,0)|(1,1,0) already uses the first rows and columns: the
        # block's own double tableaux come back, not relabelled copies.
        p = MultiPoly.variable(m, 1, 1) * MultiPoly.variable(m, 2, 2) * 3
        p = p + MultiPoly.variable(m, 1, 2) * MultiPoly.variable(m, 2, 1) * Fraction(-1, 2)
        expansion = standard_coordinates(p, m)
        assert expansion == direct_coordinates(p, m)
        (block,) = tableaux._BLOCK_CACHE.values()
        assert expansion.terms and all(
            any(d is own for own in block.tableaux) for _, d in expansion
        )
        # (0,1,1)|(1,0,1) shares the zero-free block but is relabelled.
        q = MultiPoly.variable(m, 2, 1) * MultiPoly.variable(m, 3, 3)
        q = q + MultiPoly.variable(m, 2, 3) * MultiPoly.variable(m, 3, 1) * 5
        assert q.monomial_content(next(iter(q.terms))) == ((0, 1, 1), (1, 0, 1))
        assert standard_coordinates(q, m) == direct_coordinates(q, m)
        assert list(tableaux._BLOCK_CACHE.values()) == [block]

    def test_enumeration_returns_a_fresh_list(self):
        clear_caches()
        first = enumerate_standard_tableaux(3, (2, 1), (1, 1, 1))
        assert first is not enumerate_standard_tableaux(3, (2, 1), (1, 1, 1))
        first.clear()
        assert len(enumerate_standard_tableaux(3, (2, 1), (1, 1, 1))) == 2
        assert list(tableaux._TABLEAU_CACHE) == [(1, 1, 1)]


def _deal(rng, shape, content):
    """The values of a content dealt at random into rows of the shape, or
    None when a row repeats a value."""
    values = [v for v, count in enumerate(content, 1) for _ in range(count)]
    rng.shuffle(values)
    rows, start = [], 0
    for length in shape:
        rows.append(tuple(values[start : start + length]))
        start += length
    return rows if all(len(set(row)) == len(row) for row in rows) else None


def _filled_double_tableau(rng, rc, cc):
    """A random double tableau with row content rc and column content cc:
    both sides dealt into one random shape, rows in random order.  A single
    column always deals, so it is the fallback."""
    width = min(sum(1 for c in rc if c), sum(1 for c in cc if c))
    shapes = list(_shapes(sum(rc), width))
    for _ in range(50):
        shape = rng.choice(shapes)
        left, right = _deal(rng, shape, rc), _deal(rng, shape, cc)
        if left and right:
            return dt(left, right)
    column = (1,) * sum(rc)
    return dt(_deal(rng, column, rc), _deal(rng, column, cc))


def _random_content(rng, m, degree):
    counts = [0] * m
    for v in rng.choices(range(m), k=degree):
        counts[v] += 1
    return tuple(counts)


def seeded_straighten_ops(seed=29, count=200):
    """(m, double tableau) pairs: m in {3, 4, 5}, degree 3..6, random
    contents and fillings."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        m = rng.choice((3, 4, 5))
        degree = rng.randint(3, 6)
        rc, cc = _random_content(rng, m, degree), _random_content(rng, m, degree)
        ops.append((m, _filled_double_tableau(rng, rc, cc)))
    return ops


def straighten_digest(ops):
    """sha256 (first 16 hex digits) of every op's straighten output, as JSON,
    at k_bound None, 1 and 2, from a cold cache."""
    clear_caches()
    h = hashlib.sha256()
    for k_bound in (None, 1, 2):
        for m, d in ops:
            record = [m, k_bound, d.to_json(), straighten(d, m, k_bound).to_json()]
            h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()[:16]


class TestPinnedOutputs:
    def test_seeded_straighten_digest(self):
        # Computed before transposed contents shared a block; any change to
        # a coefficient, a term, or the order of the terms changes it.
        # 200 ops, 84 of them on a transposed block; about 0.1 s.
        assert straighten_digest(seeded_straighten_ops()) == "f6d11cc13838d34d"

    def test_a_cold_straighten_leaves_no_cyclic_garbage(self):
        # Everything a cold pass leaves behind is freed by reference
        # counting, and the cached solvers hold no tracked object per
        # nonzero, row op or pivot row.
        ops = seeded_straighten_ops(count=100)
        clear_caches()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for k_bound in (None, 2):
                for m, d in ops:
                    straighten(d, m, k_bound)
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert garbage == 0
        assert tableaux._BLOCK_CACHE
        for block in tableaux._BLOCK_CACHE.values():
            solver = block.solver
            assert all(type(v) is int for v in solver.row_ops + solver.pivot_rows + solver.diag)
            assert not any(gc.is_tracked(d) for d in solver.upper + list(solver.columns))


class TestTransposedBlocks:
    def test_every_content_pair_shares_one_block_with_its_transpose(self):
        # Every zero-free content pair rc != cc of degree <= 5, both
        # orientations, each pair on a cold cache: 155 pairs.  Each side is
        # placed at m = size + 1 with a zero row and a zero column inserted
        # at random, so the flipped side is also relabelled.
        rng = random.Random(2029)
        pairs = 0
        for degree in range(1, 6):
            for rc in _compositions(degree):
                for cc in _compositions(degree):
                    size = max(len(rc), len(cc))
                    rc_pad, cc_pad = rc + (0,) * (size - len(rc)), cc + (0,) * (size - len(cc))
                    if not rc_pad < cc_pad:
                        continue
                    pairs += 1
                    m = size + 1
                    clear_caches()
                    inputs = [
                        _filled_double_tableau(rng, _insert_zero(rng, a), _insert_zero(rng, b))
                        for a, b in ((rc_pad, cc_pad), (cc_pad, rc_pad))
                    ]
                    results = [straighten(d, m) for d in inputs]
                    assert len(tableaux._BLOCK_CACHE) == 1, (rc, cc)
                    p = MultiPoly(m)
                    for d, expansion, coef in zip(inputs, results, (3, Fraction(-2, 5))):
                        poly = bideterminant(d, m)
                        assert expansion.to_poly(m) == poly, (rc, cc, d)
                        assert expansion == direct_coordinates(poly, m), (rc, cc, d)
                        p = p + poly * coef
                    assert standard_coordinates(p, m) == direct_coordinates(p, m), (rc, cc)
                    assert len(tableaux._BLOCK_CACHE) == 1, (rc, cc)
        clear_caches()
        assert pairs == 155

    def test_the_block_is_keyed_by_the_orientation_that_sorts_first(self):
        clear_caches()
        d = dt([(1, 2), (1,)], [(1, 2), (2,)])  # content (2,1)|(1,2)
        assert straighten(d, 2) == direct_coordinates(bideterminant(d, 2), 2)
        assert list(tableaux._BLOCK_CACHE) == [((1, 2), (2, 1))]
        block, rows, cols, flipped = tableaux._content_block((0, 2, 1), (1, 0, 2))
        assert flipped and (rows, cols) == ((0, 2), (1, 2))
        assert list(tableaux._BLOCK_CACHE.values()) == [block]


def _insert_zero(rng, content):
    """The content with one zero inserted at a random place."""
    i = rng.randint(0, len(content))
    return content[:i] + (0,) + content[i:]


class TestBasisProperty:
    def test_independence_and_span(self):
        # standard bideterminants of each degree <= 3 are independent and span
        # every bideterminant of that degree (m <= 3)
        for m in (2, 3):
            for degree in (1, 2, 3):
                basis = standard_basis_of_degree(m, degree)
                vectors = [bideterminant(b, m) for b in basis]
                monomials = sorted({e for v in vectors for e in v.terms})
                index = {e: i for i, e in enumerate(monomials)}
                rows = [[Fraction(0)] * len(basis) for _ in monomials]
                for c, v in enumerate(vectors):
                    for e, coef in v.terms.items():
                        rows[index[e]][c] = coef
                assert _rank(rows) == len(basis)
                for d in all_double_tableaux(m, degree):
                    straighten(d, m)  # raises if outside the span


def _rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
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


class TestSubalgebraMembership:
    def test_minor_is_member(self):
        m = 2
        delta = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        result = subalgebra_membership(delta, m, 2)
        assert result.is_member
        assert all(all(r == 2 for r in t.shape.rows) for _, t in result.expansion)

    def test_monomial_not_member(self):
        m = 2
        F = MultiPoly.variable(m, 1, 1) * MultiPoly.variable(m, 2, 2)
        result = subalgebra_membership(F, m, 2)
        assert not result.is_member
        assert result.offending is not None

    def test_single_entry_member_k1(self):
        assert subalgebra_membership(MultiPoly.variable(2, 1, 1), 2, 1).is_member

    def test_inhomogeneous_rejected(self):
        m = 2
        with pytest.raises(PreconditionError):
            subalgebra_membership(MultiPoly.variable(m, 1, 1) + MultiPoly.one(m), m, 1)

    def test_degree_divisibility_rejected(self):
        m = 2
        with pytest.raises(PreconditionError):
            subalgebra_membership(MultiPoly.variable(m, 1, 1), m, 2)

    def test_cancellation_property(self):
        # whenever delta * F lies in the minor subalgebra, so does F
        import random

        m, k = 3, 2
        rng = random.Random(11)
        delta = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        minors = [
            minor_poly(MinorIndex(r, c), m)
            for r in combinations(range(1, 4), 2)
            for c in combinations(range(1, 4), 2)
        ]
        for _ in range(8):
            member = MultiPoly.zero(m)
            for _ in range(3):
                a, b = rng.choice(minors), rng.choice(minors)
                member = member + rng.randint(-2, 2) * (a * b)
            if member.is_zero:
                continue
            assert subalgebra_membership(member, m, k).is_member
            product_case = subalgebra_membership(delta * member, m, k)
            assert product_case.is_member

    def test_non_member_product_fails_rectangularity(self):
        m, k = 3, 2
        delta = minor_poly(MinorIndex((1, 2), (1, 2)), m)
        non_member = MultiPoly.variable(m, 1, 1) * MultiPoly.variable(m, 2, 2)
        assert not subalgebra_membership(non_member, m, k).is_member
        assert not subalgebra_membership(delta * non_member, m, k).is_member


_ONE_2 = MultiPoly.one(2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Tableau(((1, 3),)).content(2), id="content_entry_above_m"),
        pytest.param(lambda: Tableau(((1,),)).content(2.0), id="content_float_m"),
        # content is required, and None is not one
        pytest.param(lambda: enumerate_standard_basis(2, None), id="neither_degree_nor_content"),
        pytest.param(
            lambda: enumerate_standard_basis(2, ((1, 0, 0), (1, 0))), id="content_length"
        ),
        pytest.param(lambda: enumerate_standard_basis(2, ((1, 1), (1, 0))), id="content_totals"),
        pytest.param(lambda: standard_coordinates(_ONE_2, 3), id="coordinates_layout"),
        pytest.param(lambda: standard_coordinates(_ONE_2, 2, k_bound=-1), id="coordinates_k"),
        pytest.param(lambda: subalgebra_membership(_ONE_2, 3, 1), id="membership_layout"),
        pytest.param(lambda: subalgebra_membership(_ONE_2, 2, 0), id="membership_k_below_1"),
        pytest.param(lambda: subalgebra_membership(_ONE_2, 2, 3), id="membership_k_above_m"),
        pytest.param(
            lambda: straighten(dt([(1, 1)], [(1, 2)]), 2), id="straighten_repeated_left_entry"
        ),
        pytest.param(
            lambda: straighten(dt([(1, 2)], [(2, 2)]), 2), id="straighten_repeated_right_entry"
        ),
        pytest.param(lambda: straighten(dt([(1, 3)], [(1, 2)]), 2), id="straighten_left_above_m"),
        pytest.param(lambda: straighten(dt([(1,)], [(3,)]), 2), id="straighten_right_above_m"),
        pytest.param(lambda: straighten(dt([(1,)], [(2,)]), 2, -1), id="straighten_k_below_0"),
        pytest.param(
            lambda: straighten(dt([(1,)], [(1,)]), tableaux.MAX_M + 1), id="straighten_m_above_max"
        ),
        pytest.param(
            lambda: straighten(dt([(1,)] * 7, [(1,)] * 7), 2), id="straighten_degree_above_max"
        ),
        pytest.param(lambda: straighten(dt((), ()), 0), id="straighten_m_zero"),
        pytest.param(lambda: straighten(dt((), ()), -3), id="straighten_m_negative"),
        pytest.param(lambda: enumerate_standard_tableaux(0, (), ()), id="tableaux_m_zero"),
        pytest.param(lambda: enumerate_standard_tableaux(-1, (1,), (1,)), id="tableaux_m_negative"),
        pytest.param(lambda: enumerate_standard_basis(0, ((), ())), id="basis_m_zero"),
        pytest.param(lambda: enumerate_standard_basis(-2, ((1,), (1,))), id="basis_m_negative"),
        pytest.param(
            lambda: enumerate_standard_basis(2, ((2, -1), (1, 0))), id="basis_content_negative"
        ),
        pytest.param(lambda: Tableau(((1.9, 2.2),)), id="tableau_float_entry"),
        pytest.param(lambda: Tableau((("3",),)), id="tableau_str_entry"),
        pytest.param(lambda: Tableau(((True,),)), id="tableau_bool_entry"),
        pytest.param(lambda: YoungDiagram((2.0,)), id="diagram_float_row"),
        pytest.param(lambda: YoungDiagram(("3",)), id="diagram_str_row"),
        pytest.param(lambda: YoungDiagram((True,)), id="diagram_bool_row"),
        pytest.param(
            lambda: enumerate_standard_tableaux(2, (1.5,), (1, 0)), id="tableaux_float_shape"
        ),
        # Sizes, degrees, bounds and multiplicities are ints, and a bool is not one.
        pytest.param(lambda: enumerate_standard_tableaux(2.0, (1,), (1, 0)), id="tableaux_float_m"),
        pytest.param(
            lambda: enumerate_standard_tableaux(2, (1,), (True, 0)), id="tableaux_bool_content"
        ),
        pytest.param(
            lambda: enumerate_standard_tableaux(2, (1,), (1.0, 0)), id="tableaux_float_content"
        ),
        pytest.param(lambda: enumerate_standard_basis(2.0, ((1, 0), (1, 0))), id="basis_float_m"),
        pytest.param(
            lambda: enumerate_standard_basis(2, ((1, 0), (1, 0)), k_bound=1.5),
            id="basis_float_k_bound",
        ),
        pytest.param(
            lambda: enumerate_standard_basis(2, ((True, 0), (1, 0))), id="basis_bool_content"
        ),
        pytest.param(
            lambda: enumerate_standard_basis(2, ((1.0, 0), (1, 0))), id="basis_float_content"
        ),
        pytest.param(lambda: straighten(dt([(1,)], [(2,)]), 2.0), id="straighten_float_m"),
        pytest.param(lambda: straighten(dt([(1,)], [(1,)]), True), id="straighten_bool_m"),
        pytest.param(
            lambda: straighten(dt([(1,)], [(2,)]), 2, k_bound=1.5), id="straighten_float_k_bound"
        ),
        pytest.param(lambda: standard_coordinates(_ONE_2, 2.0), id="coordinates_float_m"),
        pytest.param(
            lambda: standard_coordinates(_ONE_2, 2, k_bound=True), id="coordinates_bool_k_bound"
        ),
        pytest.param(lambda: subalgebra_membership(_ONE_2, 2.0, 1), id="membership_float_m"),
        pytest.param(lambda: subalgebra_membership(_ONE_2, 2, 1.0), id="membership_float_k"),
    ],
)
def test_preconditions_raise(call):
    with pytest.raises(PreconditionError):
        call()


def test_integer_polynomials_have_integer_coordinates():
    # The standard bideterminants are a basis of Z[X] over Z, so every
    # content block is unimodular: an integer polynomial has integer
    # standard coordinates, and so does every Nash certificate.
    from detmld.forms import verify_nash

    rng = random.Random(7)
    for m in (1, 2, 3, 4):
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exp = [0] * (m * m)
                for _ in range(rng.randint(0, 4)):
                    exp[rng.randrange(m * m)] += 1
                terms[tuple(exp)] = rng.randint(-9, 9)
            p = MultiPoly(m, terms)
            for k_bound in (None, 2):
                expansion = standard_coordinates(p, m, k_bound=k_bound)
                assert all(coef.denominator == 1 for coef, _ in expansion), p
    for m, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        for entry in verify_nash(m, k).subsets:
            for term in entry["certificate"]:
                assert Fraction(term["coef"]).denominator == 1, (m, k, entry["positions"])
