from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmld.linalg import PreparedSolver


def sparse(columns):
    """Dense columns as the {row: value} dicts of their nonzeros."""
    return [{r: v for r, v in enumerate(col) if v} for col in columns]


def prepare(columns):
    return PreparedSolver(sparse(columns))


def reference_solve(columns, rhs):
    """Independent dense Gauss-Jordan over Fractions on [A | b].

    Returns the solution, or None when the system is inconsistent; raises
    ArithmeticError when the columns are dependent.
    """
    ncols = len(columns)
    aug = [[Fraction(col[r]) for col in columns] + [Fraction(rhs[r])] for r in range(len(rhs))]
    top = 0
    for col in range(ncols):
        pivot = next((r for r in range(top, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("dependent columns")
        aug[top], aug[pivot] = aug[pivot], aug[top]
        aug[top] = [v / aug[top][col] for v in aug[top]]
        for r in range(len(aug)):
            if r != top and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[top])]
        top += 1
    if any(row[ncols] != 0 for row in aug[ncols:]):
        return None
    return [aug[i][ncols] for i in range(ncols)]


def apply(columns, x):
    nrows = len(columns[0])
    return [sum((Fraction(col[r]) * v for col, v in zip(columns, x)), Fraction(0)) for r in range(nrows)]


@st.composite
def full_rank_systems(draw):
    """Sparse unimodular square integer matrices, as dense column lists.

    An upper-triangular matrix with a +-1 diagonal; then a few integer
    column operations (unimodular) and a row shuffle hide the triangular
    structure.  So a right-hand side b has a solution x with x * scale
    integral whenever b * scale is.
    """
    ncols = nrows = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))
    unit = st.sampled_from([1, -1])
    rows = [[0] * r + [draw(unit)] + [draw(entry) for _ in range(ncols - r - 1)] for r in range(nrows)]
    columns = [[row[c] for row in rows] for c in range(ncols)]
    for _ in range(draw(st.integers(0, 3)) if ncols > 1 else 0):
        i, j = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True))
        factor = draw(st.integers(-2, 2))
        columns[j] = [a + factor * b for a, b in zip(columns[j], columns[i])]
    order = draw(st.permutations(range(nrows)))
    return [[col[r] for r in order] for col in columns]


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@given(full_rank_systems(), st.data())
def test_solve_recovers_x(columns, data):
    x = data.draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
    solution = prepare(columns).solve(apply(columns, x))
    assert solution == x
    assert all(isinstance(v, Fraction) for v in solution)


@given(full_rank_systems(), st.data())
def test_solve_matches_reference_on_arbitrary_rhs(columns, data):
    nrows = len(columns[0])
    rhs = data.draw(st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=nrows, max_size=nrows))
    assert prepare(columns).solve(rhs) == reference_solve(columns, rhs)


@pytest.mark.parametrize(
    "columns",
    [
        [[1, 2], [2, 4]],
        [[1, 0], [0, 0]],
        [[1, 1, 0], [0, 1, 1], [1, 2, 1]],
        [[0]],
        [[0, 0], [0, 0]],
    ],
)
def test_dependent_columns_raise(columns):
    with pytest.raises(ArithmeticError):
        prepare(columns)


def test_wrong_rhs_length_raises():
    solver = prepare([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solver.solve([1])
    with pytest.raises(ValueError):
        solver.solve([1, 2, 3])


def test_empty_system():
    solver = PreparedSolver([])
    assert solver.solve([]) == []
    with pytest.raises(ValueError):
        solver.solve([0])


def test_one_solver_many_right_hand_sides():
    columns = [[2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 5], [0, 0, 7, 1]]
    solver = prepare(columns)
    for t in range(60):
        x = [Fraction(t - 30, 1 + t % 4), Fraction(t % 7), Fraction(-t, 3), Fraction(1, t + 1)]
        assert solver.solve(apply(columns, x)) == x
        rhs = apply(columns, x)
        rhs[t % 4] += 1
        assert solver.solve(rhs) == integral_reference_solve(columns, rhs)


@st.composite
def scaled_systems(draw):
    """full_rank_systems with every column scaled by 2, 3 or 6, so pivots
    are rarely +-1 and eliminated rows often carry a content > 1."""
    columns = draw(full_rank_systems())
    factors = draw(st.lists(st.sampled_from([2, 3, 6]), min_size=len(columns), max_size=len(columns)))
    return [[f * v for v in col] for f, col in zip(factors, columns)]


def integral_reference_solve(columns, rhs):
    """reference_solve, or None when its solution times the lcm of the rhs
    denominators is not an integer vector."""
    x = reference_solve(columns, rhs)
    scale = lcm(*(Fraction(b).denominator for b in rhs))
    if x is None or any((v * scale).denominator != 1 for v in x):
        return None
    return x


@given(scaled_systems(), st.data())
def test_scaled_columns_match_reference(columns, data):
    # Scaled columns are not unimodular: a rational right-hand side often
    # has a solution off the lattice of b's denominators, and then a
    # replayed row division or a back-substitution division is inexact.
    nrows = len(columns[0])
    solver = prepare(columns)
    x = data.draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
    rhs = apply(columns, x)
    assert reference_solve(columns, rhs) == x
    assert solver.solve(rhs) == integral_reference_solve(columns, rhs)
    rhs = data.draw(st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=nrows, max_size=nrows))
    assert solver.solve(rhs) == integral_reference_solve(columns, rhs)


def test_solution_off_the_integer_lattice_is_none():
    # Column 0 pivots on row 0 (value 2); row 1 becomes (0, 2), whose content
    # 2 is divided out.  b = (1, 2) has the solution (1/2, 1/2), which is not
    # integral, and the replayed division of its right-hand side by 2 is
    # inexact; b = (2, 4) has the integer solution (1, 1).
    solver = prepare([[2, 2], [0, 2]])
    assert solver.pivot_rows == [0, 1]
    assert solver.row_ops == [(1, 0, 1, 1, 2)]
    assert [diag for diag, _ in solver.upper] == [2, 1]
    assert solver.solve([1, 2]) is None
    assert reference_solve([[2, 2], [0, 2]], [1, 2]) == [Fraction(1, 2), Fraction(1, 2)]
    assert solver.solve([2, 4]) == [1, 1]


def test_a_minus_one_pivot_records_scale_one():
    # Column 0 pivots on row 0 (value -1); row 1 is (2, 1).  With g = -1,
    # the op is row1 <- row1 + 2 * row0, with no flip of row 1's sign.
    columns = [[-1, 2], [0, 1]]
    solver = prepare(columns)
    assert solver.pivot_rows == [0, 1]
    assert solver.row_ops == [(1, 0, 1, -2, 1)]
    assert [diag for diag, _ in solver.upper] == [-1, 1]
    assert solver.solve([3, -4]) == reference_solve(columns, [3, -4]) == [-3, 2]
