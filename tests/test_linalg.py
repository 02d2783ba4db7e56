from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import (
    FINITE,
    FINITE_FIXTURES,
    RANK2_INFINITE,
    RANK2_INFINITE_FIXTURES,
    UNSUPPORTED,
    classify_type,
    fixture,
    fixture_names,
    linalg,
)

from oracles import oracle_positive_definite, oracle_solve_columns


def test_solve_columns():
    assert linalg.solve_columns([], (0, 0)) == []
    assert linalg.solve_columns([], (1, 0)) is None
    coeffs = linalg.solve_columns([(1, 0, 1), (0, 1, 1)], (2, 3, 5))
    assert coeffs == [2, 3]
    assert linalg.solve_columns([(1, 0, 1), (0, 1, 1)], (2, 3, 4)) is None


def test_solve_square():
    # square systems given by rows, solved through their columns:
    # a regular, a singular and a fractional one
    def solve_rows(rows, rhs):
        return linalg.solve_columns(list(zip(*rows)), rhs)

    assert solve_rows([[2, 1], [1, 3]], [5, 10]) == [Fraction(1), Fraction(3)]
    assert solve_rows([[1, 1], [2, 2]], [1, 2]) is None
    assert solve_rows([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]


@st.composite
def integer_matrices(draw):
    """0-6 by 0-6 matrices with entries -3..3; some with a zeroed column or a
    row that combines two others, so rank deficiency is common."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
    if n and draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0
    if m >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(integer_matrices(), st.data())
def test_solves_agree_with_the_fraction_elimination(columns, data):
    # the matrix's rows are the columns; the target is either any vector,
    # mostly outside the span, or an integer combination of the columns
    size = len(columns[0]) if columns else data.draw(st.integers(0, 6))
    if data.draw(st.booleans()):
        target = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    else:
        mults = data.draw(st.lists(st.integers(-3, 3), min_size=len(columns), max_size=len(columns)))
        target = [sum(m * column[i] for m, column in zip(mults, columns)) for i in range(size)]
    expected = oracle_solve_columns(columns, target)
    assert linalg.solve_columns(columns, target) == expected
    integral = expected is not None and all(c.denominator == 1 and c >= 0 for c in expected)
    assert linalg.nonneg_int_combination(columns, target) == (
        [int(c) for c in expected] if integral else None)


def test_nonneg_int_combination():
    assert linalg.nonneg_int_combination([(1, 1), (0, 1)], (2, 3)) == [2, 1]
    assert linalg.nonneg_int_combination([(1, 1), (0, 1)], (2, 1)) is None
    assert linalg.nonneg_int_combination([(2, 0)], (1, 0)) is None
    assert linalg.nonneg_int_combination([], (0, 0, 0)) == []


def test_is_positive_definite():
    assert linalg.is_positive_definite([[2, -1], [-1, 2]])
    assert not linalg.is_positive_definite([[2, -2], [-2, 2]])
    assert linalg.is_positive_definite([])


@pytest.mark.parametrize("matrix, expected", [
    ([[0, 1], [1, 0]], False),            # first pivot 0
    ([[-2, 1], [1, -2]], False),          # negative definite
    ([[1, 2], [2, 4]], False),            # first minor 1, second 0
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
    ([[1, 1, 1], [1, 2, 2], [1, 2, 2]], False),  # minors 1, 1, 0
])
def test_is_positive_definite_named_cases(matrix, expected):
    assert linalg.is_positive_definite(matrix) == expected
    assert oracle_positive_definite(matrix) == expected


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-5, 5))
    return rows


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(symmetric_matrices())
def test_bareiss_agrees_with_the_determinants(matrix):
    assert linalg.is_positive_definite(matrix) == oracle_positive_definite(matrix)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_accepts_gram_matrices(b):
    # B^T B + I is positive definite, so every pivot of the walk is reached
    gram = [[sum(b[k][i] * b[k][j] for k in range(len(b))) + (i == j) for j in range(len(b))]
            for i in range(len(b))]
    assert linalg.is_positive_definite(gram) and oracle_positive_definite(gram)


def test_classify_type_on_every_fixture():
    # finiteness from the determinants of diag(u) C, against the fixture lists
    for name in fixture_names():
        alg = fixture(name)
        sym = [[alg.symmetrizer[i] * alg.cartan[i][j] for j in range(alg.n)] for i in range(alg.n)]
        expected = (FINITE if name in FINITE_FIXTURES
                    else RANK2_INFINITE if name in RANK2_INFINITE_FIXTURES else UNSUPPORTED)
        assert classify_type(alg) == expected, name
        assert oracle_positive_definite(sym) == (expected == FINITE), name
