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

from oracles import oracle_positive_definite


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
