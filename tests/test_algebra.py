import random

import pytest

from clustercomplex import (
    algebra_from_dict,
    algebra_to_dict,
    build_algebra,
    euler_form,
    fixture,
    fixture_names,
    injective_dimv,
    length,
    projective_dimv,
)
from clustercomplex.errors import (
    ArrowWithoutEntry,
    CyclicOrientation,
    DimensionMismatch,
    NegativeCoordinate,
    NotSymmetrizable,
    ParseError,
)

from oracles import oracle_solve_columns


def test_build_g2_euler_matrix():
    g2 = build_algebra([[2, -1], [-3, 2]], [3, 1], [(0, 1)])
    assert g2.euler == ((3, -3), (0, 1))


def test_build_rank_one():
    a = build_algebra([[2]], [5], [])
    assert a.euler == ((5,),)


def test_build_kronecker():
    k = build_algebra([[2, -2], [-2, 2]], [1, 1], [(0, 1)])
    assert k.euler == ((1, -2), (0, 1))


def test_build_rejects_bad_data():
    with pytest.raises(NotSymmetrizable):
        build_algebra([[2, -1], [-2, 2]], [1, 1], [(0, 1)])
    with pytest.raises(CyclicOrientation):
        build_algebra([[2, -1], [-1, 2]], [1, 1], [(0, 1), (1, 0)])
    with pytest.raises(ArrowWithoutEntry):
        build_algebra([[2, 0], [0, 2]], [1, 1], [(0, 1)])
    with pytest.raises(ValueError):
        build_algebra([[2, -1], [-1, 2]], [1, 1], [])  # coupling without arrow
    with pytest.raises(ValueError):
        build_algebra([[1, 0], [0, 2]], [1, 1], [])
    with pytest.raises(ValueError):
        build_algebra([[2, -1], [-1, 2]], [1, 0], [(0, 1)])


def test_euler_form_g2_values():
    g2 = fixture("g2")
    assert euler_form(g2, (1, 2), (1, 2)) == 1
    assert euler_form(g2, (1, 3), (1, 3)) == 3
    for i in range(2):
        e = tuple(1 if k == i else 0 for k in range(2))
        assert euler_form(g2, e, e) == g2.symmetrizer[i]
    with pytest.raises(DimensionMismatch):
        euler_form(g2, (1, 2, 3), (1, 2))


def test_euler_form_bilinear_random():
    rng = random.Random(100)
    for name in ("g2", "a3", "b2", "kronecker"):
        alg = fixture(name)
        n = alg.n
        for _ in range(25):
            x, y, z = (tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(3))
            xs = tuple(a + b for a, b in zip(x, z))
            assert euler_form(alg, xs, y) == euler_form(alg, x, y) + euler_form(alg, z, y)
            ys = tuple(a + b for a, b in zip(y, z))
            assert euler_form(alg, x, ys) == euler_form(alg, x, y) + euler_form(alg, x, z)


def test_arrow_pairings():
    for name in ("g2", "a3", "b3", "c3", "d4", "kronecker"):
        alg = fixture(name)
        for (i, j) in alg.arrows:
            ei = tuple(1 if k == i else 0 for k in range(alg.n))
            ej = tuple(1 if k == j else 0 for k in range(alg.n))
            m = -alg.cartan[i][j] * alg.symmetrizer[i]
            assert euler_form(alg, ei, ej) == -m
            assert euler_form(alg, ej, ei) == 0


def test_length():
    g2 = fixture("g2")
    assert length(g2, (1, 2)) == 5
    assert length(g2, (2, 3)) == 9
    assert length(g2, (0, 0)) == 0
    with pytest.raises(NegativeCoordinate):
        length(g2, (-1, 0))


def test_projective_injective_g2():
    g2 = fixture("g2")
    assert projective_dimv(g2, 0) == (1, 3)
    assert projective_dimv(g2, 1) == (0, 1)
    assert injective_dimv(g2, 1) == (1, 1)
    assert injective_dimv(g2, 0) == (1, 0)


def test_projectives_represent_coordinates():
    rng = random.Random(7)
    for name in ("a3", "b3", "g2", "kronecker", "d4"):
        alg = fixture(name)
        for i in range(alg.n):
            p = projective_dimv(alg, i)
            q = injective_dimv(alg, i)
            for _ in range(10):
                x = tuple(rng.randint(-4, 4) for _ in range(alg.n))
                assert euler_form(alg, p, x) == alg.symmetrizer[i] * x[i]
                assert euler_form(alg, x, q) == alg.symmetrizer[i] * x[i]


def test_projectives_and_injectives_match_the_reference_solve():
    # E^T p = u_i e_i and E q = u_i e_i, solved over Fractions
    for name in fixture_names():
        alg = fixture(name)
        rows, columns = alg.euler, tuple(zip(*alg.euler))
        for i in range(alg.n):
            rhs = [alg.symmetrizer[i] if k == i else 0 for k in range(alg.n)]
            assert list(projective_dimv(alg, i)) == oracle_solve_columns(rows, rhs), (name, i)
            assert list(injective_dimv(alg, i)) == oracle_solve_columns(columns, rhs), (name, i)


def test_non_integral_solution_on_corrupt_data():
    from clustercomplex import AlgebraData
    from clustercomplex.errors import NonIntegralSolution

    # bypasses build_algebra on purpose: a singular Euler matrix
    broken = AlgebraData(n=1, cartan=((2,),), symmetrizer=(1,),
                         arrows=frozenset(), euler=((0,),))
    with pytest.raises(NonIntegralSolution):
        projective_dimv(broken, 0)


def test_json_roundtrip():
    for name in ("g2", "a3", "kronecker"):
        alg = fixture(name)
        assert algebra_from_dict(algebra_to_dict(alg)) == alg
    with pytest.raises(ParseError):
        algebra_from_dict({"cartan": [[2]]})
    with pytest.raises(ParseError):
        algebra_from_dict({"n": 3, "cartan": [[2]], "symmetrizer": [1]})
