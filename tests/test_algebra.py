import random

import pytest

from clustercomplex import (
    algebra_from_dict,
    algebra_to_dict,
    build_algebra,
    euler_form,
    fixture,
    length,
)
from clustercomplex.errors import (
    ArrowWithoutEntry,
    CyclicOrientation,
    DimensionMismatch,
    NegativeCoordinate,
    NotSymmetrizable,
    ParseError,
)


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


def test_json_roundtrip():
    for name in ("g2", "a3", "kronecker"):
        alg = fixture(name)
        assert algebra_from_dict(algebra_to_dict(alg)) == alg
    with pytest.raises(ParseError):
        algebra_from_dict({"cartan": [[2]]})
    with pytest.raises(ParseError):
        algebra_from_dict({"n": 3, "cartan": [[2]], "symmetrizer": [1]})
