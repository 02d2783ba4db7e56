import random

import pytest

from clustercomplex import (
    FINITE,
    PREINJ,
    PREPROJ,
    RANK2_INFINITE,
    UNSUPPORTED,
    build_complex,
    catalog_for,
    classify_type,
    euler_form,
    fixture,
    length,
    positive_roots,
    rank2_sequences,
    simple_reflection,
    verify_ap_axioms,
    verify_flag_connected,
)
from clustercomplex.errors import NotFiniteType, NotRankTwo, UnsupportedAlgebra

from oracles import KNOWN_ROOTS, oracle_form


def test_simple_reflection_examples():
    g2 = fixture("g2")
    assert simple_reflection(g2, 0, (0, 1)) == (1, 1)
    assert simple_reflection(g2, 0, (1, 0)) == (-1, 0)
    a2 = fixture("a2")
    assert simple_reflection(a2, 1, (1, 0)) == (1, 1)


def test_simple_reflection_involution_and_form():
    # the symmetrized form <x, y> + <y, x> is invariant under every reflection
    rng = random.Random(11)
    for name in ("a3", "b2", "g2", "kronecker", "d4"):
        alg = fixture(name)

        def symmetrized(x, y):
            return oracle_form(alg.euler, x, y) + oracle_form(alg.euler, y, x)

        for _ in range(20):
            x = tuple(rng.randint(-4, 4) for _ in range(alg.n))
            y = tuple(rng.randint(-4, 4) for _ in range(alg.n))
            for i in range(alg.n):
                assert simple_reflection(alg, i, simple_reflection(alg, i, x)) == x
                assert symmetrized(simple_reflection(alg, i, x), simple_reflection(alg, i, y)) \
                    == symmetrized(x, y)


def test_classify():
    assert classify_type(fixture("g2")) == FINITE
    assert classify_type(fixture("kronecker")) == RANK2_INFINITE
    assert classify_type(fixture("valued15")) == RANK2_INFINITE
    assert classify_type(fixture("affine_a2")) == UNSUPPORTED
    for name in ("a1", "a1xa1", "a2", "a3", "b2", "b3", "c3", "d4"):
        assert classify_type(fixture(name)) == FINITE


@pytest.mark.parametrize("name", sorted(KNOWN_ROOTS))
def test_positive_roots_match_tables(name):
    catalog = positive_roots(fixture(name))
    assert set(catalog.dimvs()) == set(KNOWN_ROOTS[name])


def test_positive_roots_sorted_and_tagged():
    alg = fixture("g2")
    catalog = positive_roots(alg)
    keys = [(length(alg, d), d) for d in catalog.dimvs()]
    assert keys == sorted(keys)
    assert [e.id for e in catalog.entries] == list(range(len(catalog)))
    for e in catalog.entries:
        assert e.q == euler_form(alg, e.dimv, e.dimv) > 0
        assert e.q in alg.symmetrizer


def test_positive_roots_rejects_infinite():
    with pytest.raises(NotFiniteType):
        positive_roots(fixture("kronecker"))


def test_rank2_sequences_g2_order():
    g2 = fixture("g2")
    catalog = rank2_sequences(g2, 2)
    assert catalog.dimvs() == [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1), (1, 0)]
    assert catalog.kind == FINITE


def test_rank2_sequences_kronecker():
    k = fixture("kronecker")
    catalog = rank2_sequences(k, 3)
    preproj = [e for e in catalog.entries if e.component == PREPROJ]
    assert [e.dimv for e in preproj] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    assert [length(k, e.dimv) for e in preproj][:4] == [1, 3, 5, 7]
    preinj = [e for e in catalog.entries if e.component == PREINJ]
    assert preinj[-1].dimv == (1, 0) and preinj[-2].dimv == (2, 1)
    assert all(e.q == 1 for e in catalog.entries)
    assert len(set(catalog.dimvs())) == len(catalog)


def test_rank2_sequences_tags_and_growth():
    v = fixture("valued15")
    catalog = rank2_sequences(v, 6)
    assert catalog.kind == RANK2_INFINITE
    for comp in (PREPROJ, PREINJ):
        for vertex in (0, 1):
            family = [e for e in catalog.entries
                      if e.component == comp and e.vertex == vertex]
            ts = [e.t for e in family]
            assert sorted(ts) == list(range(7))
            family.sort(key=lambda e: e.t)
            for a, b in zip(family, family[1:]):
                assert all(x < y for x, y in zip(a.dimv, b.dimv))
            assert all(e.q == v.symmetrizer[vertex] for e in family)


def test_rank2_sequences_rejects_other_ranks():
    with pytest.raises(NotRankTwo):
        rank2_sequences(fixture("a1"), 3)
    with pytest.raises(NotRankTwo):
        rank2_sequences(fixture("a3"), 3)


def test_finite_rank2_merge_equals_positive_roots():
    for name in ("a1xa1", "a2", "b2", "g2"):
        alg = fixture(name)
        assert set(rank2_sequences(alg, 30).dimvs()) == set(positive_roots(alg).dimvs())


@pytest.mark.parametrize("name", ["a1xa1", "a2", "b2", "g2"])
@pytest.mark.parametrize("t_max", [0, 1, 2, 3])
def test_finite_rank2_sequences_ignore_the_cutoff(name, t_max):
    # a finite chain runs until it leaves the positive cone, so a small
    # t_max still gives every positive root and a complex that passes
    alg = fixture(name)
    cat = rank2_sequences(alg, t_max)
    assert cat.kind == FINITE
    assert sorted(cat.dimvs()) == sorted(positive_roots(alg).dimvs())
    cx = build_complex(cat)
    assert verify_ap_axioms(cx).ok and verify_flag_connected(cx).ok


def test_catalog_for_dispatch():
    assert catalog_for(fixture("a3")).kind == FINITE
    assert catalog_for(fixture("kronecker"), t_max=2).kind == RANK2_INFINITE
    with pytest.raises(UnsupportedAlgebra):
        catalog_for(fixture("affine_a2"))
