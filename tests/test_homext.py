import dataclasses

import pytest

from clustercomplex import (
    PREINJ,
    PREPROJ,
    euler_form,
    fixture,
    hom_ext,
    is_rigid,
    iter_rigid_sets,
    positive_roots,
    rank2_sequences,
    support,
)
from clustercomplex.errors import MixedCatalogs, UnknownId
from clustercomplex.homext import ids_of

from oracles import oracle_ext, oracle_rank, oracle_rigid_dimv_collisions


def g2_catalog():
    return positive_roots(fixture("g2"))


def rigid_id_sets(cat):
    return [ids_of(members) for members, _, _ in iter_rigid_sets(cat)]


def test_hom_ext_g2_values():
    cat = g2_catalog()
    p2 = cat.by_dimv[(0, 1)]
    p1 = cat.by_dimv[(1, 3)]
    assert hom_ext(cat, p2, p1) == (3, 0)
    s1 = cat.by_dimv[(1, 0)]
    assert hom_ext(cat, s1, p2) == (0, 3)
    for e in cat.entries:
        assert hom_ext(cat, e, e) == (e.q, 0)


def test_hom_ext_matches_oracle_and_directedness():
    for name in ("a2", "a3", "b2", "g2", "d4"):
        alg = fixture(name)
        cat = positive_roots(alg)
        for x in cat.entries:
            for y in cat.entries:
                h, e = hom_ext(cat, x, y)
                assert h - e == euler_form(alg, x.dimv, y.dimv)
                if x.id != y.id:
                    assert e == oracle_ext(alg.euler, x.dimv, y.dimv)
                    assert h * e == 0
                    hr, _ = hom_ext(cat, y, x)
                    assert h * hr == 0  # no cycles among distinct members


def test_hom_ext_rank2_infinite_components():
    k = fixture("kronecker")
    cat = rank2_sequences(k, 5)
    for x in cat.entries:
        for y in cat.entries:
            h, e = hom_ext(cat, x, y)
            assert h - e == euler_form(k, x.dimv, y.dimv)
            if x.component == PREPROJ and y.component == PREINJ:
                assert e == 0
            if x.component == PREINJ and y.component == PREPROJ:
                assert h == 0
                if x.id != y.id:
                    assert e > 0  # no mixed rigid pairs in the infinite case


def test_hom_ext_rejects_foreign_members():
    cat = g2_catalog()
    other = positive_roots(fixture("a2"))
    with pytest.raises(MixedCatalogs):
        hom_ext(cat, other.entries[0], cat.entries[0])


def test_g2_ar_translate_pattern():
    g2 = fixture("g2")
    cat = rank2_sequences(g2, 5)
    entries = cat.entries
    for k in range(2, len(entries)):
        _, e = hom_ext(cat, entries[k], entries[k - 2])
        assert e > 0
    for k in range(1, len(entries)):
        assert is_rigid(cat, (entries[k - 1].id, entries[k].id))


def test_is_rigid_examples():
    cat = g2_catalog()
    p1 = cat.by_dimv[(1, 3)].id
    p2 = cat.by_dimv[(0, 1)].id
    s1 = cat.by_dimv[(1, 0)].id
    assert is_rigid(cat, (p1, p2))
    assert not is_rigid(cat, (s1, p2))
    assert is_rigid(cat, ())
    with pytest.raises(UnknownId):
        is_rigid(cat, (99,))


def test_support():
    cat = g2_catalog()
    d = cat.by_dimv[(1, 2)].id
    assert support(cat, (d,)) == (frozenset({0, 1}), frozenset())
    p2 = cat.by_dimv[(0, 1)].id
    assert support(cat, (p2,)) == (frozenset({1}), frozenset({0}))
    assert support(cat, ()) == (frozenset(), frozenset({0, 1}))


def test_rigid_sets_are_linearly_independent():
    for name in ("a2", "a3", "b2", "b3", "g2", "d4"):
        cat = positive_roots(fixture(name))
        count = 0
        for ids in rigid_id_sets(cat):
            assert oracle_rank([cat.entries[i].dimv for i in ids]) == len(ids)
            assert len(ids) <= cat.algebra.n
            count += 1
        assert count > 1


def test_rigid_dimv_unique():
    for name in ("a1", "a2", "a3", "g2"):
        cat = positive_roots(fixture(name))
        sets = rigid_id_sets(cat)
        assert len(sets) > 1
        assert oracle_rigid_dimv_collisions(cat.dimvs(), sets) == []


def test_rigid_dimv_unique_reports_a_collision():
    # once every pair counts as compatible, 2 (0, 1) + (1, 0) and
    # (0, 1) + (1, 1) are both rigid combinations totalling (1, 2)
    cat = positive_roots(fixture("a2"))
    kernel = cat.kernel
    vars(cat)["kernel"] = dataclasses.replace(kernel, compat=(kernel.everyone,) * len(cat))
    collisions = oracle_rigid_dimv_collisions(cat.dimvs(), rigid_id_sets(cat))
    assert collisions[0] == (((0, 2), (1, 1)), ((0, 1), (2, 1)), (1, 2))
