import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    bongartz,
    bongartz_split,
    complements,
    dual_bongartz,
    dual_bongartz_split,
    enumerate_support_tilting,
    fixture,
    is_rigid,
    iter_rigid_sets,
    linalg,
    positive_roots,
    rank2_sequences,
    relative_bongartz,
    support,
    verify_b2_structure,
)
from clustercomplex.errors import NoCompletion, NotAlmostComplete, NotFiniteType
from clustercomplex.roots import RootCatalog

from oracles import (
    KNOWN_FACET_COUNTS,
    oracle_canonical_completions,
    oracle_facets,
    oracle_rigid_sets,
    oracle_support,
)


def dimvs_of(cat, ids):
    return sorted(cat.entries[i].dimv for i in ids)


@pytest.mark.parametrize("name", sorted(KNOWN_FACET_COUNTS))
def test_facet_counts(name):
    alg = fixture(name)
    cat = positive_roots(alg)
    facets = enumerate_support_tilting(cat)
    assert len(facets) == KNOWN_FACET_COUNTS[name]
    expected = {frozenset(cat.entries[i].dimv for i in st.ids) for st in facets}
    assert expected == set(oracle_facets(alg.euler, cat.dimvs()))


def test_facets_have_basis_dimvs():
    for name in ("a3", "b3", "g2", "d4"):
        cat = positive_roots(fixture(name))
        for st in enumerate_support_tilting(cat):
            if not st.ids:
                continue
            supp, sigma = support(cat, st.ids)
            assert len(st.ids) == len(supp)
            assert tuple(sorted(sigma)) == st.sigma
            restricted = [[cat.entries[i].dimv[v] for v in sorted(supp)] for i in st.ids]
            assert linalg.det(restricted) != 0


def test_enumerate_rejects_infinite():
    with pytest.raises(NotFiniteType):
        enumerate_support_tilting(rank2_sequences(fixture("kronecker"), 3))


def test_complements_g2():
    cat = positive_roots(fixture("g2"))
    d = cat.by_dimv[(1, 2)].id
    assert dimvs_of(cat, complements(cat, (d,))) == [(1, 3), (2, 3)]
    p2 = cat.by_dimv[(0, 1)].id
    # insincere almost-complete set: a unique complement
    assert dimvs_of(cat, complements(cat, (p2,))) == [(1, 3)]


def test_complements_a1_and_errors():
    cat = positive_roots(fixture("a1"))
    assert dimvs_of(cat, complements(cat, ())) == [(1,)]
    g2 = positive_roots(fixture("g2"))
    with pytest.raises(NotAlmostComplete):
        complements(g2, ())


def test_complement_dichotomy():
    """Within a facet's support: two ways to refill when the rest stays
    sincere, one way otherwise."""
    for name in ("a2", "a3", "b2", "g2", "d4"):
        cat = positive_roots(fixture(name))
        for st in enumerate_support_tilting(cat):
            w, _ = support(cat, st.ids)
            for m in st.ids:
                rest = tuple(i for i in st.ids if i != m)
                rest_supp, _ = support(cat, rest)
                found = complements(cat, rest, within=w)
                assert m in found
                assert len(found) == (2 if rest_supp == w else 1)


def test_bongartz_g2():
    cat = positive_roots(fixture("g2"))
    d = cat.by_dimv[(1, 2)].id
    assert dimvs_of(cat, bongartz(cat, (d,))) == [(1, 3)]
    assert dimvs_of(cat, dual_bongartz(cat, (d,))) == [(2, 3)]
    assert dimvs_of(cat, bongartz(cat, ())) == [(0, 1), (1, 3)]
    assert dimvs_of(cat, dual_bongartz(cat, ())) == [(1, 0), (1, 1)]


def test_bongartz_a2():
    cat = positive_roots(fixture("a2"))
    t = cat.by_dimv[(1, 1)].id
    assert dimvs_of(cat, bongartz(cat, (t,))) == [(0, 1)]
    assert dimvs_of(cat, dual_bongartz(cat, (t,))) == [(1, 0)]


def test_bongartz_completion_is_tilting():
    for name in ("a3", "b2", "b3", "g2"):
        cat = positive_roots(fixture(name))
        for ids in iter_rigid_sets(cat):
            full = set(ids) | bongartz(cat, ids)
            assert is_rigid(cat, full)
            assert len(full) == cat.algebra.n
            dual = set(ids) | dual_bongartz(cat, ids)
            assert is_rigid(cat, dual)
            assert len(dual) == cat.algebra.n
            assert relative_bongartz(cat, ids) <= bongartz(cat, ids)


def test_relative_bongartz_g2():
    cat = positive_roots(fixture("g2"))
    p2 = cat.by_dimv[(0, 1)].id
    assert relative_bongartz(cat, (p2,)) == frozenset()
    b1, b2 = bongartz_split(cat, (p2,))
    assert b1 == frozenset() and dimvs_of(cat, b2) == [(1, 3)]
    d = cat.by_dimv[(1, 2)].id
    b1, b2 = bongartz_split(cat, (d,))
    assert dimvs_of(cat, b1) == [(1, 3)] and b2 == frozenset()


def test_relative_bongartz_a3():
    cat = positive_roots(fixture("a3"))
    e2 = cat.by_dimv[(0, 1, 0)].id
    b1, b2 = bongartz_split(cat, (e2,))
    assert b1 == frozenset()
    assert dimvs_of(cat, b2) == [(0, 1, 1), (1, 1, 1)]
    c1, c2 = dual_bongartz_split(cat, (e2,))
    assert c1 == frozenset() and len(c2) == 2


def test_verify_b2_structure_examples():
    g2 = positive_roots(fixture("g2"))
    rep = verify_b2_structure(g2, (g2.by_dimv[(0, 1)].id,))
    assert rep.ok and rep.sigma == (0,)

    a2 = positive_roots(fixture("a2"))
    rep = verify_b2_structure(a2, (a2.by_dimv[(0, 1)].id,))
    assert rep.ok and a2.entries[rep.b2_matching[0]].dimv == (1, 1)
    rep = verify_b2_structure(a2, ())
    assert rep.ok and set(rep.b2_matching) == {0, 1}

    a3 = positive_roots(fixture("a3"))
    rep = verify_b2_structure(a3, (a3.by_dimv[(0, 1, 0)].id,))
    assert rep.ok and rep.sigma == (0, 2)


def test_verify_b2_structure_all_rigid_sets():
    for name in ("a2", "a3", "b2", "g2"):
        cat = positive_roots(fixture(name))
        for ids in iter_rigid_sets(cat):
            rep = verify_b2_structure(cat, ids)
            assert rep.ok
            _, sigma = support(cat, ids)
            assert len(rep.b2_matching) == len(sigma)


def test_endo_length_shadow_of_b2():
    # the out-of-support completion parts carry the dropped symmetrizer entries
    for name in ("a3", "g2", "b3"):
        cat = positive_roots(fixture(name))
        u = cat.algebra.symmetrizer
        for st in enumerate_support_tilting(cat):
            _, b2 = bongartz_split(cat, st.ids)
            got = sorted(cat.entries[i].q for i in b2)
            want = sorted(u[v] for v in st.sigma)
            assert got == want


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_canonical_completion_matches_brute_force(name):
    # the direct rule against every tilting completion filtered by the ext
    # test, for every rigid set, in the full window and in its support
    alg = fixture(name)
    cat = positive_roots(alg)
    n = alg.n
    for t in oracle_rigid_sets(alg.euler, cat.dimvs()):
        ids = [cat.by_dimv[d].id for d in t]
        for window in (range(n), sorted(oracle_support(t, n))):
            for dual, complete in ((False, bongartz), (True, dual_bongartz)):
                got = frozenset(cat.entries[i].dimv for i in complete(cat, ids, within=window))
                want = oracle_canonical_completions(alg.euler, cat.dimvs(), t, window, dual)
                assert want == [got], (sorted(t), list(window), dual)


def test_missing_completion_names_t_and_window():
    # without (1,1) neither the projectives nor the injectives of A2 fit
    cat = positive_roots(fixture("a2"))
    assert cat.entries[-1].dimv == (1, 1)
    truncated = RootCatalog(kind=cat.kind, algebra=cat.algebra, entries=cat.entries[:-1])
    for complete in (bongartz, dual_bongartz):
        with pytest.raises(NoCompletion, match=r"of \(\) in window \[0, 1\]: 1 candidates for 2"):
            complete(truncated, ())
