import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import (
    FINITE_FIXTURES,
    bongartz,
    build_algebra,
    build_complex,
    catalog_for,
    complements,
    decode_face,
    dual_bongartz,
    enumerate_support_tilting,
    fixture,
    is_rigid,
    positive_roots,
    rank2_sequences,
    support,
)
from clustercomplex import tilting
from clustercomplex.errors import NoCompletion, NotAlmostComplete, NotFiniteType
from clustercomplex.fixtures import RANK2_INFINITE_FIXTURES
from clustercomplex.homext import ExtKernel, ids_of, mask_of
from clustercomplex.roots import RootCatalog

from oracles import (
    KNOWN_FACET_COUNTS,
    oracle_bases,
    oracle_canonical_completions,
    oracle_cliques,
    oracle_det,
    oracle_facets,
    oracle_matchings,
    oracle_rigid_sets,
    oracle_support,
)
from test_scale import _algebra, _orientations


def dimvs_of(cat, ids):
    return sorted(cat.entries[i].dimv for i in ids)


def split(cat, ids, dual=False):
    """(in-support part, rest) of T's full completion: B1 and B2, or with
    dual C1 and C2.  The in-support part is the completion inside T's
    support, and it lies inside the full one."""
    complete = dual_bongartz if dual else bongartz
    part, full = complete(cat, ids, within=support(cat, ids)[0]), complete(cat, ids)
    assert part <= full, (ids, dual)
    return part, full - part


def matchings(cat, ids, bases, dual=False):
    """Every pairing of the vertices T leaves unsupported with B2 (with
    dual, C2) that `oracle_matchings` accepts, as vertex -> dimension
    vector; `bases` are the projectives (with dual, the injectives)."""
    part = [cat.entries[i].dimv for i in sorted(split(cat, ids, dual)[1])]
    sigma = sorted(support(cat, ids)[1])
    return oracle_matchings(bases, [cat.entries[i].dimv for i in ids], part, sigma)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(width=st.integers(1, 1000), size=st.integers(0, 1000), count=st.integers(0, 30),
       seed=st.integers(0, 2**32))
def test_facet_order_is_the_vertex_tuple_order(width, size, count, seed):
    # the bit-reversal key orders equal-popcount masks of any width by
    # ascending vertex tuple
    size, rng = min(size, width), random.Random(seed)
    faces = {mask_of(rng.sample(range(width), size)) for _ in range(count)}
    assert tilting.sort_facets(faces) == sorted(faces, key=ids_of)


def test_rev8_reverses_each_byte():
    assert [tilting.REV8[b] for b in range(256)] == [int(f"{b:08b}"[::-1], 2) for b in range(256)]


@pytest.mark.parametrize("name", RANK2_INFINITE_FIXTURES)
def test_window_facet_order_is_the_vertex_tuple_order(name):
    # 806-bit facets at t_max 200
    cat = catalog_for(fixture(name), t_max=200)
    assert max(cat.facets).bit_length() > 800
    faces = build_complex(cat).faces
    assert list(cat.facets) == sorted((f for f in faces if f.bit_count() == 2), key=ids_of)


@pytest.mark.parametrize("name", sorted(KNOWN_FACET_COUNTS))
def test_facet_counts(name):
    alg = fixture(name)
    cat = positive_roots(alg)
    facets = enumerate_support_tilting(cat)
    assert len(facets) == KNOWN_FACET_COUNTS[name]
    expected = {frozenset(cat.entries[i].dimv for i in decode_face(alg.n, f)[0]) for f in facets}
    assert expected == set(oracle_facets(alg.euler, cat.dimvs()))


def test_facets_have_basis_dimvs():
    for name in ("a3", "b3", "g2", "d4"):
        cat = positive_roots(fixture(name))
        for face in enumerate_support_tilting(cat):
            ids, face_sigma = decode_face(cat.algebra.n, face)
            if not ids:
                continue
            supp, sigma = support(cat, ids)
            assert len(ids) == len(supp)
            assert tuple(sorted(sigma)) == face_sigma
            restricted = [[cat.entries[i].dimv[v] for v in sorted(supp)] for i in ids]
            assert oracle_det(restricted) != 0


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


@pytest.mark.parametrize("bad", [7, -1])
def test_out_of_range_window_vertex_is_rejected(bad):
    # a valid window always has one or two complements and a completion
    cat = positive_roots(fixture("a2"))
    s = cat.by_dimv[(1, 0)].id
    window = {0, bad}
    for call in (complements, bongartz, dual_bongartz):
        with pytest.raises(ValueError, match=f"window vertex {bad} "):
            call(cat, (s,), within=window)


def test_completions_reject_a_window_catalog():
    cat = rank2_sequences(fixture("kronecker"), 3)
    for complete in (bongartz, dual_bongartz):
        with pytest.raises(NotFiniteType, match="canonical completion requires a finite catalog"):
            complete(cat, ())


def test_completions_reject_a_non_rigid_set():
    # adjacent simples of A3 have ext in one direction
    cat = positive_roots(fixture("a3"))
    t = (cat.by_dimv[(1, 0, 0)].id, cat.by_dimv[(0, 1, 0)].id)
    assert not is_rigid(cat, t)
    for call in (bongartz, complements):
        with pytest.raises(ValueError, match="T must be rigid"):
            call(cat, t)


def test_support_escaping_the_window_names_both():
    cat = positive_roots(fixture("a3"))
    t = (cat.by_dimv[(1, 1, 0)].id,)
    for complete in (bongartz, dual_bongartz):
        with pytest.raises(ValueError, match=r"^support \[0, 1\] escapes window \[1, 2\]$"):
            complete(cat, t, within=[2, 1])


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
        for face in enumerate_support_tilting(cat):
            ids, _ = decode_face(cat.algebra.n, face)
            w, _ = support(cat, ids)
            for m in ids:
                rest = tuple(i for i in ids if i != m)
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
        for members, _, _ in oracle_cliques(cat):
            ids = ids_of(members)
            full = set(ids) | bongartz(cat, ids)
            assert is_rigid(cat, full)
            assert len(full) == cat.algebra.n
            dual = set(ids) | dual_bongartz(cat, ids)
            assert is_rigid(cat, dual)
            assert len(dual) == cat.algebra.n
            assert bongartz(cat, ids, within=support(cat, ids)[0]) <= bongartz(cat, ids)


def test_relative_bongartz_g2():
    cat = positive_roots(fixture("g2"))
    p2 = cat.by_dimv[(0, 1)].id
    assert bongartz(cat, (p2,), within=support(cat, (p2,))[0]) == frozenset()
    b1, b2 = split(cat, (p2,))
    assert b1 == frozenset() and dimvs_of(cat, b2) == [(1, 3)]
    d = cat.by_dimv[(1, 2)].id
    b1, b2 = split(cat, (d,))
    assert dimvs_of(cat, b1) == [(1, 3)] and b2 == frozenset()


def test_relative_bongartz_a3():
    cat = positive_roots(fixture("a3"))
    e2 = cat.by_dimv[(0, 1, 0)].id
    b1, b2 = split(cat, (e2,))
    assert b1 == frozenset()
    assert dimvs_of(cat, b2) == [(0, 1, 1), (1, 1, 1)]
    c1, c2 = split(cat, (e2,), dual=True)
    assert c1 == frozenset() and len(c2) == 2


def test_relative_dual_bongartz_g2():
    cat = positive_roots(fixture("g2"))
    s1 = cat.by_dimv[(1, 0)].id
    assert dual_bongartz(cat, (s1,), within=support(cat, (s1,))[0]) == frozenset()
    c1, c2 = split(cat, (s1,), dual=True)
    assert c1 == frozenset() and dimvs_of(cat, c2) == [(1, 1)]
    d = cat.by_dimv[(1, 2)].id
    c1, c2 = split(cat, (d,), dual=True)
    assert dimvs_of(cat, c1) == [(2, 3)] and c2 == frozenset()


def test_relative_dual_bongartz_a3():
    cat = positive_roots(fixture("a3"))
    e2 = cat.by_dimv[(0, 1, 0)].id
    assert dual_bongartz(cat, (e2,), within=support(cat, (e2,))[0]) == frozenset()
    c1, c2 = split(cat, (e2,), dual=True)
    assert c1 == frozenset() and dimvs_of(cat, c2) == [(1, 1, 0), (1, 1, 1)]
    t = cat.by_dimv[(1, 1, 0)].id
    c1, c2 = split(cat, (t,), dual=True)
    assert dimvs_of(cat, c1) == [(1, 0, 0)] and dimvs_of(cat, c2) == [(1, 1, 1)]


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_relative_completions_lie_inside_the_full_ones(name):
    cat = positive_roots(fixture(name))
    for members, _, _ in oracle_cliques(cat):
        ids = ids_of(members)
        assert bongartz(cat, ids, within=support(cat, ids)[0]) <= bongartz(cat, ids)
        assert dual_bongartz(cat, ids, within=support(cat, ids)[0]) <= dual_bongartz(cat, ids)


def test_verify_b2_structure_examples():
    # B2 and C2 pair with the vertices T leaves unsupported, one way each
    def both(cat, dimvs):
        ids = [cat.by_dimv[d].id for d in dimvs]
        return [matchings(cat, ids, oracle_bases(cat.algebra.euler, cat.dimvs(), dual), dual)
                for dual in (False, True)]

    g2 = positive_roots(fixture("g2"))
    assert both(g2, [(0, 1)]) == [[{0: (1, 3)}], [{0: (1, 3)}]]

    a2 = positive_roots(fixture("a2"))
    assert both(a2, [(0, 1)]) == [[{0: (1, 1)}], [{0: (1, 1)}]]
    # with T empty, B2 and C2 are the projectives and the injectives
    assert both(a2, []) == [[{0: (1, 1), 1: (0, 1)}], [{0: (1, 0), 1: (1, 1)}]]

    a3 = positive_roots(fixture("a3"))
    assert both(a3, [(0, 1, 0)]) == [[{0: (1, 1, 1), 2: (0, 1, 1)}],
                                     [{0: (1, 1, 0), 2: (1, 1, 1)}]]


def _drawn_chain(n, doubled, symmetrizer, seed):
    """A chain of n vertices with c[i][j] = -2 at `doubled`, each arrow drawn
    in a random direction."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    cartan[doubled[0]][doubled[1]] = -2
    rng = random.Random(seed)
    arrows = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n - 1)]
    return build_algebra(cartan, symmetrizer, arrows)


DRAWN = {
    "B6": lambda: _drawn_chain(6, (5, 4), [2] * 5 + [1], 3),
    "F4": lambda: _drawn_chain(4, (1, 2), [1, 1, 2, 2], 3),
}


def _levels_follow_the_walk(cat, items):
    """Each level of `rigid_faces` holds the faces of its size that the
    oracle's rigid sets span, in their walk order, each set's faces by
    descending sigma."""
    n, everything, faces = cat.algebra.n, (1 << cat.algebra.n) - 1, []
    for members, supp, _ in items:
        free = everything & ~supp
        faces += [members << n | sigma for sigma in range(free, -1, -1) if sigma & ~free == 0]
    levels = tilting.rigid_faces(cat)
    assert len(levels) == n + 1
    for k, level in enumerate(levels):
        assert list(level) == [face for face in faces if face.bit_count() == k]


@pytest.mark.parametrize("name", FINITE_FIXTURES + tuple(DRAWN))
def test_walk_yields_member_and_support_masks(name):
    # the reference walk's (members, support, cand) triples against the
    # grown oracle: the same rigid sets, each once, the empty set first, in
    # pre-order (ascending id tuples, a set before its extensions), each
    # with its support's mask and the members that extend it to a rigid
    # set; `iter_rigid_sets` yields them item for item in face coordinates
    # (size, top, reach), and each level of `rigid_faces` holds the sets'
    # faces of its size in that order
    alg = DRAWN[name]() if name in DRAWN else fixture(name)
    cat = positive_roots(alg)
    items = list(oracle_cliques(cat))
    assert items[0] == (0, 0, (1 << len(cat)) - 1)
    ids = [ids_of(members) for members, _, _ in items]
    assert ids == sorted(ids)
    found = [frozenset(cat.entries[i].dimv for i in t) for t in ids]
    assert len(found) == len(set(found))
    rigid = set(oracle_rigid_sets(alg.euler, cat.dimvs()))
    assert set(found) == rigid
    for t, dimvs, (_, supp, cand) in zip(ids, found, items):
        assert supp == reduce(or_, (cat.kernel.support[i] for i in t), 0)
        assert ids_of(supp) == tuple(sorted(oracle_support([cat.entries[i].dimv for i in t], alg.n)))
        assert ids_of(cand) == tuple(e.id for e in cat.entries
                                     if e.id not in t and dimvs | {e.dimv} in rigid)
    n, everything = alg.n, (1 << alg.n) - 1
    walk = list(tilting.iter_rigid_sets(cat))
    assert len(walk) == len(items)
    for (size, top, reach), (members, supp, cand) in zip(walk, items):
        assert (size, top >> n, reach & everything, reach >> n) == (
            members.bit_count(), members, everything & ~supp, cand)
        assert top & everything == 0
    _levels_follow_the_walk(cat, items)


def test_levels_follow_the_walk_on_drawn_types_and_windows():
    # the level-order pin of the test above on one drawn orientation each
    # of A6, D6, E6, B6 and E7, and on the rank-2 windows
    catalogs = [positive_roots(_algebra(name, _orientations(name, 1)[0]))
                for name in ("A6", "D6", "E6", "B6", "E7")]
    catalogs += [rank2_sequences(fixture(name), t_max) for name in RANK2_INFINITE_FIXTURES
                 for t_max in (0, 3, 10, 200)]
    for cat in catalogs:
        _levels_follow_the_walk(cat, oracle_cliques(cat))


def test_faces_rebuild_no_member_or_support_mask(monkeypatch):
    # the walk hands over both masks, so building d4's faces builds neither
    # again from ids
    calls = []
    for owner, name in ((tilting, "mask_of"), (ExtKernel, "support_of")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    cat = positive_roots(fixture("d4"))
    assert 0 in cat.faces[0] and len(cat.facets) == KNOWN_FACET_COUNTS["d4"]
    assert calls == []
    bongartz(cat, (0,))  # the wrappers count when called
    assert sorted(set(calls)) == ["mask_of", "support_of"]


def test_verify_b2_structure_all_rigid_sets():
    # B2 is the full completion minus the one inside T's support, C2 the
    # dual one; on every rigid set of every finite fixture and two drawn
    # orientations, trying every bijection finds exactly one matching of
    # each with the vertices T leaves unsupported
    algebras = [fixture(name) for name in FINITE_FIXTURES] + [draw() for draw in DRAWN.values()]
    for alg in algebras:
        cat = positive_roots(alg)
        bases = {dual: oracle_bases(alg.euler, cat.dimvs(), dual) for dual in (False, True)}
        for members, _, _ in oracle_cliques(cat):
            ids = ids_of(members)
            for dual in (False, True):
                assert len(matchings(cat, ids, bases[dual], dual)) == 1, (ids, dual)


def test_endo_length_shadow_of_b2():
    # the out-of-support completion parts carry the dropped symmetrizer entries
    for name in ("a3", "g2", "b3"):
        cat = positive_roots(fixture(name))
        u = cat.algebra.symmetrizer
        for face in enumerate_support_tilting(cat):
            ids, sigma = decode_face(cat.algebra.n, face)
            _, b2 = split(cat, ids)
            got = sorted(cat.entries[i].q for i in b2)
            want = sorted(u[v] for v in sigma)
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
