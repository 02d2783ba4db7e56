import json
from itertools import combinations

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    build_algebra,
    build_complex,
    coface_profile,
    decode_face,
    encode_face,
    enumerate_support_tilting,
    exchange_graph,
    fixture,
    is_rigid,
    iter_rigid_sets,
    positive_roots,
    rank2_sequences,
    rank2_window_complex,
    support,
    verify_ap_axioms,
    verify_flag_connected,
)
from clustercomplex import polytope
from clustercomplex.cli import main
from clustercomplex.errors import NotFiniteType, NotProperFace, NotRankTwoInfinite
from clustercomplex.homext import ids_of
from clustercomplex.polytope import (
    ClusterComplex,
    complex_from_facets,
    is_path,
    is_single_cycle,
    window_complex_from_facets,
)
from clustercomplex.tilting import support_tilting_sets
from oracles import (
    oracle_diamonds,
    oracle_flags_connected,
    oracle_pure,
    oracle_simplicial,
    vertex_sets,
)


def build(name):
    return build_complex(positive_roots(fixture(name)))


def test_counts_pentagon():
    cx = build("a2")
    assert len(cx.facets) == 5
    # 1 empty + 5 vertices + 5 edges; the top sentinel makes 12
    assert len(cx.faces) == 11
    vertices = [f for f in cx.faces if f.bit_count() == 1]
    assert len(vertices) == cx.n + 3


def test_counts_a1():
    cx = build("a1")
    assert len(cx.facets) == 2
    assert len(cx.faces) == 3  # empty face and two vertices


def test_vertex_count_is_n_plus_roots():
    for name in ("a2", "a3", "b2", "b3", "g2", "d4"):
        cat = positive_roots(fixture(name))
        cx = build_complex(cat)
        vertices = set().union(*vertex_sets(cx.faces))
        assert len(vertices) == cx.n + len(cat)


def test_face_set_equals_all_valid_pairs():
    # every rigid pair (T, sigma) with sigma avoiding supp(T) is a face, and
    # conversely; checked exhaustively for n <= 3
    for name in ("a1", "a1xa1", "a2", "b2", "g2", "a3", "b3"):
        cat = positive_roots(fixture(name))
        cx = build_complex(cat)
        n = cx.n
        expected = set()
        for ids in iter_rigid_sets(cat):
            _, sigma = support(cat, ids)
            for size in range(len(sigma) + 1):
                for sub in combinations(sorted(sigma), size):
                    expected.add(frozenset(sub) | frozenset(n + i for i in ids))
        assert expected == vertex_sets(cx.faces)


def _agrees_with_oracles(cx):
    report = verify_ap_axioms(cx)
    faces = vertex_sets(cx.faces)
    assert report.ap1 == (frozenset() in faces and bool(cx.facets))
    assert report.ap2 == oracle_pure(faces, cx.n)
    assert report.simplicial == oracle_simplicial(faces)
    assert report.ap4 == (not report.bad_ridges and oracle_diamonds(faces))
    return report


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_axioms_pass(name):
    report = _agrees_with_oracles(build(name))
    assert report.ap1 and report.ap2 and report.ap4 and report.simplicial
    assert not report.bad_ridges


def _mutants(cx):
    """Hand-damaged face sets over the same facets, by name."""
    faces = cx.faces
    vertex = min(f for f in faces if f.bit_count() == 1)
    middle = min((f for f in faces if 1 < f.bit_count() < cx.n), key=ids_of)
    stray = 1 << max(f.bit_length() for f in faces)
    return {
        "empty face dropped": (cx.facets, faces - {0}),
        "vertex dropped": (cx.facets, faces - {vertex}),
        "mid-rank face dropped": (cx.facets, faces - {middle}),
        "small maximal face": (cx.facets, faces | {stray}),
        "facet list short": (cx.facets[1:], faces),
        "no facets": ((), frozenset()),
        "no facets, empty face": ((), frozenset({0})),
    }


def test_every_axiom_key_can_fail():
    failed = set()
    for name in ("a3", "b3", "d4"):
        cx = build(name)
        for label, (facets, faces) in _mutants(cx).items():
            mutant = ClusterComplex(catalog=cx.catalog, support_tiltings=cx.support_tiltings,
                                    facets=facets, faces=faces)
            report = _agrees_with_oracles(mutant)
            assert not report.ok, (name, label)
            failed |= {key for key in ("ap1", "ap2", "ap4", "simplicial")
                       if not getattr(report, key)}
    assert failed == {"ap1", "ap2", "ap4", "simplicial"}


def test_axioms_fail_on_corrupted_complex():
    cat = positive_roots(fixture("a2"))
    sts = enumerate_support_tilting(cat)
    broken = complex_from_facets(cat, [st for st in sts if st.ids])  # drop the zero facet
    report = verify_ap_axioms(broken)
    assert not report.ap4
    assert report.bad_ridges


def test_exchange_graph_polygons():
    for name, size in (("a1xa1", 4), ("a2", 5), ("b2", 6), ("g2", 8)):
        cx = build(name)
        adj = exchange_graph(cx)
        assert len(adj) == size
        assert is_single_cycle(adj)


def test_flag_connectivity():
    for name in ("a1", "a1xa1", "a2", "a3", "b2", "b3", "g2"):
        cx = build(name)
        report = verify_flag_connected(cx)
        assert report.exchange_connected
        assert report.zero_reachable
        assert report.cofaces_connected
        assert report.thin
        assert oracle_flags_connected(vertex_sets(cx.facets))


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_flag_check_agrees_with_literal_walk(name):
    # the fixture and every complex left by dropping one of its facets
    cat = positive_roots(fixture(name))
    sts = enumerate_support_tilting(cat)
    for dropped in [None] + sts:
        cx = complex_from_facets(cat, [st for st in sts if st != dropped])
        report = verify_flag_connected(cx)
        assert report.ok == oracle_flags_connected(vertex_sets(cx.facets)), (name, dropped)
        assert report.ok == (dropped is None)


def test_strong_flag_fails_at_any_size(monkeypatch, capsys, tmp_path):
    # A6 has 429 facets and 720 flags per facet; a dropped facet leaves every
    # co-face connected, so only thinness can catch it
    n = 6
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    path = tmp_path / "a6.json"
    path.write_text(json.dumps({"cartan": cartan, "symmetrizer": [1] * n,
                                "arrows": [[i, i + 1] for i in range(1, n)]}))
    cat = positive_roots(build_algebra(cartan, [1] * n, [(i, i + 1) for i in range(n - 1)]))
    victim = enumerate_support_tilting(cat)[-1]  # a sincere facet
    assert len(victim.ids) == n

    monkeypatch.setattr(polytope, "enumerate_support_tilting",
                        lambda catalog: [st for st in enumerate_support_tilting(catalog)
                                         if st != victim])
    assert main(["verify", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("facets=428") and "strong-flag ✗" in out


def _first_faulty_faces(cx):
    """By brute force over vertex sets: the first face, by size and then
    vertex tuple, whose co-face is disconnected, and the first ridge not held
    by exactly two facets."""
    facets = vertex_sets(cx.facets)
    disconnected, thick = [], []
    for face in sorted(vertex_sets(cx.faces), key=lambda face: (len(face), sorted(face))):
        if len(face) == cx.n:
            continue
        held = [f for f in facets if face <= f]
        if len(face) == cx.n - 1 and len(held) != 2:
            thick.append(face)
        seen, stack = set(held[:1]), held[:1]
        while stack:
            f = stack.pop()
            for g in held:
                if g not in seen and len(f & g) == cx.n - 1:
                    seen.add(g)
                    stack.append(g)
        if len(seen) != len(held):
            disconnected.append(face)
    return (disconnected[0] if disconnected else None), (thick[0] if thick else None)


def _vertex_set(face):
    return None if face is None else next(iter(vertex_sets([face])))


def test_flag_witnesses_name_the_first_faulty_faces():
    # a3 with one facet dropped (ridges held once) and with two facets
    # dropped (a vertex whose pentagon of facets splits in two)
    cat = positive_roots(fixture("a3"))
    sts = enumerate_support_tilting(cat)
    report = verify_flag_connected(build_complex(cat))
    assert report.coface_witness is None and report.ridge_witness is None
    drops = [(a,) for a in sts] + list(combinations(sts, 2))
    kinds = set()
    for dropped in drops:
        cx = complex_from_facets(cat, [st for st in sts if st not in dropped])
        report = verify_flag_connected(cx)
        coface, ridge = _first_faulty_faces(cx)
        assert _vertex_set(report.coface_witness) == coface, dropped
        assert _vertex_set(report.ridge_witness) == ridge, dropped
        assert report.cofaces_connected == (coface is None)
        assert report.thin == (ridge is None)
        assert ridge is not None  # every drop leaves a ridge held once
        assert verify_ap_axioms(cx).bad_ridges[0] == report.ridge_witness
        kinds.add((len(dropped), coface is None))
    assert kinds == {(1, True), (2, True), (2, False)}


def test_coface_profiles_g2():
    cat = positive_roots(fixture("g2"))
    cx = build_complex(cat)
    v = 1 << (cx.n + cat.by_dimv[(1, 2)].id)
    prof = coface_profile(cx, v)
    assert prof.rank == 1 and prof.facet_count == 2
    empty = coface_profile(cx, 0)
    assert empty.rank == 2 and empty.polygon == "octagon" and empty.ok


def test_coface_profiles_a3():
    cat = positive_roots(fixture("a3"))
    cx = build_complex(cat)
    facet = cx.facets[0]
    prof = coface_profile(cx, facet)
    assert prof.rank == 0 and prof.facet_count == 1
    sincere = 1 << (cx.n + cat.by_dimv[(1, 1, 1)].id)
    assert coface_profile(cx, sincere).polygon == "pentagon"
    with pytest.raises(NotProperFace):
        coface_profile(cx, 1 << 999)


def test_coface_profile_high_rank():
    cat = positive_roots(fixture("d4"))
    cx = build_complex(cat)
    sincere = 1 << (cx.n + cat.by_dimv[(1, 2, 1, 1)].id)
    prof = coface_profile(cx, sincere)
    assert prof.rank == 3 and prof.polygon is None and prof.ok
    assert prof.facet_count > 2
    whole = coface_profile(cx, 0)
    assert whole.rank == 4 and whole.facet_count == 50


def test_coface_polygon_classification_everywhere():
    # every rank-2 co-face in every fixture is one of the four polygons
    for name in ("a3", "b3", "c3", "d4"):
        cat = positive_roots(fixture(name))
        cx = build_complex(cat)
        seen = set()
        for face in cx.faces:
            prof = coface_profile(cx, face)
            if prof.rank == 2:
                assert prof.ok and prof.polygon is not None
                seen.add(prof.polygon)
        if name in ("b3", "c3"):
            assert "hexagon" in seen
        if name == "d4":
            assert seen == {"square", "pentagon"}


def test_face_encoding_roundtrip():
    cat = positive_roots(fixture("a3"))
    for st in enumerate_support_tilting(cat):
        face = encode_face(cat.algebra.n, st)
        assert decode_face(cat.algebra.n, face) == (st.ids, st.sigma)


def test_window_complex_kronecker():
    cat = rank2_sequences(fixture("kronecker"), 4)
    window = rank2_window_complex(cat)
    assert window.facets_expected
    assert window.interior_ridges_ok
    assert window.path_ok
    assert len(window.facets) == 21  # 9 + 9 neighbour pairs and 3 coordinate facets
    sincere = [st for st in window.support_tiltings if not st.sigma]
    assert all(len(st.ids) == 2 and is_rigid(cat, st.ids) for st in sincere)


def test_window_complex_valued15():
    cat = rank2_sequences(fixture("valued15"), 3)
    window = rank2_window_complex(cat)
    assert window.ok


def test_window_complex_rejects_finite():
    with pytest.raises(NotRankTwoInfinite):
        rank2_window_complex(rank2_sequences(fixture("g2"), 4))
    with pytest.raises(NotFiniteType):
        build_complex(rank2_sequences(fixture("kronecker"), 4))


def test_is_path_helper():
    assert is_path({0: (1,), 1: (0, 2), 2: (1,)})
    assert not is_path({0: (1,), 1: (0,), 2: ()})
    assert is_path({0: ()})


def test_window_checks_fail_on_dropped_facet(monkeypatch, capsys):
    # drop one neighbour pair from the middle of the forward family: the facet
    # list is wrong, its two members lie in one facet each, and the path splits
    cat = rank2_sequences(fixture("kronecker"), 4)
    sts = support_tilting_sets(cat)
    pairs = [st for st in sts if len(st.ids) == 2]
    victim = pairs[len(pairs) // 4]
    kept = [st for st in sts if st != victim]
    window = window_complex_from_facets(cat, kept)
    assert not window.facets_expected
    assert not window.interior_ridges_ok
    assert not window.path_ok

    monkeypatch.setattr(polytope, "support_tilting_sets",
                        lambda catalog: [st for st in support_tilting_sets(catalog) if st != victim])
    assert main(["verify", "--fixture", "kronecker", "--t-max", "4"]) == 1
    out = capsys.readouterr().out
    assert "window-facets ✗" in out and "interior-ridges ✗" in out and "path ✗" in out
    assert "total-order ✓" in out and "rank2-descent ✓" in out
