import json
from dataclasses import replace
from itertools import combinations

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    RANK2_INFINITE_FIXTURES,
    build_algebra,
    build_complex,
    decode_face,
    enumerate_support_tilting,
    exchange_graph,
    fixture,
    is_rigid,
    positive_roots,
    rank2_sequences,
    rank2_window_complex,
    verify_ap_axioms,
    verify_flag_connected,
)
from clustercomplex import cli, polytope
from clustercomplex.cli import main
from clustercomplex.errors import NotRankTwoInfinite
from clustercomplex.homext import ids_of, mask_of
from clustercomplex.polytope import (
    _flood_floor,
    _unreached,
    is_path,
)
from clustercomplex.roots import RootCatalog
from clustercomplex.tilting import iter_rigid_sets
from oracles import (
    as_facet,
    complex_of,
    downward_closure,
    is_single_cycle,
    link_ups,
    oracle_diamonds,
    oracle_exchange_graph,
    oracle_faces,
    oracle_flags_connected,
    oracle_link_unreached,
    oracle_pure,
    oracle_rigid_sets,
    oracle_simplicial,
    oracle_support,
    oracle_up,
    oracle_widest_up,
    support,
    vertex_sets,
)
from test_scale import DYNKIN, _algebra, _orientations


def build(name):
    return build_complex(positive_roots(fixture(name)))


def test_counts_pentagon():
    cx = build("a2")
    assert len(cx.facets) == 5
    # 1 empty + 5 vertices + 5 edges; the top sentinel makes 12
    assert len(cx.faces) == 11
    vertices = [f for f in oracle_faces(cx.catalog) if f.bit_count() == 1]
    assert len(vertices) == cx.n + 3


def test_counts_a1():
    cx = build("a1")
    assert len(cx.facets) == 2
    assert len(cx.faces) == 3  # empty face and two vertices


def test_vertex_count_is_n_plus_roots():
    for name in ("a2", "a3", "b2", "b3", "g2", "d4"):
        cat = positive_roots(fixture(name))
        cx = build_complex(cat)
        vertices = set().union(*vertex_sets(cx.facets))
        assert len(vertices) == cx.n + len(cat)


def _face_set_catalogs():
    """Every finite fixture, two drawn orientations of each `DYNKIN` type,
    and the kronecker and valued15 windows at t_max 0, 3 and 10."""
    catalogs = [positive_roots(fixture(name)) for name in FINITE_FIXTURES]
    catalogs += [positive_roots(_algebra(name, directions)) for name in sorted(DYNKIN)
                 for directions in _orientations(name, 2)]
    catalogs += [rank2_sequences(fixture(name), t_max) for name in RANK2_INFINITE_FIXTURES
                 for t_max in (0, 3, 10)]
    return catalogs


def test_face_set_equals_all_valid_pairs():
    # every rigid pair (T, sigma) with sigma avoiding supp(T) is a face, and
    # conversely, T ranging over the rigid sets the oracle grows on the raw
    # Euler matrix; and the pairs are exactly the subsets of the walk's
    # facets, one visited face each
    for cat in _face_set_catalogs():
        cx, faces = build_complex(cat), oracle_faces(cat)
        n = cx.n
        index = {dimv: n + i for i, dimv in enumerate(cat.dimvs())}
        assert len(index) == len(cat)
        expected = set()
        for t in oracle_rigid_sets(cat.algebra.euler, cat.dimvs()):
            members = frozenset(index[dimv] for dimv in t)
            sigma = sorted(set(range(n)) - oracle_support(t, n))
            for size in range(len(sigma) + 1):
                for sub in combinations(sigma, size):
                    expected.add(frozenset(sub) | members)
        assert expected == vertex_sets(faces)
        assert faces == downward_closure(cx.facets)
        assert len(cx.faces) == len(faces)


def test_walk_yields_each_face_once():
    # the walk yields each rigid set once, and its 2^|free| faces add up to
    # the faces the loop visits and to the oracle's face set; the walk's
    # (size, top, reach) are in face coordinates, the members in top >> n
    # and the free vertices in reach & everything
    for cat in _face_set_catalogs():
        everything = (1 << cat.algebra.n) - 1
        sets = list(iter_rigid_sets(cat))
        assert len({top for _, top, _ in sets}) == len(sets)
        assert all(size == top.bit_count() and not top & everything for size, top, _ in sets)
        assert sum(1 << (reach & everything).bit_count() for _, _, reach in sets) == len(
            build_complex(cat).faces) == len(oracle_faces(cat))


def _agrees_with_oracles(cx, faces):
    report = verify_ap_axioms(cx)
    faces = vertex_sets(faces)
    assert report.ap1 == (frozenset() in faces and bool(cx.facets))
    assert report.ap2 == oracle_pure(faces, cx.n)
    assert report.simplicial == oracle_simplicial(faces)
    assert report.ap4 == (not report.bad_ridges and oracle_diamonds(faces))
    return report


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_axioms_pass(name):
    cat = positive_roots(fixture(name))
    report = _agrees_with_oracles(build_complex(cat), oracle_faces(cat))
    assert report.ap1 and report.ap2 and report.ap4 and report.simplicial
    assert not report.bad_ridges


def _mutants(cx):
    """Hand-damaged walk face sets, by name."""
    faces = oracle_faces(cx.catalog)
    vertex = min(f for f in faces if f.bit_count() == 1)
    middle = min((f for f in faces if 1 < f.bit_count() < cx.n), key=ids_of)
    stray = 1 << max(f.bit_length() for f in faces)
    return {
        "empty face dropped": faces - {0},
        "vertex dropped": faces - {vertex},
        "mid-rank face dropped": faces - {middle},
        "small maximal face": faces | {stray},
        "facet dropped": faces - {cx.facets[0]},
        "no facets": frozenset(),
        "no facets, empty face": frozenset({0}),
    }


def test_every_axiom_key_can_fail():
    failed = set()
    for name in ("a3", "b3", "d4"):
        cx = build(name)
        for label, faces in _mutants(cx).items():
            mutant = complex_of(cx.catalog, faces)
            report = _agrees_with_oracles(mutant, faces)
            assert not report.ok, (name, label)
            failed |= {key for key in ("ap1", "ap2", "ap4", "simplicial")
                       if not getattr(report, key)}
    assert failed == {"ap1", "ap2", "ap4", "simplicial"}


def test_verify_builds_one_scan(monkeypatch, capsys):
    # a work count, not a time: the axioms, the flag check, the facets and
    # the descent of one `verify` all read one loop over the walk
    builds = []
    walk = polytope.walk_complex

    def counted(catalog, least=None):
        builds.append(catalog)
        return walk(catalog, least)

    monkeypatch.setattr(polytope, "walk_complex", counted)
    assert main(["verify", "--fixture", "d4"]) == 0
    assert "facets=50" in capsys.readouterr().out
    assert len(builds) == 1


def test_axioms_fail_on_corrupted_complex():
    cx = build("a2")
    broken = complex_of(cx.catalog, oracle_faces(cx.catalog) - {(1 << cx.n) - 1})  # no zero facet
    report = verify_ap_axioms(broken)
    assert not report.ap4
    assert report.bad_ridges


def test_exchange_graph_polygons():
    for name, size in (("a1xa1", 4), ("a2", 5), ("b2", 6), ("g2", 8)):
        cx = build(name)
        adj = exchange_graph(cx.facets)
        assert len(adj) == size
        assert is_single_cycle(adj)


def _keeps_its_ridges(cx, faces):
    """Every facet minus one vertex is a face."""
    return all(f ^ 1 << v in faces for f in cx.facets for v in ids_of(f))


def _walked(cat):
    """The walk's complex of the catalog with the oracle's face set."""
    return build_complex(cat), oracle_faces(cat)


def _made(cat, faces):
    """The complex of a face set built in a test, with the face set."""
    return complex_of(cat, faces), faces


def test_exchange_graph_matches_the_ridge_scan():
    # the facets alone give the graph that the thin ridges among the faces
    # give: on every fixture, the windows, and every face-set mutant that
    # keeps its ridges
    whole = {name: build(name) for name in FINITE_FIXTURES}
    faces = {name: oracle_faces(cx.catalog) for name, cx in whole.items()}
    complexes = [(cx, faces[name]) for name, cx in whole.items()]
    complexes += [_walked(rank2_sequences(fixture(name), t_max))
                  for name in RANK2_INFINITE_FIXTURES for t_max in (0, 3, 10, 40)]
    complexes += [_made(whole[name].catalog, mutant)
                  for name in ("a3", "b3", "d4") for mutant in _mutants(whole[name]).values()]
    complexes += [_made(cx.catalog, faces[name] - {f})
                  for name, cx in whole.items() for f in cx.facets]
    a3 = whole["a3"]
    complexes += [_made(a3.catalog, downward_closure(set(a3.facets) - set(pair)))
                  for pair in combinations(a3.facets, 2)]
    middle = min((f for f in faces["d4"] if f.bit_count() == 2), key=ids_of)
    complexes.append(_made(whole["d4"].catalog, faces["d4"] - {middle}))
    complexes += [_walked(cat) for _, _, _, cat in _kernel_mutants()]
    kept = [(cx, faces) for cx, faces in complexes if _keeps_its_ridges(cx, faces)]
    # a3 and b3 lose a ridge with their mid-rank face
    assert len(complexes) - len(kept) == 2
    for cx, faces in kept:
        assert exchange_graph(cx.facets) == oracle_exchange_graph(faces, cx.n)


def test_exchange_graph_keeps_the_edge_of_a_missing_ridge():
    # a3 without one ridge held by two facets: the ridge scan loses their
    # edge, the facets keep it
    cx = build("a3")
    faces = oracle_faces(cx.catalog)
    ridge = min((f for f in faces if f.bit_count() == cx.n - 1), key=ids_of)
    mutant = complex_of(cx.catalog, faces - {ridge})
    i, j = (k for k, f in enumerate(mutant.facets) if f & ridge == ridge)
    oracle = oracle_exchange_graph(faces - {ridge}, mutant.n)
    assert j not in oracle[i] and i not in oracle[j]
    assert exchange_graph(mutant.facets) == exchange_graph(cx.facets)
    oracle[i] = tuple(sorted(oracle[i] + (j,)))
    oracle[j] = tuple(sorted(oracle[j] + (i,)))
    assert exchange_graph(mutant.facets) == oracle


def test_flag_connectivity():
    for name in ("a1", "a1xa1", "a2", "a3", "b2", "b3", "g2"):
        cx = build(name)
        report = verify_flag_connected(cx)
        assert report.pure
        assert report.cofaces_connected
        assert report.thin
        assert oracle_flags_connected(vertex_sets(cx.facets))


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_flag_check_agrees_with_literal_walk(name):
    # the fixture and every complex left by dropping one of its facets from
    # the walk's faces (every proper face of a facet lies in another one)
    whole = build(name)
    for dropped in (None,) + whole.facets:
        faces = oracle_faces(whole.catalog) - {dropped}
        cx = complex_of(whole.catalog, faces)
        assert faces == downward_closure(cx.facets)
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
    assert len(decode_face(n, victim)[0]) == n

    def without_victim(catalog):
        return complex_of(catalog, oracle_faces(catalog) - {victim})

    monkeypatch.setattr(cli, "build_complex", without_victim)
    assert main(["verify", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("facets=428") and "strong-flag ✗" in captured.out
    assert "witness: strong-flag " in captured.err


def _first_faulty_faces(cx, faces):
    """By brute force over vertex sets: the first face, by size and then
    vertex tuple, whose link is disconnected, and the first ridge not held by
    exactly two facets."""
    faces = vertex_sets(faces)
    facets = [f for f in faces if len(f) == cx.n]
    disconnected, thick = [], []
    for face in sorted(faces, key=lambda face: (len(face), sorted(face))):
        if len(face) == cx.n - 1 and sum(1 for f in facets if face <= f) != 2:
            thick.append(face)
        if len(face) >= cx.n - 1:
            continue
        link = {v for f in faces if face < f and len(f - face) == 1 for v in f - face}
        seen, stack = set(sorted(link)[:1]), sorted(link)[:1]
        while stack:
            v = stack.pop()
            for w in link - seen:
                if face | {v, w} in faces:
                    seen.add(w)
                    stack.append(w)
        if seen != link:
            disconnected.append(face)
    return (disconnected[0] if disconnected else None), (thick[0] if thick else None)


def _coface_connected(cx, face):
    """The facets holding `face`, joined when they share a ridge, are connected."""
    held = [f for f in vertex_sets(cx.facets) if face <= f]
    seen, stack = set(held[:1]), held[:1]
    while stack:
        f = stack.pop()
        for g in held:
            if g not in seen and len(f & g) == cx.n - 1:
                seen.add(g)
                stack.append(g)
    return len(seen) == len(held)


def _vertex_set(face):
    return None if face is None else next(iter(vertex_sets([face])))


def test_flag_witnesses_name_the_first_faulty_faces():
    # a3 with one facet dropped (ridges held once) and with two facets
    # dropped (a vertex whose pentagon of facets splits in two); each
    # complex is the downward closure of the facets left
    whole = build("a3")
    report = verify_flag_connected(whole)
    assert report.coface_witness is None and report.ridge_witness is None
    drops = [(a,) for a in whole.facets] + list(combinations(whole.facets, 2))
    kinds = set()
    for dropped in drops:
        kept = [f for f in whole.facets if f not in dropped]
        faces = downward_closure(kept)
        cx = complex_of(whole.catalog, faces)
        report = verify_flag_connected(cx)
        link, ridge = _first_faulty_faces(cx, faces)
        assert _vertex_set(report.coface_witness) == link, dropped
        assert _vertex_set(report.ridge_witness) == ridge, dropped
        assert report.cofaces_connected == (link is None)
        assert report.thin == (ridge is None)
        assert ridge is not None  # every drop leaves a ridge held once
        assert verify_ap_axioms(cx).bad_ridges[0] == report.ridge_witness
        if link is not None:
            assert not _coface_connected(cx, link)
        kinds.add((len(dropped), link is None))
    assert kinds == {(1, True), (2, True), (2, False)}


def _floods_agree(cx, faces):
    """`_unreached` on the link of every face with at most n - 2 vertices
    equals what a breadth-first search on the face set leaves unreached,
    and the split links of the complex, which the walk's loop floods only
    where the small-link lemma leaves it to, are the faces it leaves
    something unreached for; the number of split links."""
    up = oracle_up(faces)
    split = []
    for face in sorted(faces, key=lambda f: (f.bit_count(), ids_of(f))):
        if face.bit_count() <= cx.n - 2:
            want = oracle_link_unreached(faces, face)
            assert _unreached(link_ups(up, face), up[face]) == want, ids_of(face)
            if want:
                split.append(face)
    assert cx.split == split
    return len(split)


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_link_floods_match_a_breadth_first_search(name):
    assert _floods_agree(*_walked(positive_roots(fixture(name)))) == 0


def test_split_link_floods_match_a_breadth_first_search():
    # a3 with every one and every pair of its facets dropped: some leave a
    # vertex whose link splits, and the flood must miss what the search misses
    whole = build("a3")
    drops = [(a,) for a in whole.facets] + list(combinations(whole.facets, 2))
    split = sum(_floods_agree(*_made(whole.catalog,
                                     downward_closure(set(whole.facets) - set(drop))))
                for drop in drops)
    assert split > 0


def _counted_floods(monkeypatch):
    """A list that grows by one entry per `_unreached` call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _unreached(*args)

    monkeypatch.setattr(polytope, "_unreached", counted)
    return calls


def _linear_a6():
    """A fresh catalog of A6 oriented 1 -> 2 -> ... -> 6, its complex not
    yet built."""
    n = 6
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    return positive_roots(build_algebra(cartan, [1] * n, [(i, i + 1) for i in range(n - 1)]))


def test_flood_count_on_a6(monkeypatch):
    # a work count, not a time: the linear A6 floods 54 of its 2,563 links
    # below ridge size; the other links are below the lemma's floor
    n, cat = 6, _linear_a6()
    assert sum(1 for f in oracle_faces(cat) if f.bit_count() <= n - 2) == 2563
    calls = _counted_floods(monkeypatch)
    cx = build_complex(cat)
    assert _flood_floor(cx.scan.least, n) == [30, 20, 14, 10, 6]
    assert verify_flag_connected(cx).ok
    assert len(calls) == 54


class _CountedLinks(list):
    """A flood's lookups, counted: the lifts, by position in the vertex pool."""

    lookups = 0

    def __getitem__(self, position):
        _CountedLinks.lookups += 1
        return super().__getitem__(position)


def test_floods_stop_by_the_small_link_lemma(monkeypatch):
    # a work count, not a time: on linear A6 each of the 54 floods stops
    # after its first up lookup, as soon as fewer link vertices are unseen
    # than a second component would need; floods run to the end took 256
    monkeypatch.setattr(_CountedLinks, "lookups", 0)
    monkeypatch.setattr(polytope, "_unreached", lambda links, within, spare=0: _unreached(
        _CountedLinks(links), within, spare))
    assert verify_flag_connected(build_complex(_linear_a6())).ok
    assert _CountedLinks.lookups == 54


def test_split_links_match_full_floods_on_the_kernel_mutants():
    # the floods cut short find the split links that full floods find on
    # every kernel mutant; three mutants split a link, and each keeps its
    # witness, the first split link
    witnesses = {}
    for name, i, j, cat in _kernel_mutants():
        cx = build_complex(cat)
        if _floods_agree(cx, oracle_faces(cat)):
            witnesses[name, i, j] = ids_of(verify_flag_connected(cx).coface_witness)
    assert witnesses == {("b3", 4, 5): (7,), ("c3", 3, 4): (6,), ("d4", 6, 7): (10,)}


def test_floods_scan_no_level_below_its_floor(monkeypatch):
    # linear A6: a face whose level's widest link is below its floor is
    # never flooded, and every other level floods; each flood's spare, one
    # less than half its floor, names its level
    n, cat = 6, _linear_a6()
    spares = []
    monkeypatch.setattr(polytope, "_unreached", lambda links, within, spare=0: (
        spares.append(spare), _unreached(links, within, spare))[1])
    cx = build_complex(cat)
    faces = oracle_faces(cat)
    floor, widest = _flood_floor(cx.scan.least, n), oracle_widest_up(faces, oracle_up(faces))
    skipped = [k for k, need in enumerate(floor) if widest[k] < need]
    assert skipped == [0, 3, 4]
    assert verify_flag_connected(cx).ok
    assert sorted({floor.index(2 * (1 + spare)) for spare in spares}) == [1, 2]


def _kernel_mutants():
    """a3, b3, c3 and d4, each with one symmetric pair of compat bits
    flipped in every way: 153 catalogs whose walk emits wrong pairs."""
    for name in ("a3", "b3", "c3", "d4"):
        base = positive_roots(fixture(name))
        compat = base.kernel.compat
        for i, j in combinations(range(len(base)), 2):
            flipped = list(compat)
            flipped[i] ^= 1 << j
            flipped[j] ^= 1 << i
            cat = RootCatalog(kind=base.kind, algebra=base.algebra, entries=base.entries)
            vars(cat)["kernel"] = replace(base.kernel, compat=tuple(flipped))
            yield name, i, j, cat


def test_walk_kernel_mutants_fail_a_face_check():
    # flip one symmetric pair of compat bits: the walk then emits wrong
    # pairs, and the face checks must see it
    failed = {"ap2": 0, "simplicial": 0, "ap4": 0, "strong-flag": 0}
    mutants = 0
    for name, i, j, cat in _kernel_mutants():
        cx = build_complex(cat)
        axioms, flags = verify_ap_axioms(cx), verify_flag_connected(cx)
        verdicts = {"ap2": axioms.ap2, "simplicial": axioms.simplicial,
                    "ap4": axioms.ap4, "strong-flag": flags.ok}
        assert not all(verdicts.values()), (name, i, j)
        for key, ok in verdicts.items():
            failed[key] += not ok
        mutants += 1
    assert mutants == 153
    # subsets of a rigid set are rigid, so the walk stays simplicial; the
    # mutants show up as thick ridges (AP4) and non-pure complexes (AP2)
    assert failed == {"ap2": 23, "simplicial": 0, "ap4": 152, "strong-flag": 153}


def test_walk_up_is_the_oracle_sweep():
    # the record that the walk's loop reads off its masks is, field by
    # field, the one the oracles find on the oracle's face set (the sweep
    # over every face minus one vertex for the up masks, a breadth-first
    # search for each link), and the sweep finds no lost subface: on every
    # finite fixture, rank-2 windows, every kernel mutant and two drawn
    # orientations of A6, B6, D6, E6 and E7
    catalogs = [positive_roots(fixture(name)) for name in FINITE_FIXTURES]
    catalogs += [rank2_sequences(fixture(name), t_max) for name in RANK2_INFINITE_FIXTURES
                 for t_max in (0, 3, 10, 40, 200)]
    catalogs += [cat for _, _, _, cat in _kernel_mutants()]
    catalogs += [positive_roots(_algebra(name, directions))
                 for name in ("A6", "B6", "D6", "E6", "E7")
                 for directions in _orientations(name, 2)]
    assert len(catalogs) == 182
    for cat in catalogs:
        walk, oracle = build_complex(cat), complex_of(cat, oracle_faces(cat))
        assert oracle.scan.lost_faces == walk.scan.lost_faces == []
        assert sorted(walk.faces) == sorted(oracle.faces)
        assert walk.facets == oracle.facets
        assert walk.scan == oracle.scan
        assert walk.split == oracle.split
        assert walk.vertex_up == oracle.vertex_up


def test_the_facets_command_lists_the_facets_verify_counts():
    # one facet rule: on every kernel mutant the catalog's facets, which
    # `facets`, `graph` and `descent` print, are the faces with n vertices
    # that `verify` counts, in the same order; a3 with compat bits 0 and 1
    # flipped has 17 of them
    counts = {}
    for name, i, j, cat in _kernel_mutants():
        n = cat.algebra.n
        listed = enumerate_support_tilting(cat)
        assert listed == list(build_complex(cat).facets)
        assert listed == sorted((f for f in oracle_faces(cat) if f.bit_count() == n), key=ids_of)
        counts[name, i, j] = len(listed)
    assert len(counts) == 153 and counts["a3", 0, 1] == 17


def test_strong_flag_fails_on_a_non_pure_complex():
    # one face with n + 1 vertices and all its subsets: every ridge is thin
    # and every link connected, but the link lemma needs purity
    cat = positive_roots(fixture("a3"))
    cx = complex_of(cat, downward_closure([(1 << (cat.algebra.n + 1)) - 1]))
    report = verify_flag_connected(cx)
    assert report.thin and report.cofaces_connected
    assert not report.pure and not report.ok
    assert not verify_ap_axioms(cx).ap2


def test_face_encoding_roundtrip():
    cat = positive_roots(fixture("a3"))
    n = cat.algebra.n
    for face in enumerate_support_tilting(cat):
        ids, sigma = decode_face(n, face)
        assert mask_of(sigma) | mask_of(n + i for i in ids) == face
        assert as_facet(cat, ids) == face
        assert sigma == tuple(sorted(support(cat, ids)[1]))


def test_window_complex_kronecker():
    cat = rank2_sequences(fixture("kronecker"), 4)
    cx = build_complex(cat)
    window = rank2_window_complex(cx)
    assert window.facets_expected
    assert window.interior_ridges_ok
    assert window.path_ok
    assert window.facet_witness is None and window.vertex_witness is None
    assert len(cx.facets) == 21  # 9 + 9 neighbour pairs and 3 coordinate facets
    sincere = [ids for ids, sigma in (decode_face(2, f) for f in cx.facets) if not sigma]
    assert all(len(ids) == 2 and is_rigid(cat, ids) for ids in sincere)


def test_window_complex_valued15():
    cat = rank2_sequences(fixture("valued15"), 3)
    window = rank2_window_complex(build_complex(cat))
    assert window.ok


def test_window_complex_rejects_finite():
    with pytest.raises(NotRankTwoInfinite):
        rank2_window_complex(build_complex(rank2_sequences(fixture("g2"), 4)))


def test_is_path_helper():
    assert is_path({0: (1,), 1: (0, 2), 2: (1,)})
    assert not is_path({0: (1,), 1: (0,), 2: ()})
    assert is_path({0: ()})


def test_window_checks_fail_on_dropped_facet(monkeypatch, capsys):
    # drop one neighbour pair from the middle of the forward family: the facet
    # list is wrong, its two members lie in one facet each, and the path splits
    cat = rank2_sequences(fixture("kronecker"), 4)
    faces = oracle_faces(cat)
    pairs = sorted((f for f in faces if (f >> 2).bit_count() == 2), key=lambda f: ids_of(f >> 2))
    victim = pairs[len(pairs) // 4]
    window = rank2_window_complex(complex_of(cat, faces - {victim}))
    assert not window.facets_expected
    assert not window.interior_ridges_ok
    assert not window.path_ok
    # the dropped pair is the only wrong facet, and its lower member the
    # first vertex in one facet instead of two; `path` names no witness
    assert window.facet_witness == victim and window.vertex_witness == victim & -victim

    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, oracle_faces(catalog) - {victim}))
    assert main(["verify", "--fixture", "kronecker", "--t-max", "4"]) == 1
    captured = capsys.readouterr()
    out = captured.out
    assert "window-facets ✗" in out and "interior-ridges ✗" in out and "path ✗" in out
    assert "total-order ✓" in out and "rank2-descent ✓" in out
    assert captured.err.splitlines() == ["witness: window-facets (4,5),(5,6)|",
                                         "witness: interior-ridges (4,5)|"]
