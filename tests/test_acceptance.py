"""Acceptance battery: one test per criterion, every check exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import random
import time

from clustercomplex import (
    bongartz,
    build_complex,
    complements,
    decode_face,
    dual_bongartz,
    enumerate_support_tilting,
    exchange_graph,
    fixture,
    is_rigid,
    iter_rigid_sets,
    positive_roots,
    rank2_sequences,
    rank2_window_complex,
    verify_ap_axioms,
    verify_descent,
    verify_endos,
    verify_flag_connected,
    verify_rank2_inequality,
    verify_total_order,
)
from clustercomplex.cli import main
from clustercomplex.homext import ids_of
from oracles import (
    is_single_cycle,
    oracle_flags_connected,
    oracle_rank,
    oracle_rigid_dimv_collisions,
    vertex_sets,
)

FINITE_NAMES = ("a1", "a1xa1", "a2", "a3", "b2", "b3", "c3", "d4", "g2")


def test_criterion_1_g2_reproduction(capsys):
    start = time.time()
    assert main(["g2-demo"]) == 0
    elapsed = time.time() - start
    out = capsys.readouterr().out
    lines = dict(line.split(":", 1) for line in out.strip().splitlines())
    assert lines["dimv"].split() == ["(0,1)", "(1,3)", "(1,2)", "(2,3)", "(1,1)", "(1,0)"]
    assert lines["length"].split() == ["1", "6", "5", "9", "4", "3"]
    assert lines["mu2"].split() == ["1", "12", "25", "27", "16", "3"]
    assert elapsed < 1.0
    print(f"criterion 1 (G2 reproduction, {elapsed:.3f}s): PASS")


def test_criterion_2_complement_dichotomy():
    cat = positive_roots(fixture("g2"))
    d = cat.by_dimv[(1, 2)].id
    comp = sorted(cat.entries[i].dimv for i in complements(cat, (d,)))
    assert comp == [(1, 3), (2, 3)]
    assert [cat.entries[i].dimv for i in bongartz(cat, (d,))] == [(1, 3)]
    assert [cat.entries[i].dimv for i in dual_bongartz(cat, (d,))] == [(2, 3)]
    print("criterion 2 (complement dichotomy): PASS")


def test_criterion_3_rank2_polygons():
    for name, size in (("a1xa1", 4), ("a2", 5), ("b2", 6), ("g2", 8)):
        cx = build_complex(positive_roots(fixture(name)))
        assert len(cx.facets) == size
        assert is_single_cycle(exchange_graph(cx))
    print("criterion 3 (rank-2 polygons 4/5/6/8): PASS")


def test_criterion_4_polytope_axioms():
    start = time.time()
    for name in ("a1", "a2", "a3", "b2", "b3", "c3", "d4", "g2"):
        cx = build_complex(positive_roots(fixture(name)))
        axioms = verify_ap_axioms(cx)
        assert axioms.ap1 and axioms.ap2 and axioms.ap4 and axioms.simplicial, name
        assert not axioms.bad_ridges
        flags = verify_flag_connected(cx)
        assert flags.cofaces_connected and flags.pure, name
        assert flags.thin and oracle_flags_connected(vertex_sets(cx.facets)), name
        if name == "d4":
            assert len(cx.facets) == 50
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 4 (polytope axioms incl. D4=50 facets, {elapsed:.2f}s): PASS")


def test_criterion_5_mutation_connectedness():
    for name in FINITE_NAMES:
        cat = positive_roots(fixture(name))
        cx = build_complex(cat)
        adj = exchange_graph(cx)
        zero = (1 << cx.n) - 1
        start = cx.facets.index(zero)
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert len(seen) == len(cx.facets), name
    for name in ("kronecker", "valued15"):
        window = rank2_window_complex(build_complex(rank2_sequences(fixture(name), 6)))
        assert window.path_ok  # connected, so the zero facet reaches everything
    print("criterion 5 (mutation connectedness): PASS")


def test_criterion_6_total_order_sweep():
    rng = random.Random(20260808)
    combos = 0
    for r in range(1, 7):
        for s in range(1, 7):
            if r * s < 4:
                continue
            for u in range(1, 7):
                if (r * u) % s:
                    continue
                v = r * u // s
                if not 1 <= v <= 6:
                    continue
                weights = [(u, v)] + [(rng.randint(1, 40), rng.randint(1, 40))
                                      for _ in range(5)]
                report = verify_total_order(r, s, u, v, t_max=30, weights=weights)
                assert report.ok, (r, s, u, v, report.first_violation)
                combos += 1
    assert combos > 50
    print(f"criterion 6 (total order, {combos} parameter sets x 6 weightings): PASS")


def test_criterion_7_rank2_descent_inequality():
    for name in ("a2", "b2", "g2"):
        report = verify_rank2_inequality(positive_roots(fixture(name)))
        assert report.ok and report.checked > 0, name
    for name in ("kronecker", "valued15"):
        report = verify_rank2_inequality(rank2_sequences(fixture(name), 10))
        assert report.ok and report.checked > 10, name
    # negative control: the squared plain lengths in place of the measure
    plain = positive_roots(fixture("g2"))
    vars(plain)["mu_squares"] = tuple(ell * ell for ell in plain.lengths)
    control = verify_rank2_inequality(plain)
    assert not control.ok
    assert [f[0] for f in control.failures] == [(1, 2)]
    assert control.failures[0][1:] == ((1, 3), (2, 3))  # both plain sizes larger
    print("criterion 7 (rank-2 inequality + negative control at (1,2)): PASS")


def test_criterion_8_lambda_descent():
    for name in FINITE_NAMES:
        cat = positive_roots(fixture(name))
        report = verify_descent(cat)
        assert report.ok, name
        assert report.max_steps <= len(enumerate_support_tilting(cat)), name
    print("criterion 8 (lambda descent to zero on all finite fixtures): PASS")


def test_criterion_9_endo_multisets():
    total = 0
    for name in FINITE_NAMES:
        cat = positive_roots(fixture(name))
        for facet in enumerate_support_tilting(cat):
            assert verify_endos(cat, facet), (name, facet)
            total += 1
    assert total == 2 + 4 + 5 + 14 + 6 + 20 + 20 + 50 + 8
    print(f"criterion 9 (endo multisets on {total} facets): PASS")


def test_criterion_10_rigid_uniqueness_and_independence():
    for name in FINITE_NAMES:
        cat = positive_roots(fixture(name))
        sets = [ids_of(members) for members, _, _ in iter_rigid_sets(cat)]
        if name in ("a2", "a3", "g2"):
            collisions = oracle_rigid_dimv_collisions(cat.dimvs(), sets)
            assert collisions == [], collisions
        for ids in sets:
            assert oracle_rank([cat.entries[i].dimv for i in ids]) == len(ids)
    print("criterion 10 (rigid dimv uniqueness and independence): PASS")


def test_criterion_11_kronecker_window_classification():
    cat = rank2_sequences(fixture("kronecker"), 10)
    cx = build_complex(cat)
    window = rank2_window_complex(cx)
    assert window.facets_expected
    assert window.interior_ridges_ok
    assert window.path_ok
    # facet census: neighbour pairs in each family plus three coordinate facets
    pairs = [ids for ids, _ in (decode_face(2, f) for f in cx.facets) if len(ids) == 2]
    entries = cat.entries
    for a, b in pairs:
        assert abs(a - b) == 1 and entries[a].component == entries[b].component
        assert is_rigid(cat, (a, b))
    assert len(pairs) == 2 * (2 * 10 + 1)
    assert len(cx.facets) == len(pairs) + 3
    print("criterion 11 (rank-2 infinite window classification): PASS")
