import dataclasses
import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import (
    FINITE_FIXTURES,
    RANK2_INFINITE_FIXTURES,
    RootCatalog,
    build_algebra,
    decode_face,
    descent_step,
    enumerate_support_tilting,
    fixture,
    mu,
    positive_roots,
    rank2_sequences,
    verify_descent,
    verify_endos,
    verify_endos_all,
    verify_rank2_inequality,
    verify_total_order,
    zero_facet,
)
from clustercomplex import cli, face_label, measure, roots
from clustercomplex.cli import main
from clustercomplex.homext import mask_of
from clustercomplex.measure import _drops, lambda_key
from clustercomplex.errors import (
    ClusterComplexError,
    Disconnected,
    NotRankTwo,
    NotRepresentationInfinite,
    NotSymmetrizable,
    ZeroModule,
)

from oracles import (
    as_facet,
    oracle_descent_step,
    oracle_endos,
    oracle_faces,
    oracle_lambda_vector,
    oracle_member_moves,
    oracle_verify_descent,
)
from test_polytope import _kernel_mutants
from test_scale import DYNKIN, _algebra, _orientations


def g2_catalog():
    return positive_roots(fixture("g2"))


def test_mu_g2_values():
    cat = g2_catalog()
    table = {(0, 1): 1, (1, 0): 3, (1, 1): 16, (1, 2): 25, (1, 3): 12, (2, 3): 27}
    for dimv, squared in table.items():
        value = mu(cat, cat.by_dimv[dimv])
        assert isinstance(value, Fraction) and value == Fraction(squared)
    assert cat.mu_squares == tuple(mu(cat, e) for e in cat.entries)


def test_mu_order():
    cat = g2_catalog()
    m = {d: mu(cat, cat.by_dimv[d]) for d in [(1, 3), (1, 2), (2, 3)]}
    assert m[(1, 3)] < m[(1, 2)] < m[(2, 3)]
    assert Fraction(0) < m[(1, 3)]
    # the ranks order the members as their squared measures do
    for a, b in zip(cat.mu_ranks, cat.mu_squares):
        for c, d in zip(cat.mu_ranks, cat.mu_squares):
            assert (a < c) == (b < d) and (a == c) == (b == d)


def _rank_catalogs():
    """Every finite fixture and the linear and two drawn orientations of
    every `DYNKIN` type, B6, F4 and the fixtures b2, b3, c3 and g2 among
    them with q of 2 or 3."""
    catalogs = [positive_roots(fixture(name)) for name in FINITE_FIXTURES]
    for name in sorted(DYNKIN):
        edges = DYNKIN[name][1]
        catalogs += [positive_roots(_algebra(name, directions))
                     for directions in [[True] * len(edges)] + _orientations(name, 2)]
    return catalogs


def test_integer_ranks_are_the_ranks_of_the_squares():
    # the ranks taken on ell^2 * (P // q) are those of the Fraction squares,
    # and the measure order follows them
    qs = set()
    for cat in _rank_catalogs():
        squares = cat.mu_squares
        distinct = sorted(set(squares))
        assert cat.mu_ranks == tuple(distinct.index(value) for value in squares)
        assert cat.measure_order == tuple(
            1 << i for i in sorted(range(len(cat)), key=lambda i: (squares[i], i)))
        qs.update(e.q for e in cat.entries)
    assert qs == {1, 2, 3}


@pytest.mark.parametrize("name", ["b3", "d4", "g2"])
def test_finite_verify_builds_no_fraction(monkeypatch, capsys, name):
    # the descent ranks in integers: a finite verify passes with Fraction
    # unusable in the catalog and the measure
    def refuse(*args):
        raise AssertionError("Fraction built")

    for module in (roots, measure):
        monkeypatch.setattr(module, "Fraction", refuse)
    assert main(["verify", "--fixture", name]) == 0
    assert capsys.readouterr().out.startswith("facets=")


def _g2_facets(cat):
    """g2's zero facet, its facet {(1,3), (0,1)} and its facet {(1,2), (2,3)}."""
    return (zero_facet(cat),
            as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id)),
            as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id)))


def test_lambda_vector():
    # g2's squared measures 1 < 3 < 12 < 16 < 25 < 27 have ranks 0 to 5
    cat = g2_catalog()
    zero, proj, top = _g2_facets(cat)
    assert lambda_key(cat, zero) == (-1, -1)
    assert lambda_key(cat, proj) == (0, 2)
    assert lambda_key(cat, top) == (4, 5)
    n, squares = cat.algebra.n, cat.mu_squares
    assert oracle_lambda_vector(n, squares, zero) == (Fraction(0), Fraction(0))
    assert oracle_lambda_vector(n, squares, proj) == (1, 12)
    assert oracle_lambda_vector(n, squares, top) == (25, 27)


def test_lambda_compare():
    # the keys rise from g2's zero facet to its top one as the vectors do
    cat = g2_catalog()
    facets = _g2_facets(cat)
    zero, proj, top = (lambda_key(cat, f) for f in facets)
    assert zero < proj < top
    assert top == lambda_key(cat, facets[2])
    zero, proj, top = (oracle_lambda_vector(cat.algebra.n, cat.mu_squares, f) for f in facets)
    assert zero < proj < top


def _drawn_b6(seed):
    """B6 with u = (2, ..., 2, 1), each arrow of its chain drawn in a random direction."""
    n = 6
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    cartan[5][4] = -2
    rng = random.Random(seed)
    arrows = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n - 1)]
    return build_algebra(cartan, [2] * 5 + [1], arrows)


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("B6",))
def test_lambda_key_orders_as_lambda_compare(name):
    # the rank keys the descent compares against the Fraction vectors; B6
    # has members of equal measure, so facets whose vectors tie.  Both
    # orders are total preorders, so comparing neighbours of one sorted list
    # decides every pair: sorted by (vector, key), the vectors do not fall
    # along the list.  When each neighbouring pair compares alike by key and
    # by vector, the keys do not fall either, and two facets i < j have equal
    # vectors exactly when every step from i to j keeps the vector, that is
    # exactly when every step keeps the key, when their keys are equal.
    cat = positive_roots(_drawn_b6(5) if name == "B6" else fixture(name))
    if name == "B6":
        assert len(set(cat.mu_ranks)) < len(cat)
    n, squares = cat.algebra.n, cat.mu_squares
    pairs = sorted((oracle_lambda_vector(n, squares, f), lambda_key(cat, f))
                   for f in enumerate_support_tilting(cat))
    for (x, kx), (y, ky) in zip(pairs, pairs[1:]):
        assert (kx > ky) - (kx < ky) == (x > y) - (x < y)


def test_descent_step_g2():
    cat = g2_catalog()
    d = cat.by_dimv[(1, 2)].id
    f = cat.by_dimv[(2, 3)].id
    e = cat.by_dimv[(1, 3)].id
    nxt = descent_step(cat, as_facet(cat, (d, f)))
    assert nxt == as_facet(cat, (d, e))
    b = cat.by_dimv[(0, 1)].id
    assert descent_step(cat, as_facet(cat, (b,))) == zero_facet(cat)
    with pytest.raises(ZeroModule):
        descent_step(cat, zero_facet(cat))


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("B6 seed 1", "B6 seed 5"))
def test_descent_step_matches_the_least_measure_rule(name):
    # every nonzero facet; the drawn B6 catalogs have facets whose two least
    # members share a rank, where the smaller id must win
    cat = positive_roots(_drawn_b6(int(name.split()[-1])) if name.startswith("B6")
                         else fixture(name))
    n, ranks = cat.algebra.n, cat.mu_ranks
    ties = 0
    for facet in enumerate_support_tilting(cat):
        if facet >> n:
            want = oracle_descent_step(n, ranks, cat.kernel.support, cat.descent_moves, facet)
            assert descent_step(cat, facet) == want
            least = sorted(ranks[i] for i in decode_face(n, facet)[0])
            ties += least[1:2] == least[:1]
    assert ties > 0 or not name.startswith("B6")


def test_verify_descent_fixtures():
    # the shared-tail report gives every facet the steps of its own walk,
    # and its step map gives the walk the reference walk takes
    for name in FINITE_FIXTURES:
        cat = positive_roots(fixture(name))
        facets = enumerate_support_tilting(cat)
        report = verify_descent(cat)
        assert report.ok and report.stalled == []
        assert report.max_steps <= len(facets)
        assert list(report.steps) == facets
        _, walks = oracle_verify_descent(cat, descent_step)
        for f in facets:
            path = report.path(f)
            assert path == list(walks[f])
            assert report.steps[f] == len(path) - 1
            assert path[-1] == zero_facet(cat)


def test_descent_stalls_where_the_vector_does_not_drop(monkeypatch):
    # a step that returns its own facet leaves the vector where it was: the
    # walks through that facet stop there, and the report fails
    cat = positive_roots(fixture("d4"))
    facets = enumerate_support_tilting(cat)
    before = verify_descent(cat).steps
    victim = next(f for f in facets if before[f] == 1)
    step = measure.descent_step
    monkeypatch.setattr(measure, "descent_step",
                        lambda catalog, facet: facet if facet == victim else step(catalog, facet))
    report = verify_descent(cat)
    assert not report.ok
    _, walks = oracle_verify_descent(cat, measure.descent_step)
    stalled = []
    for f in facets:
        path = report.path(f)
        assert path == list(walks[f])
        assert report.steps[f] == len(path) - 1
        if path[-1] == victim:
            stalled.append(f)
    assert report.steps[victim] == 0 and len(stalled) > 1
    assert report.stalled == [victim]  # the one facet where walks stop short of zero


def test_each_step_is_compared_with_the_facet_before_it(monkeypatch):
    # route a walk X -> Y -> Z with key(Y) <= key(Z) < key(X): the second
    # step climbs from Y, so the walk stops at Y although Z is below X
    cat = positive_roots(fixture("d4"))
    facets = enumerate_support_tilting(cat)
    zero = zero_facet(cat)

    def key(f):
        return measure.lambda_key(cat, f)

    x, y, z = next((x, y, z) for i, x in enumerate(facets) for y in facets[i + 1:]
                   if y != zero and key(y) < key(x)
                   for z in facets if z != y and key(y) <= key(z) < key(x))
    step = measure.descent_step
    monkeypatch.setattr(measure, "descent_step",
                        lambda catalog, facet: {x: y, y: z}.get(facet) or step(catalog, facet))
    report = verify_descent(cat)
    assert not report.ok and report.stalled == [y]
    assert report.steps[x] == 1
    assert report.path(x) == [x, y]
    assert oracle_verify_descent(cat, measure.descent_step)[1][x] == (x, y)


def _any_facet(rng, cat, size, members):
    """A mask with `size` vertices, of which `members` are catalog members
    (as many as the coordinate vertices allow)."""
    n = cat.algebra.n
    members = max(members, size - n)
    return (mask_of(rng.sample(range(n), size - members))
            | mask_of(rng.sample(range(len(cat)), members)) << n)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(FINITE_FIXTURES), seed=st.integers(0, 2**32),
       sizes=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
       members=st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_the_drop_rule_is_the_key_comparison(name, seed, sizes, members):
    # facets of n - 1 to n + 1 vertices, memberless or not, and the moves
    # and the zero facet: the rule decides each pair as the keys compare
    cat, rng = positive_roots(fixture(name)), random.Random(seed)
    n, zero = cat.algebra.n, zero_facet(cat)
    known = (*cat.descent_moves, zero)
    g, f = (rng.choice(known) if rng.random() < 0.25
            else _any_facet(rng, cat, n + size, min(count, n + size, len(cat)))
            for size, count in zip(sizes, members))
    assert _drops(cat, g, f) == (lambda_key(cat, g) < lambda_key(cat, f))


def test_a_step_to_higher_ranks_stalls_there(monkeypatch):
    # a step from the victim to a facet with as many unsupported vertices and
    # higher ranks: the counts tie, the keys rise, and the walk stops at the
    # victim
    cat = positive_roots(fixture("d4"))
    facets = enumerate_support_tilting(cat)
    n = cat.algebra.n

    def unsupported(f):
        return (f & zero_facet(cat)).bit_count()

    victim, higher = next((f, g) for f in facets for g in facets
                          if f >> n and unsupported(g) == unsupported(f)
                          and lambda_key(cat, g) > lambda_key(cat, f)
                          and g not in cat.descent_moves)
    step = measure.descent_step
    monkeypatch.setattr(measure, "descent_step",
                        lambda catalog, facet: higher if facet == victim else step(catalog, facet))
    report = verify_descent(cat)
    assert not report.ok and report.stalled == [victim]
    assert report.steps[victim] == 0 and list(report.steps) == facets
    assert report.path(victim) == [victim]
    assert oracle_verify_descent(cat, measure.descent_step)[1][victim] == (victim,)


@functools.cache
def _fixture_catalog(name):
    return positive_roots(fixture(name))


def _check_memo_walk(cat, rng, moved, off_list):
    """Patch in a random step map: `moved` facets step to a random facet or
    to one of `off_list` masks outside the facet list, which take the
    unpatched step.  The report is the memo walk's in every field, the
    order of `steps` included, and its walk from every facet the memo walk
    reaches is the memo walk's."""
    n, facets = cat.algebra.n, list(cat.facets)
    pool = list(facets)
    for _ in range(off_list):
        size = max(1, n + rng.randint(-1, 1))
        pool.append(_any_facet(rng, cat, size, rng.randint(1, min(size, len(cat)))))
    routes = {f: rng.choice(pool) for f in rng.sample(facets, min(moved, len(facets)))}
    step = measure.descent_step

    def routed(catalog, facet):
        return routes[facet] if facet in routes else step(catalog, facet)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "descent_step", routed)
        report = verify_descent(cat)
    want, walks = oracle_verify_descent(cat, routed)
    assert report == want
    assert list(report.steps) == list(want.steps) == facets
    for f, walk in walks.items():
        assert report.path(f) == list(walk)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(FINITE_FIXTURES), seed=st.integers(0, 2**32),
       moved=st.integers(0, 12), off_list=st.integers(0, 3))
def test_verify_descent_is_the_memo_walk(name, seed, moved, off_list):
    _check_memo_walk(_fixture_catalog(name), random.Random(seed), moved, off_list)


@pytest.mark.parametrize("name", ["B6", "E6"])
def test_verify_descent_is_the_memo_walk_at_benchmark_size(name):
    # catalogs of the benchmark's size (B6 has 924 facets and members of
    # equal measure), unpatched and with a few patched routes
    cat = positive_roots(_drawn_b6(5) if name == "B6"
                         else _algebra(name, _orientations(name, 1)[0]))
    if name == "B6":
        assert len(cat.facets) == 924 and len(set(cat.mu_ranks)) < len(cat)
    rng = random.Random(name)
    for moved, off_list in ((0, 0), (4, 0), (8, 2), (16, 3)):
        _check_memo_walk(cat, rng, moved, off_list)


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_each_nonzero_facet_takes_one_step(monkeypatch, name):
    # the walks share their tails: an unpatched check steps from each
    # facet but the zero facet exactly once, and walks nothing twice
    cat = positive_roots(fixture(name))
    calls = Counter()
    step = measure.descent_step

    def counted(catalog, facet):
        calls[facet] += 1
        return step(catalog, facet)

    monkeypatch.setattr(measure, "descent_step", counted)
    assert verify_descent(cat).ok
    assert sum(calls.values()) == len(cat.facets) - 1
    assert set(calls) == set(cat.facets) - {zero_facet(cat)}


def _outcome(moves, catalog):
    """The moves tuple, or the type and message of what computing it raised."""
    try:
        return moves(catalog)
    except (ClusterComplexError, ValueError) as error:
        return type(error), str(error)


def test_member_moves_match_the_public_completions():
    # the mask-level moves against the earlier ones through `bongartz`,
    # `dual_bongartz` and `as_facet`: on every finite fixture, two drawn
    # orientations of each `DYNKIN` type, rank-2 windows and the 153 kernel
    # mutants, the same moves or the same exception
    catalogs = [positive_roots(fixture(name)) for name in FINITE_FIXTURES]
    catalogs += [positive_roots(_algebra(name, directions)) for name in sorted(DYNKIN)
                 for directions in _orientations(name, 2)]
    catalogs += [rank2_sequences(fixture(name), 3) for name in RANK2_INFINITE_FIXTURES]
    catalogs += [cat for _, _, _, cat in _kernel_mutants()]
    raised = Counter()
    for cat in catalogs:
        got = _outcome(measure.member_moves, cat)
        assert got == _outcome(oracle_member_moves, cat)
        if isinstance(got[0], type):
            raised[got[0].__name__] += 1
    assert raised == {"NotFiniteType": 2, "NoCompletion": 95}


def test_a_corrupt_descent_move_fails_verify(monkeypatch, capsys):
    # point the move that the top facet takes back at the top facet: its walk
    # cannot drop the vector there, `verify` reports where it stalls, and
    # `descent` fails with a walk that ends there
    cat = positive_roots(fixture("d4"))
    facets = enumerate_support_tilting(cat)
    victim = max(facets, key=lambda f: oracle_lambda_vector(cat.algebra.n, cat.mu_squares, f))
    moves = list(cat.descent_moves)
    moves[moves.index(descent_step(cat, victim))] = victim
    monkeypatch.setattr(measure, "member_moves", lambda catalog: tuple(moves))
    report = verify_descent(positive_roots(fixture("d4")))
    assert not report.ok and report.stalled == [victim]
    assert main(["verify", "--fixture", "d4"]) == 1
    captured = capsys.readouterr()
    assert "descent ✗" in captured.out and "endos ✓" in captured.out
    assert captured.err == f"witness: descent {face_label(cat, victim)}\n"
    assert main(["descent", "--fixture", "d4"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed and failed[0].split()[-1] == face_label(cat, report.stalled[0])


def test_total_order_examples():
    rep = verify_total_order(2, 2, 1, 1, t_max=30)
    assert rep.ok
    rep = verify_total_order(1, 4, 4, 1, t_max=30)
    assert rep.ok
    with pytest.raises(NotRepresentationInfinite):
        verify_total_order(1, 3, 3, 1)
    with pytest.raises(NotSymmetrizable, match=r"r\*u = 2 != 4 = s\*v"):
        verify_total_order(2, 2, 1, 2)
    with pytest.raises(ValueError):
        verify_total_order(2, 2, 1, 1, weights=[(0, 1)])
    with pytest.raises(ValueError, match="weights must not be empty"):
        verify_total_order(2, 2, 1, 1, weights=[])


def test_a_negative_t_max_is_refused_before_any_chain(monkeypatch):
    # a negative t_max would check nothing and pass: it is a ValueError, as
    # in `rank2_sequences`, raised before a chain is asked for
    monkeypatch.setattr(measure, "shift_families",
                        lambda *args: pytest.fail("a chain was built"))
    for t_max in (-1, -3):
        with pytest.raises(ValueError, match="t_max must be non-negative"):
            verify_total_order(5, 1, 1, 5, t_max=t_max)
        with pytest.raises(ValueError, match="t_max must be non-negative"):
            rank2_sequences(fixture("kronecker"), t_max)


def _perturb_chain(monkeypatch, family):
    """Scale term 3 of the forward family (seeded with (0, 1)) or of the
    backward one tenfold, where the check reads it at t = 1."""
    original = measure.shift_families

    def families(r, s, steps):
        forward, backward = original(r, s, steps)
        out = forward if family == "preproj" else backward
        out[3] = tuple(10 * c for c in out[3])
        return forward, backward

    monkeypatch.setattr(measure, "shift_families", families)


@pytest.mark.parametrize("family", ["preproj", "preinj"])
def test_total_order_fails_on_a_perturbed_chain(monkeypatch, capsys, family):
    _perturb_chain(monkeypatch, family)
    rep = verify_total_order(2, 2, 1, 1, t_max=5)
    assert not rep.ok and rep.first_violation == (family, (1, 1), 1) and rep.checked == 1
    assert main(["verify", "--fixture", "kronecker"]) == 1
    out = capsys.readouterr().out
    assert "total-order ✗" in out and out.count("✗") == 1
    assert main(["total-order", "--r", "2", "--s", "2", "--u", "1", "--v", "1"]) == 1
    assert capsys.readouterr().out == f"FAIL at ('{family}', (1, 1), 1)\n"


def test_total_order_kronecker_lengths():
    # weighted sizes along the forward family: 1, 3, 5, 7, ...
    rep = verify_total_order(2, 2, 1, 1, t_max=5, weights=[(1, 1)])
    assert rep.ok and rep.checked == 6


def test_rank2_inequality_finite():
    for name in ("a2", "b2", "g2"):
        report = verify_rank2_inequality(positive_roots(fixture(name)))
        assert report.ok and report.checked > 0
    # negative control: the squared plain lengths in place of the measure
    control = positive_roots(fixture("g2"))
    vars(control)["mu_squares"] = tuple(ell * ell for ell in control.lengths)
    report = verify_rank2_inequality(control)
    assert not report.ok
    assert [f[0] for f in report.failures] == [(1, 2)]
    assert report.failures[0][1:] == ((1, 3), (2, 3))


def test_rank2_inequality_infinite():
    for name in ("kronecker", "valued15"):
        report = verify_rank2_inequality(rank2_sequences(fixture(name), 10))
        assert report.ok and report.checked > 10


@pytest.mark.parametrize("name", ["kronecker", "valued15"])
def test_a_constant_measure_fails_rank2_descent(monkeypatch, capsys, name):
    # with every member of equal measure no neighbour is strictly smaller;
    # plain lengths would not do, since on kronecker they are the measure.
    # The witness is the first sincere member, the second of the forward family
    monkeypatch.setattr(RootCatalog, "mu_squares",
                        property(lambda catalog: (Fraction(1),) * len(catalog)))
    assert main(["verify", "--fixture", name]) == 1
    captured = capsys.readouterr()
    assert "rank2-descent ✗" in captured.out and captured.out.count("✗") == 1
    member = {"kronecker": "(1,2)", "valued15": "(1,5)"}[name]
    assert captured.err == f"witness: rank2-descent {member}|\n"


def test_rank2_inequality_gates():
    with pytest.raises(NotRankTwo):
        verify_rank2_inequality(positive_roots(fixture("a3")))
    with pytest.raises(Disconnected):
        verify_rank2_inequality(positive_roots(fixture("a1xa1")))


def test_verify_endos():
    cat = g2_catalog()
    lam = as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id))
    assert verify_endos(cat, lam)
    top = as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id))
    assert verify_endos(cat, top)
    assert verify_endos(cat, zero_facet(cat))
    ids, _ = decode_face(cat.algebra.n, lam)
    assert sorted(cat.entries[i].q for i in ids) == [1, 3]


def test_verify_endos_all_fixtures():
    for name in ("a1", "a1xa1", "a2", "a3", "b2", "b3", "c3", "d4", "g2"):
        report = verify_endos_all(positive_roots(fixture(name)))
        assert report.ok and report.checked == len(enumerate_support_tilting(
            positive_roots(fixture(name))))


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("B6",))
def test_endo_classes_agree_with_the_sorted_multisets(name):
    # per-class popcounts against the sorted multisets, on every face (the
    # faces below n vertices fail both) and so on every facet
    cat = positive_roots(_drawn_b6(5) if name == "B6" else fixture(name))
    u, qs = cat.algebra.symmetrizer, [e.q for e in cat.entries]
    assert len(cat.endo_classes) == len(set(u))
    if name in ("B6", "c3", "g2"):
        assert len(cat.endo_classes) == 2
    facets = set(enumerate_support_tilting(cat))
    for face in oracle_faces(cat):
        assert verify_endos(cat, face) == oracle_endos(u, qs, face), face
        if face in facets:
            assert verify_endos(cat, face)


@pytest.mark.parametrize("name", ["a3", "b3"])
def test_a_wrong_endo_length_fails_verify(monkeypatch, capsys, name):
    # give one member the endo length of the other class (a3: 2): every
    # facet holding it fails, the other checks pass, and the witness is the
    # first of those facets
    cat = positive_roots(fixture(name))
    facets = enumerate_support_tilting(cat)
    n = cat.algebra.n
    for k, entry in enumerate(cat.entries):
        other = next(iter(set(cat.algebra.symmetrizer) - {entry.q}), 2)
        entries = list(cat.entries)
        entries[k] = dataclasses.replace(entry, q=other)
        mutant = dataclasses.replace(cat, entries=tuple(entries))
        held = [f for f in facets if f >> (n + k) & 1]
        assert verify_endos_all(mutant).failures == held
        # one vertex too many: in a3 the new length lies in no class
        extra = next(f for f in facets if f not in held) | 1 << (n + k)
        assert not verify_endos(mutant, extra)
        assert not oracle_endos(cat.algebra.symmetrizer, [e.q for e in entries], extra)
        monkeypatch.setattr(cli, "catalog_for", lambda algebra, t_max: mutant)
        assert main(["verify", "--fixture", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == (f"facets={len(facets)} ap1 ✓ ap2 ✓ ap4 ✓ simplicial ✓ "
                                "strong-flag ✓ endos ✗ descent ✓\n")
        assert captured.err == f"witness: endos {face_label(cat, held[0])}\n"
