import random
from fractions import Fraction

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    as_facet,
    build_algebra,
    decode_face,
    descent_path,
    descent_step,
    enumerate_support_tilting,
    fixture,
    lambda_compare,
    lambda_vector,
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
from clustercomplex import face_label, measure
from clustercomplex.cli import main
from clustercomplex.errors import (
    Disconnected,
    LengthMismatch,
    NotRankTwo,
    NotRepresentationInfinite,
    SymmetrizabilityViolation,
    ZeroModule,
)


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


def test_lambda_vector():
    cat = g2_catalog()
    zero = zero_facet(cat)
    assert lambda_vector(cat, zero) == (Fraction(0), Fraction(0))
    lam = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id)))
    assert lam == (1, 12) and all(isinstance(m, Fraction) for m in lam)
    lam = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id)))
    assert lam == (25, 27)


def test_lambda_compare():
    cat = g2_catalog()
    zero = lambda_vector(cat, zero_facet(cat))
    lam_proj = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id)))
    lam_top = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id)))
    assert lambda_compare(zero, lam_proj) == -1
    assert lambda_compare(lam_proj, lam_top) == -1
    assert lambda_compare(lam_top, lam_top) == 0
    with pytest.raises(LengthMismatch):
        lambda_compare(zero, zero + (Fraction(0),))


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
    # the rank keys the descent compares against the Fraction vectors, on every
    # ordered pair of facets; B6 has members of equal measure
    cat = positive_roots(_drawn_b6(5) if name == "B6" else fixture(name))
    if name == "B6":
        assert len(set(cat.mu_ranks)) < len(cat)
    facets = enumerate_support_tilting(cat)
    vectors = [lambda_vector(cat, f) for f in facets]
    keys = [measure.lambda_key(cat, f) for f in facets]
    for x, kx in zip(vectors, keys):
        for y, ky in zip(vectors, keys):
            assert (kx > ky) - (kx < ky) == lambda_compare(x, y)


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


def test_verify_descent_fixtures():
    # the shared-tail report gives every facet the steps of its own walk
    for name in FINITE_FIXTURES:
        cat = positive_roots(fixture(name))
        facets = enumerate_support_tilting(cat)
        report = verify_descent(cat)
        assert report.ok and report.stalled == []
        assert report.max_steps <= len(facets)
        assert list(report.steps) == facets
        for f in facets:
            path = descent_path(cat, f, len(facets))
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
    stalled = []
    for f in facets:
        path = descent_path(cat, f, len(facets))
        assert report.steps[f] == len(path) - 1
        if path[-1] == victim:
            stalled.append(f)
    assert report.steps[victim] == 0 and len(stalled) > 1
    assert report.stalled == [victim]  # the one facet where walks stop short of zero


def test_a_corrupt_descent_move_fails_verify(monkeypatch, capsys):
    # point the move that the top facet takes back at the top facet: its walk
    # cannot drop the vector there, and `verify` reports where it stalls
    cat = positive_roots(fixture("d4"))
    facets = enumerate_support_tilting(cat)
    victim = max(facets, key=lambda f: lambda_vector(cat, f))
    moves = list(cat.descent_moves)
    moves[moves.index(descent_step(cat, victim))] = victim
    monkeypatch.setattr(measure, "member_moves", lambda catalog: tuple(moves))
    report = verify_descent(positive_roots(fixture("d4")))
    assert not report.ok and report.stalled == [victim]
    assert main(["verify", "--fixture", "d4"]) == 1
    captured = capsys.readouterr()
    assert "descent ✗" in captured.out and "endos ✓" in captured.out
    assert captured.err == f"witness: descent {face_label(cat, victim)}\n"


def test_total_order_examples():
    rep = verify_total_order(2, 2, 1, 1, t_max=30)
    assert rep.ok
    rep = verify_total_order(1, 4, 4, 1, t_max=30)
    assert rep.ok
    with pytest.raises(NotRepresentationInfinite):
        verify_total_order(1, 3, 3, 1)
    with pytest.raises(SymmetrizabilityViolation):
        verify_total_order(2, 2, 1, 2)
    with pytest.raises(ValueError):
        verify_total_order(2, 2, 1, 1, weights=[(0, 1)])
    with pytest.raises(ValueError, match="weights must not be empty"):
        verify_total_order(2, 2, 1, 1, weights=[])


def _perturb_chain(monkeypatch, family):
    """Scale term 3 of the forward chain (seeded with (0, 1)) or of the
    backward one tenfold, where the check reads it at t = 1."""
    original = measure.two_term_chain

    def chain(seed0, seed1, mult0, mult1, steps):
        out = original(seed0, seed1, mult0, mult1, steps)
        if (seed0 == (0, 1)) == (family == "preproj"):
            out[3] = tuple(10 * c for c in out[3])
        return out

    monkeypatch.setattr(measure, "two_term_chain", chain)


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
    report = verify_rank2_inequality(positive_roots(fixture("g2")), unit_endo_lengths=True)
    assert not report.ok
    assert [f[0] for f in report.failures] == [(1, 2)]
    assert report.failures[0][1:] == ((1, 3), (2, 3))


def test_rank2_inequality_infinite():
    for name in ("kronecker", "valued15"):
        report = verify_rank2_inequality(rank2_sequences(fixture(name), 10))
        assert report.ok and report.checked > 10


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
