import random
from fractions import Fraction

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    MU_ZERO,
    Mu,
    as_facet,
    descent_path,
    descent_step,
    enumerate_support_tilting,
    fixture,
    lambda_compare,
    lambda_vector,
    mu,
    mu_compare,
    positive_roots,
    verify_descent,
    verify_endos,
    verify_endos_all,
    verify_rank2_inequality,
    verify_total_order,
    zero_facet,
)
from clustercomplex import measure
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
        assert value.squared == Fraction(squared)


def test_mu_compare():
    cat = g2_catalog()
    m = {d: mu(cat, cat.by_dimv[d]) for d in [(1, 3), (1, 2), (2, 3)]}
    assert mu_compare(m[(1, 3)], m[(1, 2)]) == -1
    assert mu_compare(m[(2, 3)], m[(1, 2)]) == 1
    assert mu_compare(m[(1, 2)], m[(1, 2)]) == 0
    assert mu_compare(MU_ZERO, m[(1, 3)]) == -1
    assert Mu(2, 4) == Mu(1, 1)  # 4/4 == 1/1
    with pytest.raises(ValueError):
        Mu(1, 0)


def test_mu_compare_transitive_random():
    rng = random.Random(23)
    values = [Mu(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(60)]
    for _ in range(300):
        a, b, c = rng.sample(values, 3)
        if mu_compare(a, b) <= 0 and mu_compare(b, c) <= 0:
            assert mu_compare(a, c) <= 0


def test_lambda_vector():
    cat = g2_catalog()
    zero = zero_facet(cat)
    assert lambda_vector(cat, zero) == (MU_ZERO, MU_ZERO)
    lam = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id)))
    assert [m.squared for m in lam] == [1, 12]
    lam = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id)))
    assert [m.squared for m in lam] == [25, 27]


def test_lambda_compare():
    cat = g2_catalog()
    zero = lambda_vector(cat, zero_facet(cat))
    lam_proj = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id)))
    lam_top = lambda_vector(cat, as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id)))
    assert lambda_compare(zero, lam_proj) == -1
    assert lambda_compare(lam_proj, lam_top) == -1
    assert lambda_compare(lam_top, lam_top) == 0
    with pytest.raises(LengthMismatch):
        lambda_compare(zero, zero + (MU_ZERO,))


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


def test_total_order_kronecker_lengths():
    # weighted sizes along the forward family: 1, 3, 5, 7, ...
    rep = verify_total_order(2, 2, 1, 1, t_max=5, weights=[(1, 1)])
    assert rep.ok and rep.checked == 6


def test_rank2_inequality_finite():
    for name in ("a2", "b2", "g2"):
        report = verify_rank2_inequality(fixture(name))
        assert report.ok and report.checked > 0
    report = verify_rank2_inequality(fixture("g2"), unit_endo_lengths=True)
    assert not report.ok
    assert [f[0] for f in report.failures] == [(1, 2)]
    assert report.failures[0][1:] == ((1, 3), (2, 3))


def test_rank2_inequality_infinite():
    for name in ("kronecker", "valued15"):
        report = verify_rank2_inequality(fixture(name), t_max=10)
        assert report.ok and report.checked > 10


def test_rank2_inequality_gates():
    with pytest.raises(NotRankTwo):
        verify_rank2_inequality(fixture("a3"))
    with pytest.raises(Disconnected):
        verify_rank2_inequality(fixture("a1xa1"))


def test_verify_endos():
    cat = g2_catalog()
    lam = as_facet(cat, (cat.by_dimv[(1, 3)].id, cat.by_dimv[(0, 1)].id))
    assert verify_endos(cat, lam)
    top = as_facet(cat, (cat.by_dimv[(1, 2)].id, cat.by_dimv[(2, 3)].id))
    assert verify_endos(cat, top)
    assert verify_endos(cat, zero_facet(cat))
    assert sorted(cat.entries[i].q for i in lam.ids) == [1, 3]


def test_verify_endos_all_fixtures():
    for name in ("a1", "a1xa1", "a2", "a3", "b2", "b3", "c3", "d4", "g2"):
        report = verify_endos_all(positive_roots(fixture(name)))
        assert report.ok and report.checked == len(enumerate_support_tilting(
            positive_roots(fixture(name))))
