import itertools

import pytest

from ncg.bisections import (Bisection, BisectionError, bisection_basis,
                            decompose, germ_pullback, is_bisection, one_u,
                            reassemble)
from ncg.coefficients import GaussRat, GR_ONE
from ncg.fixtures import cyclic_groupoid, load_fixture, pair_groupoid, unit_groupoid
from ncg.forms import FormError, NCForm
from ncg.groupoid import GroupoidError
from ncg.modules import ModuleForm
from ncg.suites import random_coeff, random_form, random_section


def all_bisections(g, max_size=2):
    return [Bisection.of(g, s) for r in range(1, max_size + 1)
            for s in itertools.combinations(g.arrows, r)
            if is_bisection(g, s)[0]]


def test_is_bisection_examples():
    g = pair_groupoid()
    assert is_bisection(g, ["1>2"])[0]
    ok, witness = is_bisection(g, ["1>2", "1>1"])
    assert not ok and witness[0] == "tgt"
    gu = unit_groupoid()
    assert is_bisection(gu, gu.arrows)[0]
    with pytest.raises(GroupoidError):
        is_bisection(g, ["nope"])


def test_bisection_ops_examples():
    g = pair_groupoid()
    u = Bisection.of(g, ["1>2"])
    v = Bisection.of(g, ["2>1"])
    ui, uv, uxv = u.inverse(), u.product(v), u.pair_product(v)
    assert set(ui.arrows) == {"2>1"}
    assert set(uv.arrows) == {"1>1"}
    assert set(uxv.pairs) == {("1>2", "2>1")}

    z2 = cyclic_groupoid(2)
    w = Bisection.of(z2, ["g1"])
    assert set(w.inverse().arrows) == {"g1"}
    assert set(w.product(w).arrows) == {"e"}

    disjoint = Bisection.of(g, ["1>1"]).product(Bisection.of(g, ["2>2"]))
    assert len(disjoint) == 0


def test_bisection_rejects_collisions():
    g = pair_groupoid()
    with pytest.raises(BisectionError):
        Bisection.of(g, ["1>1", "2>1"])


def test_support_laws_randomized(fixture, rng):
    g = fixture.groupoid
    for u in all_bisections(g):
        for v in all_bisections(g):
            f1 = NCForm(g, 0, {(a,): random_coeff(g.model, rng, with_forms=False)
                               for a in u.arrows})
            f2 = NCForm(g, 0, {(a,): random_coeff(g.model, rng, with_forms=False)
                               for a in v.arrows})
            assert {k[0] for k in f1.involute().values} <= u.inverse().arrows
            assert {k[0] for k in (f1 * f2).values} <= u.product(v).arrows


def test_unique_decomposition_on_bisections(fixture, rng):
    g = fixture.groupoid
    for u in all_bisections(g):
        for v in all_bisections(g):
            f1 = NCForm(g, 0, {(a,): random_coeff(g.model, rng, with_forms=False)
                               for a in u.arrows})
            f2 = NCForm(g, 0, {(a,): random_coeff(g.model, rng, with_forms=False)
                               for a in v.arrows})
            for arrow in g.arrows:
                pairs = [(a, b) for a, b in g.decompositions(arrow)
                         if not f1.coeff((a,)).is_zero()
                         and not f2.coeff((b,)).is_zero()]
                assert len(pairs) <= 1
                if pairs:
                    a, b = pairs[0]
                    expected = g.transport(f1.coeff((a,)), (b,)) * f2.coeff((b,))
                    assert (f1 * f2).coeff((arrow,)) == expected


def test_one_u_pair_example():
    g = pair_groupoid()
    f = NCForm.delta(g, ("1>2",))
    u = Bisection.of(g, ["1>2"])
    indicator = one_u(f, u)
    assert indicator.values == {("2>1",): GR_ONE}
    prod = f * indicator
    assert prod.values == {("1>1",): GR_ONE}


def test_one_u_zero_and_scaled():
    g = cyclic_groupoid(2)
    u = Bisection.of(g, ["g1"])
    empty = one_u(NCForm(g, 0), u)
    assert empty.is_zero()
    c = GaussRat(3, 1, 2)
    f = NCForm.delta(g, ("g1",), c)
    indicator = one_u(f, u)
    assert (f * indicator).values == {("e",): c}


def test_one_u_requires_support(fixture):
    g = fixture.groupoid
    arrows = sorted(g.nonunit_arrows() or g.arrows)
    f = NCForm.delta(g, (arrows[0],))
    unit_arrow = g.unit[g.objects[0]]
    if unit_arrow != arrows[0]:
        with pytest.raises(BisectionError):
            one_u(f, Bisection.of(g, [unit_arrow]))


def test_decompose_reassemble(fixture, rng):
    g = fixture.groupoid
    for n in (0, 1):
        for _ in range(10):
            w = random_form(g, n, rng)
            pieces = decompose(w)
            assert reassemble(pieces, g, n) == w
            if n == 1:
                for piece, left, right, pair_set in pieces:
                    assert pair_set.contains_support(piece)
    assert decompose(NCForm(g, 0)) == []
    with pytest.raises(FormError):
        decompose(random_form(g, 2, rng))


def test_z2_degree_one_decomposition():
    g = cyclic_groupoid(2)
    w = NCForm(g, 1, {("e", "g1"): GR_ONE, ("g1", "g1"): GaussRat(2)})
    pieces = decompose(w)
    assert len(pieces) == 2
    supports = {tuple(sorted(p[3].pairs)) for p in pieces}
    assert supports == {(("e", "g1"),), (("g1", "g1"),)}


def test_germ_pullback_swap_example():
    fx = load_fixture("z2swap")
    g = fx.groupoid
    b = fx.bundles["rank1"]
    swap_arrows = [a for a in g.arrows if not g.is_unit(a)]
    u = Bisection.of(g, swap_arrows)
    F = ModuleForm(b, 0, {(p, ()): (GaussRat(i),)
                          for i, p in enumerate(b.space.points)})
    moved = germ_pullback(u, F)
    space = b.space
    for p in space.points:
        arrow = u.arrow_over_target(space.moment[p])
        assert moved.value(p, ()) == F.value(space.act(p, arrow), ())


def test_germ_pullback_units_identity(fixture, rng):
    g = fixture.groupoid
    b = fixture.bundle("rank1")
    unit_bisection = Bisection.of(g, [g.unit[x] for x in g.objects])
    F = random_section(b, rng)
    assert germ_pullback(unit_bisection, F) == F


def test_germ_pullback_sign_action():
    fx = load_fixture("z2")
    g = fx.groupoid
    b = fx.bundles["rank2"]  # odd line caries the sign character
    u = Bisection.of(g, ["g1"])
    F = ModuleForm(b, 0, {("e", ()): (GaussRat(1), GaussRat(2)),
                          ("g1", ()): (GaussRat(3), GaussRat(5))})
    moved = germ_pullback(u, F)
    # value at p is the value at p.g with the odd component negated
    assert moved.values[("e", ())] == (GaussRat(3), GaussRat(-5))
    assert moved.values[("g1", ())] == (GaussRat(1), GaussRat(-2))


def test_germ_product_law(fixture, rng):
    g = fixture.groupoid
    b = fixture.bundle("rank2")
    bis = all_bisections(g)
    for _ in range(25):
        u, v = rng.choice(bis), rng.choice(bis)
        F = random_section(b, rng)
        assert germ_pullback(u.product(v), F) == \
            germ_pullback(u, germ_pullback(v, F))


def test_bisection_basis_covers_arrows(fixture):
    g = fixture.groupoid
    basis = bisection_basis(g)
    assert sorted(a for b in basis for a in b.arrows) == sorted(g.arrows)
