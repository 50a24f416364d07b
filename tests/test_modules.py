from fractions import Fraction

import pytest

from ncg.coefficients import GaussRat, GR_ONE, PolyFormCoeff
from ncg.fixtures import load_fixture
from ncg.forms import GradedSum, NCForm
from ncg.kernels import operator_to_kernel
from ncg.modules import (ConnectionData, ModuleForm, inner_product, nabla01,
                         vector_rep)
from ncg.suites import (random_form, random_function, random_module_form,
                        random_section)


def base_metric(u1, u2):
    """The restriction of the inner product to unit arrows, per object."""
    form = inner_product(u1, u2)
    g = u1.bundle.groupoid
    return {g.tgt[key[0]]: c for key, c in form.values.items()
            if g.is_unit(key[0])}


def adjunction_residual(c, u1, u2):
    """d<u1,u2> - <D u1, u2> - <u1, D' u2> restricted to unit arrows;
    identically zero for the computed adjoint."""
    bundle = c.bundle
    g = bundle.groupoid
    lhs = {}
    base = base_metric(u1, u2)
    for x, coeff in base.items():
        d = coeff.exterior_d()
        if not d.is_zero():
            lhs[x] = d
    du1 = c._horizontal_apply(u1, c.horizontal)
    du2 = c._horizontal_apply(u2, c.adjoint_horizontal())
    for a, b in ((du1, u2), (u1, du2)):
        for p in bundle.space.points:
            va = a.values.get((p, ()))
            vb = b.values.get((p, ()))
            if va is None or vb is None:
                continue
            h = bundle.metric[p]
            term = None
            for i in range(bundle.rank):
                for j in range(bundle.rank):
                    piece = va[i] * (g.model.from_gauss(h[i][j]) * vb[j].conj())
                    term = piece if term is None else term + piece
            term = term.scale(GaussRat(bundle.space.measure[p]))
            x = bundle.space.moment[p]
            lhs[x] = lhs.get(x, g.model.zero()) - term
    return {x: v for x, v in lhs.items() if not v.is_zero()}


def test_vector_rep_translation_example():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    F = ModuleForm(b, 0, {("e", ()): (GaussRat(3),), ("g1", ()): (GaussRat(5),)})
    moved = vector_rep(NCForm.delta(fx.groupoid, ("g1",)), F)
    assert moved.values == {("e", ()): (GaussRat(5),), ("g1", ()): (GaussRat(3),)}


def test_vector_rep_unit_identity():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    F = ModuleForm(b, 0, {("e", ()): (GaussRat(3),), ("g1", ()): (GaussRat(5),)})
    assert vector_rep(NCForm.delta(fx.groupoid, ("e",)), F) == F


def test_vector_rep_multiplicative(fixture, rng):
    g = fixture.groupoid
    for key in ("rank1", "rank2"):
        b = fixture.bundle(key)
        for _ in range(12):
            k, l = rng.randint(0, 2), rng.randint(0, 2)
            if k + l > 3:
                continue
            w1, w2 = random_form(g, k, rng), random_form(g, l, rng)
            F = random_section(b, rng)
            assert vector_rep(w1 * w2, F) == vector_rep(w1, vector_rep(w2, F))
        for _ in range(8):
            w1, w2 = random_form(g, rng.randint(0, 1), rng), \
                random_form(g, rng.randint(0, 1), rng)
            F = random_module_form(b, 1, rng)
            assert vector_rep(w1 * w2, F) == vector_rep(w1, vector_rep(w2, F))


def test_inner_product_indicator_example():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    u1 = ModuleForm.delta(b, "e", (), 0)
    u2 = ModuleForm.delta(b, "g1", (), 0)
    form = inner_product(u1, u2)
    assert form.values == {("g1",): GR_ONE}


def test_inner_product_positivity(fixture, rng):
    b = fixture.bundle("rank2")
    g = fixture.groupoid
    model = g.model
    for _ in range(10):
        if model.kind == "scalar":
            u = random_section(b, rng)
        else:
            from ncg.suites import random_coeff
            u = ModuleForm(b, 0, {(p, ()): tuple(random_coeff(model, rng, with_forms=False)
                                                 for _ in range(b.rank))
                                  for p in b.space.points})
        norm = inner_product(u, u)
        for x in g.objects:
            value = norm.coeff((g.unit[x],))
            if model.kind == "scalar":
                assert value.imag == 0 and value.real >= 0
            else:
                # a sum of squared moduli: a real, form-free polynomial
                assert value.conj() == value
                assert value.form_degrees() <= {0}


def test_pre_hilbert_identities(fixture, rng):
    g = fixture.groupoid
    for key in ("rank1", "rank2"):
        b = fixture.bundle(key)
        for _ in range(15):
            u1, u2 = random_section(b, rng), random_section(b, rng)
            assert inner_product(u1, u2).involute() == inner_product(u2, u1)
            f = random_function(g, rng)
            assert f * inner_product(u1, u2) == \
                inner_product(vector_rep(f, u1), u2)


def test_nabla01_constant_section_example():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    F = ModuleForm(b, 0, {("e", ()): (GR_ONE,), ("g1", ()): (GR_ONE,)})
    out = nabla01(F, fx.h)
    half = GaussRat(Fraction(1, 2))
    assert out.values == {("e", ("g1",)): (half,), ("g1", ("g1",)): (half,)}


def test_nabla01_unit_groupoid_vanishes(rng):
    fx = load_fixture("unit2")
    b = fx.bundles["rank2"]
    assert nabla01(random_section(b, rng), fx.h).is_zero()


def test_nabla01_connection_leibniz(fixture, rng):
    g = fixture.groupoid
    b = fixture.bundle("rank2")
    for _ in range(15):
        f = random_function(g, rng)
        F = random_section(b, rng)
        lhs = nabla01(vector_rep(f, F), fixture.h)
        rhs = vector_rep(f, nabla01(F, fixture.h)) + vector_rep(f.d2(), F)
        assert lhs == rhs


def test_nabla01_degree_sign(scalar_fixture, rng):
    g = scalar_fixture.groupoid
    b = scalar_fixture.bundle("rank2")
    h = scalar_fixture.h
    for l in (0, 1, 2):
        for _ in range(8):
            w = random_form(g, l, rng)
            F = random_section(b, rng)
            lhs = nabla01(vector_rep(w, F), h)
            t1 = vector_rep(w, nabla01(F, h))
            if l % 2:
                t1 = -t1
            assert lhs == t1 + vector_rep(w.d2(), F)


def test_connection_axiom(fixture, rng):
    g = fixture.groupoid
    for key in ("rank1", "rank2"):
        for u in (Fraction(0), Fraction(1, 2), Fraction(1)):
            c = fixture.connection(key, u)
            b = c.bundle
            for _ in range(6):
                f = random_function(g, rng)
                F = random_section(b, rng)
                lhs = c.apply_du(vector_rep(f, F))
                rhs = GradedSum(ModuleForm, b)
                for part in c.apply_du(F).parts.values():
                    rhs.accumulate(vector_rep(f, part))
                rhs.accumulate(vector_rep(f.d1(), F))
                rhs.accumulate(vector_rep(f.d2(), F))
                assert lhs == rhs


def test_scalar_superconnection_is_simplicial(scalar_fixture, rng):
    F = random_section(scalar_fixture.bundle("rank1"), rng)
    for u in (Fraction(0), Fraction(1), Fraction(1, 3)):
        c = scalar_fixture.connection("rank1", u)
        out = c.apply_du(F)
        assert out == GradedSum(ModuleForm, c.bundle, [nabla01(F, scalar_fixture.h)])


def test_adjoint_horizontal_antiselfadjoint_case():
    fx = load_fixture("z2chart")
    b = fx.bundles["rank1"]
    i_xdx = PolyFormCoeff.monomial(1, (1,), (1,), GaussRat(0, 1))
    c = ConnectionData(b, fx.h, horizontal={p: ((i_xdx,),)
                                            for p in b.space.points})
    assert c.adjoint_horizontal() == c.horizontal


def test_adjunction_identity(chart_fixture, rng):
    for key in ("rank1", "rank2"):
        c = chart_fixture.connection(key)
        for _ in range(8):
            u1 = random_section(c.bundle, rng)
            u2 = random_section(c.bundle, rng)
            assert adjunction_residual(c, u1, u2) == {}


def test_horizontal_invariance_enforced():
    fx = load_fixture("z2chart")
    b = fx.bundles["rank1"]
    x2dx = PolyFormCoeff.monomial(1, (2,), (1,))  # even polynomial: not invariant
    from ncg.forms import FormError
    with pytest.raises(FormError):
        ConnectionData(b, fx.h, horizontal={p: ((x2dx,),)
                                            for p in b.space.points})


def test_curvature_unit_groupoid_zero():
    fx = load_fixture("unit2")
    c = fx.connection("rank2")
    op = c.curvature_operator()
    for F in ModuleForm.basis(c.bundle, 0):
        assert op(F).is_zero()


def test_curvature_scalar_u_independent(scalar_fixture, rng):
    c0 = scalar_fixture.connection("rank2", Fraction(0))
    c = scalar_fixture.connection("rank2", Fraction(1))
    F = random_section(c.bundle, rng)
    out0 = c0.apply_du_sum(c0.apply_du(F))
    out1 = c.apply_du_sum(c.apply_du(F))
    assert out0 == out1
    # equals the double simplicial derivative
    expected = nabla01(nabla01(F, scalar_fixture.h), scalar_fixture.h)
    assert out1 == GradedSum(ModuleForm, c.bundle, [expected])


def test_chart_curvature_components():
    fx = load_fixture("z2chart")
    c = fx.connection("rank1")
    op = c.curvature_operator()
    # (2,0)-part dA + A ^ A = 0 for A = x dx on one variable; the mixed
    # (1,1)-part cancels exactly because A is invariant and h is constant
    kernels = operator_to_kernel(op, c.bundle)
    assert kernels.component(0).is_zero()
    assert kernels.component(1).is_zero()
    # the (0,2)-part is the squared simplicial derivative: value -h^2 = -1/4
    quarter = PolyFormCoeff.constant(1, GaussRat(-1, 0, 4))
    comp = kernels.component(2)
    assert comp.values == {("e", ("g1", "g1"), "e"): ((quarter,),),
                            ("g1", ("g1", "g1"), "g1"): ((quarter,),)}
