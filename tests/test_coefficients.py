from fractions import Fraction
from math import gcd
import operator

import pytest
from hypothesis import given, settings, strategies as st

from ncg.coefficients import (CoefficientError, CoefficientModel, GaussRat,
                              GR_I, GR_ONE, PolyFormCoeff, identity_matrix,
                              mat_mul, sparse_put)
from ncg.fixtures import load_fixture


small_ints = st.integers(min_value=-6, max_value=6)
positive = st.integers(min_value=1, max_value=5)


@st.composite
def gauss(draw):
    return GaussRat(draw(small_ints), draw(small_ints), draw(positive))


@st.composite
def polyform(draw, dim=1, max_deg=3):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                     for _ in range(dim))
        form = draw(st.sampled_from([(), (1,)])) if dim == 1 else ()
        terms[(exps, form)] = draw(gauss())
    return PolyFormCoeff(dim, terms)


class TestGaussRat:
    def test_modulus_example(self):
        a = GaussRat.parse("1/2+1/2*i")
        b = GaussRat.parse("1/2+-1/2*i")
        assert a * b == GaussRat(Fraction(1, 2))

    def test_parse_roundtrip(self):
        for text in ["0/1", "3/2", "-1/3", "1/2+1/3*i", "-2/1+-1/4*i"]:
            assert str(GaussRat.parse(text)) == text

    def test_parse_loose_forms(self):
        assert GaussRat.parse("2") == GaussRat(2)
        assert GaussRat.parse("1+1*i") == GaussRat(1, 1)
        with pytest.raises(CoefficientError):
            GaussRat.parse("x")

    @given(gauss(), gauss(), gauss())
    @settings(max_examples=1000, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(gauss())
    def test_conjugation_involutive(self, a):
        assert a.conj().conj() == a
        assert (a * a.conj()).imag == 0

    @given(gauss())
    def test_field_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == GR_ONE

    def test_canonical_form(self):
        v = GaussRat(2, 4, 6)
        assert (v.a, v.b, v.d) == (1, 2, 3)
        assert GaussRat(1, 0, -2) == GaussRat(-1, 0, 2)


class TestPolyForm:
    def test_wedge_nilpotent(self):
        dx = PolyFormCoeff.monomial(1, (0,), (1,))
        assert (dx * dx).is_zero()

    def test_wedge_example(self):
        x_dx = PolyFormCoeff.monomial(1, (1,), (1,))
        x2 = PolyFormCoeff.monomial(1, (2,))
        assert x_dx * x2 == PolyFormCoeff.monomial(1, (3,), (1,))

    def test_exterior_derivative(self):
        x2 = PolyFormCoeff.monomial(1, (2,))
        assert x2.exterior_d() == PolyFormCoeff.monomial(1, (1,), (1,), GaussRat(2))
        assert PolyFormCoeff.monomial(1, (1,), (1,)).exterior_d().is_zero()

    def test_conj_keeps_shape(self):
        w = PolyFormCoeff.monomial(1, (1,), (1,), GR_I)
        assert w.conj() == PolyFormCoeff.monomial(1, (1,), (1,), -GR_I)

    @given(polyform(), polyform())
    @settings(max_examples=250)
    def test_graded_commutativity(self, a, b):
        # split into homogeneous pieces and check a b = (-1)^{|a||b|} b a
        def split(p):
            out = {}
            for (exps, form), c in p.terms.items():
                out.setdefault(len(form), {})[(exps, form)] = c
            return {d: PolyFormCoeff(p.dim, t) for d, t in out.items()}
        for da, pa in split(a).items():
            for db, pb in split(b).items():
                rhs = pb * pa
                if (da * db) % 2:
                    rhs = -rhs
                assert pa * pb == rhs

    @given(polyform(), polyform())
    @settings(max_examples=250)
    def test_d_is_graded_derivation(self, a, b):
        def split(p):
            out = {}
            for (exps, form), c in p.terms.items():
                out.setdefault(len(form), {})[(exps, form)] = c
            return {d: PolyFormCoeff(p.dim, t) for d, t in out.items()}
        assert a.exterior_d().exterior_d().is_zero()
        for da, pa in split(a).items():
            db = pa * b.exterior_d()
            rhs = pa.exterior_d() * b + (db if da % 2 == 0 else -db)
            assert (pa * b).exterior_d() == rhs

    def test_pullback_examples(self):
        neg = ((GaussRat(-1),),)
        x3 = PolyFormCoeff.monomial(1, (3,))
        dx = PolyFormCoeff.monomial(1, (0,), (1,))
        assert x3.pullback(neg) == PolyFormCoeff.monomial(1, (3,), (), GaussRat(-1))
        assert dx.pullback(neg) == PolyFormCoeff.monomial(1, (0,), (1,), GaussRat(-1))
        ident = ((GR_ONE,),)
        assert x3.pullback(ident) == x3

    @given(polyform())
    @settings(max_examples=150)
    def test_pullback_composition(self, a):
        m1 = ((GaussRat(-1),),)
        m2 = ((GaussRat(2),),)
        prod = ((GaussRat(-2),),)  # m1 @ m2
        assert a.pullback(m1).pullback(m2) == a.pullback(prod)

    def test_dimension_mismatch(self):
        with pytest.raises(CoefficientError):
            PolyFormCoeff.monomial(1, (1,)) * PolyFormCoeff.monomial(2, (1, 0))

    def test_records_roundtrip(self):
        w = PolyFormCoeff(1, {((2,), (1,)): GaussRat(1, 2, 3),
                              ((0,), ()): GR_ONE})
        assert PolyFormCoeff.from_records(1, w.to_records()) == w
        # records of one key are summed; a sum of zero leaves no term
        cancelling = w.to_records() + (-w).to_records()
        assert PolyFormCoeff.from_records(1, cancelling).terms == {}


class TestModel:
    def test_chart_representation_validation(self):
        model = CoefficientModel("chart", dim=1, matrices={
            "e": ((GR_ONE,),), "g": ((GaussRat(-1),),)})
        mult = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                ("g", "g"): "e"}.get
        assert model.validate_representation(lambda a, b: mult((a, b)), "e") == []
        bad = CoefficientModel("chart", dim=1, matrices={
            "e": ((GR_ONE,),), "g": ((GaussRat(2),),)})
        assert bad.validate_representation(lambda a, b: mult((a, b)), "e")


# ---------------------------------------------------------------------------
# The arithmetic fast paths against the validating constructors
# ---------------------------------------------------------------------------

numerators = st.integers(min_value=-40, max_value=40)
exact = st.one_of(numerators, st.builds(Fraction, numerators,
                                        st.integers(min_value=1, max_value=12)))
nonzero = exact.filter(lambda v: v != 0)


@st.composite
def gauss_any(draw):
    """A GaussRat from int or Fraction parts, or a plain int or Fraction."""
    if draw(st.booleans()):
        return draw(exact)
    return GaussRat(draw(exact), draw(exact), draw(nonzero))


def _parts(value):
    """(real, imag) as Fractions of a GaussRat, int or Fraction."""
    if isinstance(value, GaussRat):
        return value.real, value.imag
    return Fraction(value), Fraction(0)


def _assert_canonical(r):
    assert type(r) is GaussRat
    assert all(type(v) is int for v in (r.a, r.b, r.d))
    assert r.d > 0 and gcd(r.a, r.b, r.d) == 1
    rebuilt = GaussRat(r.a, r.b, r.d)
    assert r == rebuilt and (r.a, r.b, r.d) == (rebuilt.a, rebuilt.b, rebuilt.d)


class TestGaussRatFastPath:
    @given(gauss_any(), gauss_any())
    @settings(max_examples=600, deadline=None)
    def test_results_canonical_and_exact(self, x, y):
        if not isinstance(x, GaussRat) and not isinstance(y, GaussRat):
            x = GaussRat(x)
        (xr, xi), (yr, yi) = _parts(x), _parts(y)
        expected = {operator.add: (xr + yr, xi + yi),
                    operator.sub: (xr - yr, xi - yi),
                    operator.mul: (xr * yr - xi * yi, xr * yi + xi * yr)}
        for op, (re, im) in expected.items():
            r = op(x, y)
            _assert_canonical(r)
            assert (r.real, r.imag) == (re, im)
        g = x if isinstance(x, GaussRat) else y
        _assert_canonical(-g)
        _assert_canonical(g.conj())
        if y:
            _assert_canonical(x / y)
            assert (x / y) * y == x

    @given(exact, exact, nonzero)
    @settings(max_examples=300, deadline=None)
    def test_constructor_matches_fractions(self, a, b, d):
        r = GaussRat(a, b, d)
        _assert_canonical(r)
        assert (r.real, r.imag) == (Fraction(a) / d, Fraction(b) / d)

    @given(gauss_any())
    def test_equality_with_plain_numbers(self, x):
        g = x if isinstance(x, GaussRat) else GaussRat(x)
        if g.b == 0:
            assert g == g.real and hash(g) == hash(g.real)
        else:
            assert g != g.real


class TestPublicContract:
    """The public constructors validate; the fast paths must not widen them."""

    def test_gaussrat_rejects_floats_and_strings(self):
        for args in [(0.5,), (1, 0.5), (1, 0, 0.5), ("1",), (Fraction(1, 2), 0.5)]:
            with pytest.raises(TypeError):
                GaussRat(*args)
        with pytest.raises(TypeError):
            GaussRat(1) + 0.5
        with pytest.raises(TypeError):
            GaussRat(1) * 0.5

    def test_gaussrat_bool_and_signs(self):
        assert GaussRat(True) == GR_ONE
        assert type(GaussRat(True).a) is int
        with pytest.raises(ZeroDivisionError):
            GaussRat(1, 2, 0)
        v = GaussRat(2, 4, -6)
        assert (v.a, v.b, v.d) == (-1, -2, 3)

    def test_gaussrat_is_immutable(self):
        with pytest.raises(AttributeError):
            (GR_ONE + GR_ONE).a = 5

    def test_polyform_validates(self):
        with pytest.raises(CoefficientError):
            PolyFormCoeff(1, {((-1,), ()): GR_ONE})
        with pytest.raises(CoefficientError):
            PolyFormCoeff(2, {((0, 0), (2, 1)): GR_ONE})
        with pytest.raises(CoefficientError):
            PolyFormCoeff(2, {((0, 0), (1, 1)): GR_ONE})
        with pytest.raises(CoefficientError):
            PolyFormCoeff.monomial(1, (2,), (2,))
        with pytest.raises(CoefficientError):
            PolyFormCoeff.from_records(1, [{"exps": [-2], "coeff": "1"}])
        with pytest.raises(AttributeError):
            (PolyFormCoeff.monomial(1, (1,)) * 2).terms = {}


FORMS = {1: [(), (1,)], 2: [(), (1,), (2,), (1, 2)]}


@st.composite
def polyform_any(draw, dim, max_deg=2):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                     for _ in range(dim))
        terms[(exps, draw(st.sampled_from(FORMS[dim])))] = draw(gauss())
    return PolyFormCoeff(dim, terms)


MATRICES = {1: [((GaussRat(-1),),), ((GaussRat(2, 1, 3),),)],
            2: [((GaussRat(0), GaussRat(-1)), (GaussRat(1), GaussRat(0))),
                ((GaussRat(1, 0, 2), GaussRat(3)), (GaussRat(0, 1), GaussRat(-2)))]}


def _assert_trusted_canonical(r, dim):
    assert type(r) is PolyFormCoeff and r.dim == dim
    assert r == PolyFormCoeff(dim, dict(r.terms))
    assert all(type(c) is GaussRat and c for c in r.terms.values())


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_trusted_polyform_results_are_canonical(dim, data):
    a = data.draw(polyform_any(dim))
    b = data.draw(polyform_any(dim))
    scalar = data.draw(gauss_any())
    results = [a + b, a - b, a - a, -a, a.scale(scalar), a.scale(0), a * b,
               b * a, a * scalar, scalar * a, a.conj(),
               a.scale_by_form_degree(1), a.exterior_d()]
    results += [a.pullback(m) for m in MATRICES[dim]]
    for r in results:
        _assert_trusted_canonical(r, dim)


def _chart_models():
    yield "z2chart", load_fixture("z2chart").groupoid.model
    # a dimension-2 chart: the quarter-turn rotations of the plane
    rot = ((GaussRat(0), GaussRat(-1)), (GR_ONE, GaussRat(0)))
    powers = [identity_matrix(2)]
    for _ in range(3):
        powers.append(mat_mul(powers[-1], rot))
    yield "z4-plane", CoefficientModel("chart", dim=2, matrices={
        f"r{i}": m for i, m in enumerate(powers)})


@pytest.mark.parametrize("model", [pytest.param(model, id=name)
                                   for name, model in _chart_models()])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_memoised_pullback_matches_direct(model, data):
    for label in sorted(model.matrices):
        for _ in range(3):
            coeff = data.draw(polyform_any(model.dim, max_deg=4))
            got = model.pullback(coeff, label)
            assert got == coeff.pullback(model.matrix(label))
            _assert_trusted_canonical(got, model.dim)
            assert model.pullback(coeff, label) == got


def test_identity_label_pullback_is_unchanged():
    model = load_fixture("z2chart").groupoid.model
    unit = next(label for label, m in model.matrices.items()
                if m == identity_matrix(model.dim))
    coeff = PolyFormCoeff.monomial(1, (3,), (1,), GaussRat(2, 1))
    assert model.pullback(coeff, unit) is coeff
    with pytest.raises(CoefficientError):
        model.pullback(coeff, "no-such-label")


def test_sparse_put_drops_a_cancelled_key():
    store = {}
    sparse_put(store, "a", GaussRat(Fraction(1, 2)))
    sparse_put(store, "b", GR_I)
    sparse_put(store, "a", GaussRat(Fraction(1, 3)))
    assert store == {"a": GaussRat(Fraction(5, 6)), "b": GR_I}
    sparse_put(store, "a", -store["a"])
    assert store == {"b": GR_I}
    sparse_put(store, "b", -GR_I)
    assert store == {}
