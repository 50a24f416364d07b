import pytest

from ncg.coefficients import GaussRat, GR_I, GR_ONE, PolyFormCoeff
from ncg.fixtures import cyclic_groupoid, load_fixture, pair_groupoid, unit_groupoid
from ncg.forms import (AbReducer, GradedSum, NCForm, _delta_generators,
                       _poly_degree, flatten_form, flatten_sum)
from ncg.linalg import RowReducer
from ncg.reference import convolve_reference
from ncg.suites import derive_rng, random_form, random_gauss


def test_normalization_drops_degenerate_tuples():
    g = cyclic_groupoid(2)
    w = NCForm(g, 1, {("g1", "e"): GR_ONE, ("g1", "g1"): GR_ONE})
    assert set(w.values) == {("g1", "g1")}


def test_slot_zero_units_allowed():
    g = cyclic_groupoid(2)
    w = NCForm(g, 1, {("e", "g1"): GR_ONE})
    assert not w.is_zero()


def test_convolution_group_delta():
    g = cyclic_groupoid(2)
    delta_g = NCForm.delta(g, ("g1",))
    assert delta_g.convolve(delta_g) == NCForm.delta(g, ("e",))


def test_convolution_unit_groupoid_pointwise():
    g = unit_groupoid()
    f = NCForm(g, 0, {("1x",): GaussRat(2), ("1y",): GaussRat(3)})
    h = NCForm(g, 0, {("1x",): GaussRat(5), ("1y",): GaussRat(7)})
    prod = f.convolve(h)
    assert prod.coeff(("1x",)) == GaussRat(10)
    assert prod.coeff(("1y",)) == GaussRat(21)


def test_convolution_degree_one_against_reference():
    g = cyclic_groupoid(2)
    rng = derive_rng(7, "forms-oracle")
    for _ in range(30):
        w1 = random_form(g, 1, rng)
        w2 = random_form(g, 0, rng)
        assert w1.convolve(w2) == convolve_reference(w1, w2)
        assert w2.convolve(w1) == convolve_reference(w2, w1)


def test_matrix_algebra_identification():
    """Degree-0 functions on the pair groupoid multiply like 2x2 matrices
    under f((i, j)) = M[i][j]."""
    g = pair_groupoid()
    objects = list(g.objects)
    index = {o: i for i, o in enumerate(objects)}

    def to_matrix(f):
        mat = [[GaussRat(0)] * 2 for _ in range(2)]
        for (arrow,), c in f.values.items():
            i, j = arrow.split(">")
            mat[index[i]][index[j]] = c
        return mat

    rng = derive_rng(11, "matrix-check")
    for a1 in g.arrows:
        for a2 in g.arrows:
            f1, f2 = NCForm.delta(g, (a1,)), NCForm.delta(g, (a2,))
            prod = to_matrix(f1.convolve(f2))
            m1, m2 = to_matrix(f1), to_matrix(f2)
            expected = [[sum((m1[i][t] * m2[t][j] for t in range(2)),
                             GaussRat(0)) for j in range(2)] for i in range(2)]
            assert prod == expected


def test_involution_examples():
    g = cyclic_groupoid(2)
    assert NCForm.delta(g, ("g1",)).involute() == NCForm.delta(g, ("g1",))
    scaled = NCForm.delta(g, ("g1",), GR_I)
    assert scaled.involute() == NCForm.delta(g, ("g1",), -GR_I)


def test_involution_laws_randomized(fixture, rng):
    g = fixture.groupoid
    for _ in range(40):
        w1 = random_form(g, rng.randint(0, 2), rng)
        w2 = random_form(g, rng.randint(0, 2), rng)
        assert w1.involute().involute() == w1
        assert (w1 * w2).involute() == w2.involute() * w1.involute()


def test_d2_examples():
    g = cyclic_groupoid(2)
    f = NCForm.delta(g, ("g1",))
    df = f.d2()
    assert df.values == {("e", "g1"): GR_ONE}
    assert df.d2().is_zero()
    gu = unit_groupoid()
    assert NCForm(gu, 0, {("1x",): GR_ONE}).d2().is_zero()


def test_d1_examples(chart_fixture):
    g = chart_fixture.groupoid
    x2 = PolyFormCoeff.monomial(1, (2,))
    w = NCForm(g, 0, {("g1",): x2})
    expected = NCForm(g, 0, {("g1",): PolyFormCoeff.monomial(1, (1,), (1,),
                                                             GaussRat(2))})
    assert w.d1() == expected
    scalar = load_fixture("z2").groupoid
    assert NCForm.delta(scalar, ("g1",)).d1().is_zero()


def test_total_differential_squares_to_zero(fixture, rng):
    g = fixture.groupoid
    for _ in range(40):
        w = random_form(g, rng.randint(0, 2), rng)
        assert GradedSum(NCForm, g, [w.d1(), w.d2()]).d_total().is_zero()


def _filed(groupoid, *degrees):
    """A reducer with the P = 0 pairs of each total degree filed."""
    reducer = AbReducer(groupoid)
    for degree in degrees:
        reducer._index(degree, 0)
    return reducer


def test_reducer_unit_groupoid_zero():
    g = unit_groupoid()
    assert _filed(g, 0).rank == 0
    assert _filed(g, 1).rank == 0


def test_reducer_abelian_group_degree0():
    assert _filed(cyclic_groupoid(2), 0).rank == 0
    assert _filed(cyclic_groupoid(3), 0).rank == 0


def test_reducer_pair_groupoid_matrix_commutators():
    # commutator span of the 2x2 matrix algebra: trace-zero, dimension 3
    reducer = _filed(pair_groupoid(), 0)
    assert reducer.rank == 3
    g = pair_groupoid()
    unit_delta = NCForm.delta(g, ("1>1",))
    ok, residue = reducer.is_zero_in_ab(unit_delta)
    assert not ok and residue
    traceless = NCForm(g, 0, {("1>1",): GR_ONE, ("2>2",): -GR_ONE})
    ok, combo = reducer.is_zero_in_ab(traceless)
    assert ok and combo


def _replay(reducer, combo):
    """The certificate's combination of literal commutators, flattened."""
    commutators = reducer.commutators
    return flatten_sum(part.scale(coeff) for label, coeff in combo.items()
                       for part in commutators[label])


def test_reducer_certificate_is_exact(fixture, rng):
    g = fixture.groupoid
    reducer = AbReducer(g)
    for _ in range(10):
        w1 = random_form(g, 0, rng, with_forms=False)
        w2 = random_form(g, 1 if g.model.kind == "scalar" else 0, rng,
                         with_forms=False)
        if g.model.kind == "chart":
            w2 = w2.d2()
        comm = w1 * w2 - w2 * w1
        ok, combo = reducer.is_zero_in_ab(comm)
        assert ok
        assert _replay(reducer, combo) == flatten_form(comm)
        # w and -w cancel coordinate by coordinate, leaving no zero behind
        assert flatten_sum([w1, -w1]) == {}
        assert flatten_sum([w2, comm, -w2]) == flatten_form(comm)


def test_reducer_reaches_the_query_polynomial_degree(chart_fixture):
    """The commutator of x^5 delta_(g1) and x^5 delta_(e) has polynomial
    degree 10: its block's generator pairs are enumerated when the query
    reaches it, and the certificate replays."""
    g = chart_fixture.groupoid
    x5 = PolyFormCoeff.monomial(1, (5,))
    w1, w2 = NCForm.delta(g, ("g1",), x5), NCForm.delta(g, ("e",), x5)
    comm = w1 * w2 - w2 * w1
    assert not comm.is_zero()
    reducer = AbReducer(g)
    assert not reducer.pairs  # construction files nothing
    ok, combo = reducer.is_zero_in_ab(comm)
    assert ok and combo
    assert 10 in {block[3] for block in reducer.pairs}
    assert _replay(reducer, combo) == flatten_form(comm)


def test_differential_preserves_commutator_span(scalar_fixture):
    g = scalar_fixture.groupoid
    reducer = _filed(g, 1)
    for label, parts in list(reducer.commutators.items()):
        image = GradedSum(NCForm, g)
        for part in parts:
            image = image + GradedSum(NCForm, g, [part.d1(), part.d2()])
        ok, _ = reducer.is_zero_in_ab(image)
        assert ok, label


def test_is_zero_in_ab_trivial_cases():
    g = cyclic_groupoid(2)
    reducer = AbReducer(g)
    ok, combo = reducer.is_zero_in_ab(NCForm(g, 0))
    assert ok and not combo


def test_associativity_randomized(fixture, rng):
    g = fixture.groupoid
    for _ in range(30):
        degs = [rng.randint(0, 2) for _ in range(3)]
        if sum(degs) > 4:
            continue
        w1, w2, w3 = (random_form(g, d, rng) for d in degs)
        assert (w1 * w2) * w3 == w1 * (w2 * w3)


def _pair_poly(label):
    """Polynomial degree p1 + p2 of a commutator label."""
    return _poly_degree(label[1][2]) + _poly_degree(label[2][2])


def _eager_reducer(g, total_degree, poly):
    """Every commutator of delta generators with p1 + p2 <= poly inserted
    into one RowReducer, in global (degree, label, label) order: the oracle
    for the block reducer."""
    reducer, commutators = RowReducer(), {}
    generators = _delta_generators(g, total_degree, poly)
    for d1_ in range(total_degree + 1):
        d2_ = total_degree - d1_
        for label1, form1 in generators[d1_]:
            for label2, form2 in generators[d2_]:
                if d1_ > d2_ or (d1_ == d2_ and label2 < label1):
                    continue
                if _pair_poly(("comm", label1, label2)) > poly:
                    continue
                rhs = form2.convolve(form1)
                parts = [form1.convolve(form2), rhs if (d1_ * d2_) % 2 else -rhs]
                label = ("comm", label1, label2)
                vec = flatten_sum(parts)
                if vec and reducer.insert(vec, label):
                    commutators[label] = parts
    return reducer, commutators


@pytest.mark.parametrize("degree", range(4))
def test_block_reducer_matches_eager_oracle(fixture, degree):
    """For each polynomial degree P <= 3 (only P = 0 on scalar models) the
    lazy blocks agree with an eager reducer over the pairs with
    p1 + p2 <= P: residues, certificates, rank, and pivot order within
    each polynomial degree."""
    g = fixture.groupoid
    lazy = AbReducer(g)
    for poly in range(4 if g.model.kind == "chart" else 1):
        eager, eager_commutators = _eager_reducer(g, degree, poly)
        rng = derive_rng(degree, "block-oracle", fixture.name, poly)
        commutators = list(eager_commutators.values())
        generators = [form for _, form in _delta_generators(g, degree, poly)[degree]]
        for _ in range(8):
            query = []
            for parts in rng.sample(commutators, min(3, len(commutators))):
                scale = random_gauss(rng)
                query += [part.scale(scale) for part in parts]
            if generators and rng.random() < 0.5:
                query.append(rng.choice(generators).scale(random_gauss(rng)))
            assert lazy.reduce(query) == eager.express(flatten_sum(query))
        for p in range(poly + 1):
            lazy._index(degree, p)
        assert lazy.rank == eager.rank
        assert lazy.commutators == eager_commutators
        for p in range(poly + 1):
            assert [l for l in lazy.commutators if _pair_poly(l) == p] == \
                [l for l in eager_commutators if _pair_poly(l) == p]
        for parts in lazy.commutators.values():
            assert len({lazy.block_of(c) for c in flatten_sum(parts)}) == 1


def test_block_reducer_builds_only_queried_blocks():
    g = load_fixture("z3").groupoid
    reducer = _filed(g, 3)
    unit_class = reducer.block_of((0, ("e",)))[1]
    assert {block[1] for block in reducer.pairs} > {unit_class}
    assert not reducer.blocks  # filing builds nothing
    form = NCForm.delta(g, ("e", "g1", "g1", "g1"))  # composite is the unit
    reducer.is_zero_in_ab(form + form.involute())
    built = set(reducer.blocks)
    assert built and {block[1] for block in built} == {unit_class}
    assert built < set(reducer.pairs)
    assert reducer.rank > 0  # the full-span rank builds every block
    assert set(reducer.blocks) == set(reducer.pairs)


def test_one_reducer_serves_every_total_degree(chart_fixture):
    """The total degree of a coordinate is its simplicial degree plus its
    term's form degree; queries of several total degrees meet disjoint
    blocks of one reducer and get the verdicts of a fresh reducer each."""
    g = chart_fixture.groupoid
    reducer = AbReducer(g)
    assert reducer.rank == 0 and not reducer.pairs  # nothing filed yet
    x_dx = PolyFormCoeff.monomial(1, (1,), (1,))
    w1, w2 = NCForm.delta(g, ("g1",)), NCForm.delta(g, ("g1", "g1"))
    queries = [w1 * w2 - w2 * w1,  # total degree 1, in the span
               NCForm.delta(g, ("e",), x_dx),  # 0 + 1
               NCForm.delta(g, ("e", "g1"), x_dx),  # 1 + 1
               NCForm.delta(g, ("e", "g1", "g1"), x_dx)]  # 2 + 1
    totals = [{reducer.block_of(c)[0] for c in flatten_form(q)} for q in queries]
    assert totals == [{1}, {1}, {2}, {3}]
    fresh = [AbReducer(g).reduce(q) for q in queries]
    assert fresh[0][1]  # a certificate
    assert [reducer.reduce(q) for q in queries] == fresh
    assert {block[0] for block in reducer.blocks} == {1, 2, 3}
