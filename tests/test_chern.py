import importlib
import json
from fractions import Fraction

import pytest

from ncg.chern import (VerificationError, chern_form, chern_vector_bundle,
                       curvature_kernels, heat_exponential, reduce_in_ab,
                       trace_e, trace_sum, verify_closedness, verify_theorem,
                       verify_trace_property)
from ncg.cli import main
from ncg.coefficients import GaussRat, GR_ONE, PolyFormCoeff
from ncg.fixtures import load_fixture
from ncg.forms import AbReducer, GradedSum, NCForm
from ncg.groupoid import canonical_h, trivial_bundle, unit_space
from ncg.kernels import (KernelError, KernelSampler, SmoothingKernel,
                         apply_kernel_sum, commutator_with_d, kernel_mul,
                         kernel_sum_mul, set_flags)
from ncg.modules import ConnectionData, ModuleForm, nabla01
from ncg.reference import trace_reference
from ncg.suites import derive_rng, random_raw_kernel


def test_trace_delta_kernel_example():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    tr = trace_e(SmoothingKernel.delta(b), fx.h)
    assert tr.values == {("e",): GR_ONE}


def test_trace_zero_kernel(fixture):
    b = fixture.bundle("rank2")
    zero = SmoothingKernel.zero(b, 1)
    assert trace_e(zero, fixture.h).is_zero()


def test_trace_requires_flags(fixture, rng):
    b = fixture.bundle("rank2")
    raw = random_raw_kernel(b, 1, rng)
    if raw.equivariant is not True:
        with pytest.raises(KernelError):
            trace_e(raw, fixture.h)


def test_trace_and_commutator_require_boundary_condition():
    """A kernel that passes the interior condition but fails the boundary
    one is not form-linear: neither the trace nor the commutator accepts
    it."""
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    K = set_flags(SmoothingKernel(b, 1, {("e", ("g1",), "e"): ((GR_ONE,),)}))
    assert (K.equivariant, K.cocycle) == (True, False)
    with pytest.raises(KernelError):
        trace_e(K, fx.h)
    with pytest.raises(KernelError):
        commutator_with_d(fx.connection("rank1"), K)


def test_trace_against_reference(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    for _ in range(6):
        K = sampler.sample(rng)
        if K is None:
            return
        assert trace_e(K, fixture.h) == trace_reference(K, fixture.h)
        assert trace_e(K, fixture.h, graded=True) == \
            trace_reference(K, fixture.h, graded=True)


def test_trace_linearity_and_degree(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    k1, k2 = sampler.sample(rng), sampler.sample(rng)
    if k1 is None:
        return
    combined = k1 + k2
    set_flags(combined)
    assert trace_e(combined, fixture.h) == \
        trace_e(k1, fixture.h) + trace_e(k2, fixture.h)
    assert trace_e(k1, fixture.h).degree == k1.degree


def test_kernel_sum_keeps_linearity_flags(rng):
    # (delta + K)^2 has the 1-slot part delta*K + K*delta, a sum of two
    # verified kernels: it must stay verified, so its trace is defined
    fx = load_fixture("z3")
    b = fx.bundles["rank1"]
    delta = SmoothingKernel.delta(b)
    K = KernelSampler(b, 1).sample(rng)
    A = GradedSum(SmoothingKernel, b, [delta, K])
    square = kernel_sum_mul(A, A)
    traces = trace_sum(square, fx.h)
    assert traces.component(1) == (trace_e(kernel_mul(delta, K), fx.h)
                                   + trace_e(kernel_mul(K, delta), fx.h))
    part = square.component(1)
    assert (part.equivariant, part.cocycle) == (True, True)
    raw = random_raw_kernel(b, 1, rng)
    assert (raw.equivariant, raw.cocycle) == (None, None)
    mixed = K + raw
    assert (mixed.equivariant, mixed.cocycle) == (None, None)


def test_supertrace_graded_examples():
    fx = load_fixture("z2")
    graded = fx.bundles["rank2-trivial"]  # grading (+, -), trivial action
    delta = SmoothingKernel.delta(graded)
    assert trace_e(delta, fx.h, graded=True).is_zero()
    ungraded = trivial_bundle(fx.space, 2)
    delta2 = SmoothingKernel.delta(ungraded)
    assert trace_e(delta2, fx.h, graded=True) == trace_e(delta2, fx.h)
    flipped = trivial_bundle(fx.space, 2, grading=(-1, -1))
    delta3 = SmoothingKernel.delta(flipped)
    assert trace_e(delta3, fx.h, graded=True) == -trace_e(delta3, fx.h)


def test_heat_zero_curvature_is_delta_only():
    fx = load_fixture("unit2")
    c = fx.connection()
    terms = heat_exponential(c, 4)
    assert len(terms) == 3
    assert terms[0].parts == {0: SmoothingKernel.delta(c.bundle)}
    assert terms[1].is_zero() and terms[2].is_zero()


def test_heat_first_term_is_negative_squared_connection(scalar_fixture):
    c = scalar_fixture.connection()
    terms = heat_exponential(c, 2)
    fx = scalar_fixture
    def op(F):
        return nabla01(nabla01(F, fx.h), fx.h)
    for F in ModuleForm.basis(c.bundle, 0):
        expected = op(F)
        got = apply_kernel_sum(terms[1], F)
        assert got.component(2) == -expected


def test_heat_terms_match_operator_powers(scalar_fixture):
    c = scalar_fixture.connection()
    terms = heat_exponential(c, 4)
    fx = scalar_fixture
    h = fx.h
    def square(F):
        return nabla01(nabla01(F, h), h)
    for F in ModuleForm.basis(c.bundle, 0):
        target = square(square(F))
        got = apply_kernel_sum(terms[2], F)
        assert got.component(4) == target.scale(GaussRat(Fraction(1, 2)))


def test_heat_semigroup_consistency(scalar_fixture):
    """Sum over a+b=j of term_a * term_b equals the heat terms at doubled
    curvature: exp(-C)^2 = exp(-2C), degree by degree."""
    c = scalar_fixture.connection()
    terms = heat_exponential(c, 4)
    for j in (0, 1, 2):
        total = None
        for a in range(j + 1):
            prod = kernel_sum_mul(terms[a], terms[j - a])
            total = prod if total is None else total + prod
        expected = terms[j].scale(GaussRat(2 ** j))
        assert total == expected, j


def test_chern_form_degree_zero(fixture):
    c = fixture.connection("rank1", Fraction(1, 2))
    components = chern_form(c, 0)
    comp = components[0].component(0)
    g = fixture.groupoid
    h = fixture.h
    space = fixture.space
    for x in g.objects:
        expected = sum((h(p) for p in space.fiber(x)), Fraction(0))
        got = comp.coeff((g.unit[x],))
        assert got == g.model.from_gauss(GaussRat(expected))


def test_chern_form_rejects_negative_degree():
    c = load_fixture("z3").connection("rank1")
    with pytest.raises(ValueError):
        chern_form(c, -1)


def test_vb_chern_rejects_negative_degree():
    us = unit_space(load_fixture("z3").groupoid)
    c = ConnectionData(trivial_bundle(us, 2), canonical_h(us))
    with pytest.raises(ValueError):
        chern_vector_bundle(c, -3)


def test_chern_form_graded_cancellation():
    fx = load_fixture("z2")
    c = fx.connection("rank2-trivial", Fraction(1, 2))
    components = chern_form(c, 0)
    assert components[0].is_zero()


def test_chern_u_independent_in_scalar_model(scalar_fixture):
    c0 = scalar_fixture.connection("rank2", Fraction(0))
    c1 = scalar_fixture.connection("rank2", Fraction(1))
    assert chern_form(c0, 4).keys() == chern_form(c1, 4).keys()
    for degree, comp in chern_form(c0, 4).items():
        assert comp == chern_form(c1, 4)[degree]


def test_verify_theorem_zero_kernel(fixture):
    c = fixture.connection()
    zero = SmoothingKernel.zero(c.bundle, 1)
    reducer = AbReducer(fixture.groupoid)
    assert verify_theorem(c, zero, reducer).passed


def test_verify_theorem_sampled(fixture, rng):
    c = fixture.connection()
    sampler = KernelSampler(c.bundle, 1)
    if sampler.dimension == 0:
        return
    reducer = AbReducer(fixture.groupoid)
    for _ in range(5):
        K = sampler.sample(rng)
        verdict = verify_theorem(c, K, reducer)
        assert verdict.passed
        assert verdict.payload()["verdict"] == "PASS"


@pytest.mark.parametrize("key", ["rank1", "rank2"])
def test_verify_theorem_chart_without_connection_matrices(chart_fixture, key):
    """Without connection matrices the chart superconnection still carries
    the exterior derivative, so the commutator keeps its d(entry) part."""
    b = chart_fixture.bundle(key)
    sampler = KernelSampler(b, 1)
    reducer = AbReducer(chart_fixture.groupoid)
    for trial in range(3):
        K = sampler.sample(derive_rng(0, "chart-no-connection", key, trial))
        for u in (Fraction(0), Fraction(1, 2), Fraction(1)):
            c = ConnectionData(b, chart_fixture.h, u=u)
            assert c.horizontal is None
            verdict = verify_theorem(c, K, reducer)
            assert verdict.passed and verdict.certificate


def test_verify_theorem_broken_kernel_fails(rng):
    """Dense non-linear kernels genuinely break the trace identity on a
    fixture whose target fibers hold two non-unit arrows; the bypassed
    pipeline must report a nonzero residue."""
    from ncg.kernels import commutator_with_d, equivariance_residuals

    def mark_verified(kernel):
        kernel.equivariant = kernel.cocycle = True
        return kernel

    fx = load_fixture("z3")
    c = fx.connection("rank1")
    reducer = AbReducer(fx.groupoid)
    found = False
    for _ in range(10):
        raw = random_raw_kernel(c.bundle, 1, rng, density=1.0)
        r1, r2 = equivariance_residuals(raw)
        if not (r1 or r2):
            continue
        mark_verified(raw)  # bypass the precondition
        tr = trace_e(raw, fx.h)
        lhs = GradedSum(NCForm, fx.groupoid, [tr.d1(), tr.d2()])
        commutator = commutator_with_d(c, raw)
        rhs = trace_sum(commutator, fx.h)
        verdict = reduce_in_ab(lhs - rhs, reducer, "broken")
        if not verdict.passed:
            assert verdict.residue
            found = True
            break
    assert found


def test_trace_property_delta(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    K = sampler.sample(rng)
    if K is None:
        return
    delta = SmoothingKernel.delta(b)
    t1 = trace_e(set_flags(kernel_mul(K, delta)), fixture.h)
    t2 = trace_e(set_flags(kernel_mul(delta, K)), fixture.h)
    assert t1 == t2  # exact equality, no reduction needed


def test_trace_property_sampled(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    if sampler.dimension == 0:
        return
    reducer = AbReducer(fixture.groupoid)
    for _ in range(5):
        k1, k2 = sampler.sample(rng), sampler.sample(rng)
        assert verify_trace_property(k1, k2, fixture.h, reducer).passed


def test_pair_groupoid_trace_cyclicity_matches_matrices(rng):
    """0-slot linear kernels on the pair groupoid act like block matrices;
    the localized trace difference of the two products vanishes exactly,
    matching matrix-trace cyclicity."""
    fx = load_fixture("pair2")
    b = fx.bundles["rank1"]
    sampler = KernelSampler(b, 0)
    assert sampler.dimension > 0
    space = b.space

    def block_matrix(kernel, x):
        pts = sorted(space.fiber(x))
        return [[kernel.matrix((p, (), q))[0][0] * GaussRat(space.measure[q])
                 for q in pts] for p in pts]

    for _ in range(10):
        k1, k2 = sampler.sample(rng), sampler.sample(rng)
        t12 = trace_e(set_flags(kernel_mul(k1, k2)), fx.h)
        t21 = trace_e(set_flags(kernel_mul(k2, k1)), fx.h)
        assert t12 == t21
        for x in fx.groupoid.objects:
            m1, m2 = block_matrix(k1, x), block_matrix(k2, x)
            n = len(m1)
            tr12 = sum((m1[i][t] * m2[t][i] for i in range(n) for t in range(n)),
                       GaussRat(0))
            tr21 = sum((m2[i][t] * m1[t][i] for i in range(n) for t in range(n)),
                       GaussRat(0))
            assert tr12 == tr21


def test_verify_closedness_all_u(fixture):
    g = fixture.groupoid
    reducer = AbReducer(g)
    for key in ("rank1", "rank2"):
        for u in (Fraction(0), Fraction(1, 2), Fraction(1)):
            c = fixture.connection(key, u)
            verdicts = verify_closedness(chern_form(c, 4), reducer, str)
            assert verdicts and all(verdicts), (key, u)


def test_vb_chern_rank_density(scalar_fixture):
    g = scalar_fixture.groupoid
    us = unit_space(g)
    c = ConnectionData(trivial_bundle(us, 2), canonical_h(us))
    comp = chern_vector_bundle(c, 0)[0].component(0)
    assert comp.values == {(g.unit[x],): g.model.from_gauss(GaussRat(2))
                           for x in g.objects}


def test_vb_chern_requires_unit_space():
    fx = load_fixture("z2")
    c = fx.connection("rank1")
    with pytest.raises(VerificationError):
        chern_vector_bundle(c, 2)


def test_vb_chern_closedness(scalar_fixture):
    g = scalar_fixture.groupoid
    us = unit_space(g)
    c = ConnectionData(trivial_bundle(us, 2), canonical_h(us))
    verdicts = verify_closedness(chern_vector_bundle(c, 4), AbReducer(g), str)
    assert verdicts and all(verdicts)


def test_vb_chern_chart_with_connection():
    g = load_fixture("z2chart").groupoid
    us = unit_space(g)
    h = canonical_h(us)
    bundle = trivial_bundle(us, 1)
    xdx = PolyFormCoeff.monomial(1, (1,), (1,))
    c = ConnectionData(bundle, h, horizontal={p: ((xdx,),) for p in us.points})
    verdicts = verify_closedness(chern_vector_bundle(c, 2), AbReducer(g), str)
    assert verdicts and all(verdicts)
    comps = chern_vector_bundle(c, 2)
    assert comps[0].component(0).values == {
        ("e",): PolyFormCoeff.constant(1, GR_ONE)}


def count_curvature_builds(monkeypatch):
    calls = []
    build = curvature_kernels

    def counted(connection):
        calls.append(connection)
        return build(connection)

    monkeypatch.setattr("ncg.chern.curvature_kernels", counted)
    return calls


def test_cmd_chern_builds_curvature_once(monkeypatch, capsys):
    calls = count_curvature_builds(monkeypatch)
    assert main(["chern", "z3"]) == 0
    assert len(calls) == 1


def test_chern_suite_builds_curvature_once_per_connection(monkeypatch, capsys):
    calls = count_curvature_builds(monkeypatch)
    assert main(["verify", "--suite", "chern", "--fixture", "z3"]) == 0
    # rank1 and rank2 once each (on a scalar model D(u) is the same operator
    # at every u), then the unit-space bundle
    assert len(calls) == 3


def test_chart_chern_suite_builds_curvature_once_per_u(monkeypatch, capsys):
    fx = load_fixture("z2chart")
    us = (Fraction(0), Fraction(1, 2), Fraction(1))
    for key in ("rank1", "rank2"):
        matrices = [fx.connection(key, u).horizontal_u for u in us]
        assert all(a != b for a, b in zip(matrices, matrices[1:]))
    calls = count_curvature_builds(monkeypatch)
    assert main(["verify", "--suite", "chern", "--fixture", "z2chart"]) == 0
    # the D(u) matrices A, 0 and -A differ: rank1 and rank2 at three values
    # of u, then the unit-space bundle
    assert len(calls) == 7
    assert [c.u for c in calls[:3]] == list(us)


def test_theorem_suite_checks_each_kernel_once(monkeypatch, capsys):
    calls = []
    commutator = commutator_with_d

    def counted(connection, kernel):
        calls.append(kernel)
        return commutator(connection, kernel)

    monkeypatch.setattr("ncg.chern.commutator_with_d", counted)
    assert main(["verify", "--suite", "theorem", "--fixture", "z3",
                 "--trials", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 4
    assert sum(c["name"].startswith("theorem-k") for c in report["cases"]) == 12


def test_theorem_suite_checks_linearity_only_at_sampler_build(monkeypatch, capsys):
    """Samples, products and commutators inherit their flags, so the only
    residual checks of a theorem run are the sampler's, one per basis
    kernel, made while it is built."""
    calls, building = [], []
    check, build = set_flags, KernelSampler.__init__

    def counted(kernel):
        calls.append(bool(building))
        return check(kernel)

    def counted_build(self, *args, **kwargs):
        building.append(True)
        try:
            build(self, *args, **kwargs)
        finally:
            building.pop()

    for name in ("kernels", "chern", "suites", "io"):
        module = importlib.import_module(f"ncg.{name}")
        if hasattr(module, "set_flags"):
            monkeypatch.setattr(module, "set_flags", counted)
    monkeypatch.setattr(KernelSampler, "__init__", counted_build)
    assert main(["verify", "--suite", "theorem", "--fixture", "z3",
                 "--trials", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    sampler = next(c for c in report["cases"] if c["name"] == "sampler")
    assert sampler["certificate"] == "slots 1, dimension 24"
    assert len(calls) == 24 and all(calls)


def test_theorem_verdict_is_independent_of_u():
    """The identity reads D, not D(u): on z2chart, where the D(u) matrices
    differ for each u, every kernel's verdict is the same at every u.  The
    theorem suite checks each kernel once on this ground."""
    fx = load_fixture("z2chart")
    key = "rank2"
    us = (Fraction(0), Fraction(1, 3), Fraction(1))
    connections = [fx.connection(key, u) for u in us]
    assert connections[0].horizontal_u != connections[1].horizontal_u
    assert connections[1].horizontal_u != connections[2].horizontal_u
    sampler = KernelSampler(fx.bundle(key), 1)
    reducer = AbReducer(fx.groupoid)
    for trial in range(3):
        K = sampler.sample(derive_rng(0, "theorem-u", trial))
        payloads = [verify_theorem(c, K, reducer).payload()
                    for c in connections]
        assert payloads[0]["certificate"]
        assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_curvature_kernels_evaluate_once_per_basis_form(monkeypatch):
    c = load_fixture("z3").connection("rank2")
    op = c.curvature_operator()
    calls = []

    def counted(F):
        calls.append(F)
        return op(F)

    monkeypatch.setattr(c, "curvature_operator", lambda: counted)
    curvature_kernels(c)
    # 6 delta sections and 12 degree-one deltas (6 non-unit arrows, rank 2)
    assert len(calls) == 18
