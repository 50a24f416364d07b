from fractions import Fraction

import pytest

from ncg.coefficients import GaussRat, GR_ONE, PolyFormCoeff
from ncg.fixtures import load_fixture
from ncg.forms import NCForm
from ncg.groupoid import GroupoidError
from ncg.kernels import (KernelError, KernelSampler, SmoothingKernel,
                         VerificationError, apply_kernel,
                         apply_kernel_sum, commutator_with_d,
                         equivariance_residuals, kernel_mul,
                         linearity_constraint_columns, linearity_nullspace,
                         kernel_from_coordinates, omega_linearity_failures,
                         operator_to_kernel, set_flags,
                         translate_p, translate_q)
from ncg.linalg import nullspace
from ncg.modules import ModuleForm, nabla01, vector_rep
from ncg.suites import (random_module_form, random_raw_kernel, random_section,
                        run_kernels)


def act_AB(kernel, gamma, side):
    """Translate every entry along gamma on the chosen fiber index.

    side 'A' sends the entry at (p, slots, q) to (p.gamma, slots, q);
    side 'B' sends it to (p, slots, q.gamma).  Raises if any entry is not
    composable with gamma.
    """
    if side not in ("A", "B"):
        raise KernelError(f"side must be 'A' or 'B', got {side!r}")
    bundle = kernel.bundle
    space = bundle.space
    g = bundle.groupoid
    out = {}
    for (p, desc, q), mat in kernel.values.items():
        if side == "A":
            if space.moment[p] != g.tgt[gamma]:
                raise GroupoidError(f"cannot A-translate {(p, desc, q)} along {gamma!r}")
            out[(space.act(p, gamma), desc, q)] = translate_p(bundle, p, gamma, mat)
        else:
            if space.moment[q] != g.tgt[gamma]:
                raise GroupoidError(f"cannot B-translate {(p, desc, q)} along {gamma!r}")
            out[(p, desc, space.act(q, gamma))] = translate_q(bundle, q, gamma, mat)
    result = SmoothingKernel(bundle, kernel.degree)
    result.values = out
    return result


def brute_force_apply(kernel, section):
    """Independent nested-loop evaluation of a kernel on a section."""
    bundle = kernel.bundle
    space = bundle.space
    g = bundle.groupoid
    out = {}
    for p in space.points:
        chains = [t for t in g.composable_tuples(kernel.degree)
                  if all(not g.is_unit(a) for a in t)
                  and g.tgt[t[0]] == space.moment[p]] \
            if kernel.degree else [()]
        for chain in chains:
            endpoint = space.act_word(p, chain)
            total = None
            for q in space.points:
                if space.moment[q] != space.moment[p]:
                    continue
                mat = kernel.values.get((endpoint, tuple(reversed(chain)), q))
                if mat is None:
                    continue
                vec = section.value(q, ())
                if g.model.kind == "chart":
                    vec = tuple(g.transport(c, chain) for c in vec)
                weight = GaussRat(space.measure[q])
                moved = []
                for i in range(bundle.rank):
                    acc = None
                    for j in range(bundle.rank):
                        term = mat[i][j] * vec[j]
                        acc = term if acc is None else acc + term
                    moved.append(acc.scale(weight))
                moved = tuple(moved)
                total = moved if total is None else tuple(
                    a + b for a, b in zip(total, moved))
            if total is not None and any(not c.is_zero() for c in total):
                out[(p, chain)] = total
    return out


def test_delta_kernel_is_identity(fixture, rng):
    for key in ("rank1", "rank2"):
        b = fixture.bundle(key)
        delta = SmoothingKernel.delta(b)
        for _ in range(5):
            F = random_section(b, rng)
            assert apply_kernel(delta, F) == F
            G = random_module_form(b, 1, rng)
            assert apply_kernel(delta, G) == G


def test_zero_kernel(fixture, rng):
    b = fixture.bundle("rank1")
    zero = SmoothingKernel.zero(b, 1)
    assert apply_kernel(zero, random_section(b, rng)).is_zero()


def test_apply_against_brute_force(scalar_fixture, rng):
    b = scalar_fixture.bundle("rank2")
    for slots in (0, 1):
        for _ in range(6):
            K = random_raw_kernel(b, slots, rng)
            F = random_section(b, rng)
            applied = apply_kernel(K, F)
            assert applied.values == brute_force_apply(K, F)


def test_act_ab_examples():
    fx = load_fixture("z2")
    b = fx.bundles["rank2"]   # odd line twisted by -1 along g1
    rng_local = __import__("random").Random(5)
    K = random_raw_kernel(b, 1, rng_local)
    assert act_AB(K, "e", "A") == K
    assert act_AB(K, "e", "B") == K
    moved = act_AB(K, "g1", "A")
    for (p, desc, q), mat in K.values.items():
        pg = fx.space.act(p, "g1")
        expect = ((mat[0][0], mat[0][1]), (-mat[1][0], -mat[1][1]))
        assert moved.values[(pg, desc, q)] == expect


def test_act_ab_composition():
    fx = load_fixture("z3")
    b = fx.bundles["rank2-rotation"]
    g = fx.groupoid
    rng_local = __import__("random").Random(6)
    K = random_raw_kernel(b, 1, rng_local)
    assert act_AB(act_AB(K, "g1", "B"), "g2", "B") == \
        act_AB(K, g.mul("g1", "g2"), "B")
    assert act_AB(act_AB(K, "g1", "A"), "g2", "A") == \
        act_AB(K, g.mul("g1", "g2"), "A")


def test_equivariance_residual_witnesses():
    fx = load_fixture("z2")
    b = fx.bundles["rank1"]
    zero = SmoothingKernel.zero(b, 1)
    r1, r2 = equivariance_residuals(zero)
    assert not r1 and not r2
    single = SmoothingKernel(b, 1, {("e", ("g1",), "e"): ((GR_ONE,),)})
    r1, r2 = equivariance_residuals(single)
    assert r2  # the boundary sum cannot vanish with one entry
    key = next(iter(r2))
    assert key[1] == "g1"


def test_two_slot_residual_witnesses():
    fx = load_fixture("z3")
    b = fx.bundles["rank1"]
    single = SmoothingKernel(b, 2, {("e", ("g1", "g2"), "g1"): ((GR_ONE,),)})
    interior, boundary = equivariance_residuals(single)
    # the q-translated entry has nothing to cancel against at its own key
    assert ("e", "g1", "g2", "g1") in boundary
    assert all(len(w) == 4 for w in boundary)  # (P, w_2, w_1, q)
    assert all(len(w) == 5 for w in interior)  # (P, w_2, w_1, q, gamma)
    assert set_flags(single).cocycle is False


def _sweep_nullspace(bundle, slots):
    """The commutation equations themselves, evaluated column by column on
    basis kernels: the exhaustive reference for the residual system."""
    g = bundle.groupoid
    columns = linearity_constraint_columns(bundle, slots)
    rows = {}
    for col in columns:
        basis = kernel_from_coordinates(bundle, slots, {col: GR_ONE})
        for gamma in g.nonunit_arrows():
            f = NCForm.delta(g, (gamma,))
            for n, F in enumerate(ModuleForm.basis(bundle, 0)):
                diff = apply_kernel(basis, vector_rep(f, F)) - \
                    vector_rep(f, apply_kernel(basis, F))
                for mkey, vec in diff.values.items():
                    for a, c in enumerate(vec):
                        terms = {(): c} if isinstance(c, GaussRat) else c.terms
                        for tkey, v in terms.items():
                            if not v.is_zero():
                                coord = (gamma, n, mkey, a, tkey)
                                rows.setdefault(coord, {})[col] = v
    return nullspace(list(rows.values()), columns)


def test_residual_nullspace_matches_sweep(fixture):
    """Slots 0-2 on every bundle, slot 3 on scalar rank-1 bundles: the
    residual rows and the commutation sweep cut out the same space, so the
    sampler's reduced echelon basis is the same."""
    chart = fixture.groupoid.model.kind == "chart"
    for key, b in fixture.bundles.items():
        top = 3 if b.rank == 1 and not chart else 2
        for slots in range(top + 1):
            _, basis = linearity_nullspace(b, slots)
            assert basis == _sweep_nullspace(b, slots), (key, slots)


def _with_form(kernel, coeff):
    out = SmoothingKernel(kernel.bundle, kernel.degree)
    out.values = {k: tuple(tuple(c * coeff for c in row) for row in m)
                  for k, m in kernel.values.items()}
    return out


@pytest.mark.parametrize("name", ["z2chart", "z3", "pair2", "z2swap", "z2"])
def test_flags_agree_with_sweep(name, rng):
    """On curvature parts, commutator parts, products of sampled kernels and
    (form-valued) perturbations, the residual flags say exactly what the
    exhaustive commutation sweep says."""
    from ncg.chern import curvature_kernels
    fx = load_fixture(name)
    chart = fx.groupoid.model.kind == "chart"
    kernels = []
    for key in ("rank1", "rank2"):
        for u in (Fraction(0), Fraction(1, 2), Fraction(1)):
            kernels += curvature_kernels(fx.connection(key, u)).parts.values()
        c = fx.connection(key)
        for slots in (0, 1, 2):
            sampler = KernelSampler(c.bundle, slots)
            k1, k2 = sampler.sample(rng), sampler.sample(rng)
            raw = random_raw_kernel(c.bundle, slots, rng)
            kernels += [kernel_mul(k1, k2), k1 + raw]
            if chart:
                dx = PolyFormCoeff.monomial(1, (1,), (1,))
                kernels += [_with_form(k1, dx), _with_form(k1 + raw, dx)]
            if slots < 2:
                kernels += commutator_with_d(c, k1).parts.values()
    failing = 0
    for K in kernels:
        set_flags(K)
        linear = K.equivariant and K.cocycle
        assert linear == (not omega_linearity_failures(K, max_cases=1)), K
        failing += not linear
    assert 0 < failing < len(kernels)


def test_sampler_contract(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    if fixture.name == "unit2":
        assert sampler.dimension == 0
        assert sampler.sample(rng) is None
        return
    assert sampler.dimension > 0
    k1 = sampler.sample(rng)
    k2 = sampler.sample(rng)
    assert k1.equivariant and k1.cocycle
    assert not omega_linearity_failures(k1)
    assert k1 != k2  # two draws give distinct kernels


def test_sampler_rejects_a_nonlinear_basis_at_build(monkeypatch):
    """Samples inherit the flags of the basis, so a basis kernel that fails
    its constraints must stop the sampler's build."""
    b = load_fixture("z3").bundle("rank1")
    solve = linearity_nullspace

    def with_nonlinear(bundle, slots):
        columns, basis = solve(bundle, slots)
        return columns, basis + [{columns[0]: GR_ONE}]

    monkeypatch.setattr("ncg.kernels.linearity_nullspace", with_nonlinear)
    with pytest.raises(VerificationError):
        KernelSampler(b, 1)


@pytest.mark.parametrize("slots", [0, 1, 2])
def test_sampled_flags_match_a_recheck(fixture, slots, rng):
    """The flags a sample is stamped with are the flags the residual system
    finds on a copy of it."""
    for b in fixture.bundles.values():
        sampler = KernelSampler(b, slots)
        for _ in range(3):
            K = sampler.sample(rng)
            if K is None:
                break
            copy = set_flags(K._like(dict(K.values)))
            assert (K.equivariant, K.cocycle) == (copy.equivariant, copy.cocycle)
            assert (K.equivariant, K.cocycle) == (True, True)


def test_kernel_suite_catches_a_slot_swapping_product(monkeypatch):
    """Products inherit their factors' flags unchecked; the kernels suite's
    laws must still see a kernel_mul that swaps two slots of its output."""
    product = kernel_mul

    def swapped(k1, k2):
        out = product(k1, k2)
        out.values = {(p, desc[1::-1] + desc[2:], q): m
                      for (p, desc, q), m in out.values.items()}
        return out

    monkeypatch.setattr("ncg.suites.kernel_mul", swapped)
    report = run_kernels(load_fixture("z3"), seed=0, trials=8)
    failed = {c["name"] for c in report["cases"] if c["verdict"] == "FAIL"}
    assert not report["passed"]
    assert failed & {"flags-product", "multiplication-application"}


def test_sampler_equivalence_reverse(fixture, rng):
    b = fixture.bundle("rank2")
    hits = 0
    for _ in range(25):
        raw = random_raw_kernel(b, 1, rng)
        r1, r2 = equivariance_residuals(raw)
        if r1 or r2:
            hits += 1
            assert omega_linearity_failures(raw, max_cases=1)
    if fixture.name != "unit2":
        assert hits > 0


def test_kernel_mul_delta_identity(fixture, rng):
    b = fixture.bundle("rank2")
    delta = SmoothingKernel.delta(b)
    K = random_raw_kernel(b, 1, rng)
    assert kernel_mul(delta, K) == K
    assert kernel_mul(K, delta) == K


def test_kernel_mul_composition_law(fixture, rng):
    b = fixture.bundle("rank2")
    for _ in range(8):
        k1 = random_raw_kernel(b, rng.choice([0, 1]), rng)
        k2 = random_raw_kernel(b, rng.choice([0, 1, 2]), rng)
        F = random_section(b, rng)
        assert apply_kernel(kernel_mul(k2, k1), F) == \
            apply_kernel(k2, apply_kernel(k1, F))


def test_kernel_mul_associativity(fixture, rng):
    b = fixture.bundle("rank2")
    for _ in range(8):
        ks = [random_raw_kernel(b, rng.choice([0, 1]), rng) for _ in range(3)]
        assert kernel_mul(kernel_mul(ks[0], ks[1]), ks[2]) == \
            kernel_mul(ks[0], kernel_mul(ks[1], ks[2]))


def test_commutator_with_d_scalar(scalar_fixture, rng):
    c = scalar_fixture.connection()
    b = c.bundle
    sampler = KernelSampler(b, 1)
    if sampler.dimension == 0:
        return
    K = sampler.sample(rng)
    out = commutator_with_d(c, K)  # self-asserts against the operator side
    assert set(out.parts) <= {1, 2}
    for part in out.parts.values():
        assert part.equivariant and part.cocycle


def test_commutator_with_delta_kernel(fixture, rng):
    c = fixture.connection()
    delta = SmoothingKernel.delta(c.bundle)
    out = commutator_with_d(c, delta)
    # [D, identity] = 0: operator asserted inside; entries must cancel
    for F in ModuleForm.basis(c.bundle, 0)[:2]:
        assert apply_kernel_sum(out, F).is_zero()


def test_commutator_zero_kernel(fixture):
    c = fixture.connection()
    zero = SmoothingKernel.zero(c.bundle, 1)
    out = commutator_with_d(c, zero)
    assert out.is_zero()


def test_commutator_chart_includes_horizontal(rng):
    fx = load_fixture("z2chart")
    c = fx.connection("rank1")
    sampler = KernelSampler(c.bundle, 1)
    K = sampler.sample(rng)
    out = commutator_with_d(c, K)
    assert 1 in out.parts or 2 in out.parts


def test_operator_to_kernel_identity(fixture):
    b = fixture.bundle("rank2")
    kernel = operator_to_kernel(lambda F: F, b).component(0)
    assert kernel == SmoothingKernel.delta(b)


def test_operator_to_kernel_squared_nabla(scalar_fixture):
    fx = scalar_fixture
    b = fx.bundle("rank2")
    def op(F):
        return nabla01(nabla01(F, fx.h), fx.h)
    kernel = operator_to_kernel(op, b).component(2)
    for F in ModuleForm.basis(b, 0):
        assert apply_kernel(kernel, F) == op(F)


def test_operator_to_kernel_rejects_nabla(fixture):
    fx = fixture
    b = fx.bundle("rank2")
    if not fx.groupoid.nonunit_arrows():
        return  # the simplicial derivative vanishes identically here
    def op(F):
        return nabla01(F, fx.h)
    with pytest.raises(KernelError):
        operator_to_kernel(op, b)


@pytest.mark.parametrize("key", ["rank1", "rank2"])
def test_commutator_with_odd_form_degree_entries(key, rng):
    """delta . x dx is form-linear with 1-form entries: D commutes with it,
    and the commutator of its products with 1-slot kernels passes its own
    operator-side check."""
    fx = load_fixture("z2chart")
    b = fx.bundle(key)
    c = fx.connection(key)
    x_dx = PolyFormCoeff.monomial(1, (1,), (1,))
    kernel = SmoothingKernel(b, 0, {
        k: tuple(tuple(v * x_dx for v in row) for row in mat)
        for k, mat in SmoothingKernel.delta(b).values.items()})
    set_flags(kernel)
    assert (kernel.equivariant, kernel.cocycle) == (True, True)
    assert kernel.form_degrees() == {1}
    assert commutator_with_d(c, kernel).is_zero()
    sample = KernelSampler(b, 1).sample(rng)
    for product in (kernel_mul(kernel, sample), kernel_mul(sample, kernel)):
        set_flags(product)
        assert (product.equivariant, product.cocycle) == (True, True)
        assert not product.is_zero()
        commutator_with_d(c, product)
