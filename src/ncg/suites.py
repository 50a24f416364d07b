"""Seeded verification suites over a fixture.

Every random draw comes from a stream derived from (seed, suite, case,
trial) through a hash, so runs are reproducible and independent of
execution order; reports list their cases sorted by name.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bisections import (Bisection, decompose, germ_pullback, is_bisection,
                         one_u, reassemble)
from .chern import (Verdict, chern_form, chern_vector_bundle, trace_e,
                    verify_closedness, verify_theorem, verify_trace_property)
from .coefficients import GaussRat, PolyFormCoeff
from .fixtures import Fixture
from .forms import AbReducer, GradedSum, NCForm
from .groupoid import canonical_h, trivial_bundle, unit_space
from .kernels import (KernelSampler, SmoothingKernel, apply_kernel,
                      commutator_with_d, equivariance_residuals, kernel_keys,
                      kernel_mul, omega_linearity_failures, set_flags)
from .modules import (ConnectionData, ModuleForm, inner_product, module_keys,
                      vector_rep)
from .reference import convolve_reference, trace_reference

SUITE_NAMES = ("algebra", "bisection", "module", "kernels", "theorem", "chern")

U_DEFAULT = (Fraction(0), Fraction(1, 2), Fraction(1))


def derive_rng(seed: int, *labels) -> random.Random:
    """Independent substream for (seed, labels...): splitting by hashing."""
    text = f"{seed}|" + "|".join(str(l) for l in labels)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_gauss(rng: random.Random, spread: int = 3) -> GaussRat:
    return GaussRat(Fraction(rng.randint(-spread, spread), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)))


def random_coeff(model, rng: random.Random, poly_degree: int = 2,
                 with_forms: bool = True):
    if model.kind == "scalar":
        return random_gauss(rng)
    terms = {}
    for _ in range(2):
        exps = tuple(rng.randint(0, poly_degree) for _ in range(model.dim))
        form = ()
        if with_forms and rng.random() < 0.4:
            form = (rng.randint(1, model.dim),)
        terms[(exps, form)] = random_gauss(rng)
    return PolyFormCoeff(model.dim, terms)


def random_form(groupoid, n: int, rng: random.Random, density: float = 0.75,
                with_forms: bool = True) -> NCForm:
    values = {}
    for t in groupoid.nondegenerate_tuples(n):
        if rng.random() < density:
            values[t] = random_coeff(groupoid.model, rng, with_forms=with_forms)
    return NCForm(groupoid, n, values)


def random_function(groupoid, rng: random.Random, density: float = 0.85) -> NCForm:
    return random_form(groupoid, 0, rng, density, with_forms=False)


def random_section(bundle, rng: random.Random) -> ModuleForm:
    model = bundle.groupoid.model
    return ModuleForm(bundle, 0, {
        (p, ()): tuple(random_coeff(model, rng) for _ in range(bundle.rank))
        for p in bundle.space.points})


def random_module_form(bundle, n: int, rng: random.Random,
                       density: float = 0.75) -> ModuleForm:
    model = bundle.groupoid.model
    values = {}
    for key in module_keys(bundle.space, n):
        if rng.random() < density:
            values[key] = tuple(random_coeff(model, rng)
                                for _ in range(bundle.rank))
    return ModuleForm(bundle, n, values)


def random_raw_kernel(bundle, slots: int, rng: random.Random,
                      density: float = 0.8) -> SmoothingKernel:
    model = bundle.groupoid.model
    entries = {}
    for key in kernel_keys(bundle.space, slots):
        if rng.random() < density:
            entries[key] = tuple(
                tuple(random_coeff(model, rng, with_forms=False)
                      for _ in range(bundle.rank))
                for _ in range(bundle.rank))
    out = SmoothingKernel(bundle, slots)
    out.values = entries
    return out


# ---------------------------------------------------------------------------
# Case bookkeeping
# ---------------------------------------------------------------------------

class Recorder:
    def __init__(self):
        self.cases: List[dict] = []

    def record(self, name: str, passed: bool, certificate=None, residue=None):
        case = {"name": name, "verdict": "PASS" if passed else "FAIL"}
        if certificate is not None:
            case["certificate"] = certificate
        if not passed:
            case["residue"] = residue
        self.cases.append(case)

    def record_verdict(self, verdict: Verdict,
                       names: Optional[Sequence[str]] = None):
        """Record the verdict under its own name, or under each of names
        (one check shared by several cases, each with its own payload)."""
        for name in (verdict.name,) if names is None else names:
            self.cases.append({"name": name, **verdict.payload()})

    def law(self, name: str, trials: int, check: Callable[[random.Random, int], Optional[dict]],
            seed: int, suite: str):
        """Run a law over trials; record the first counterexample if any."""
        for trial in range(trials):
            rng = derive_rng(seed, suite, name, trial)
            witness = check(rng, trial)
            if witness is not None:
                self.record(name, False, residue={"trial": trial, **witness})
                return
        self.record(name, True, certificate=f"{trials} exact trials")

    def report(self, suite: str, fixture: str) -> dict:
        cases = sorted(self.cases, key=lambda c: c["name"])
        passed = all(c["verdict"] == "PASS" for c in cases)
        return {"suite": suite, "fixture": fixture, "passed": passed,
                "cases": cases}


# ---------------------------------------------------------------------------
# The suites
# ---------------------------------------------------------------------------

def run_algebra(fixture: Fixture, seed: int = 0, trials: int = 200, **_) -> dict:
    g = fixture.groupoid
    rec = Recorder()

    def pick_degrees(rng):
        return rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)

    def assoc(rng, trial):
        k, l, m = pick_degrees(rng)
        w1, w2, w3 = (random_form(g, d, rng) for d in (k, l, m))
        if (w1 * w2) * w3 != w1 * (w2 * w3):
            return {"degrees": [k, l, m]}
        return None

    def invol_sq(rng, trial):
        w = random_form(g, rng.randint(0, 2), rng)
        if w.involute().involute() != w:
            return {"degree": w.degree}
        return None

    def invol_anti(rng, trial):
        k, l, _ = pick_degrees(rng)
        w1, w2 = random_form(g, k, rng), random_form(g, l, rng)
        if (w1 * w2).involute() != w2.involute() * w1.involute():
            return {"degrees": [k, l]}
        return None

    def d_squared(rng, trial):
        w = random_form(g, rng.randint(0, 2), rng)
        dd = GradedSum(NCForm, g, [w.d1(), w.d2()]).d_total()
        if not dd.is_zero():
            return {"degree": w.degree}
        return None

    def leibniz(rng, trial):
        k, l, _ = pick_degrees(rng)
        m1 = rng.randint(0, 1) if g.model.kind == "chart" else 0
        if g.model.kind == "chart":
            values = {}
            for t in g.nondegenerate_tuples(k):
                if rng.random() < 0.75:
                    exps = tuple(rng.randint(0, 2) for _ in range(g.model.dim))
                    form = (1,) if m1 else ()
                    values[t] = PolyFormCoeff.monomial(g.model.dim, exps, form,
                                                       random_gauss(rng))
            w1 = NCForm(g, k, values)
        else:
            w1 = random_form(g, k, rng)
        w2 = random_form(g, l, rng)
        total = k + m1
        lhs = GradedSum(NCForm, g, [w1 * w2]).d_total()
        sign = GaussRat(-1 if total % 2 else 1)
        rhs = GradedSum(NCForm, g, [w1.d1() * w2, w1.d2() * w2,
                                    (w1 * w2.d1()).scale(sign),
                                    (w1 * w2.d2()).scale(sign)])
        if (lhs - rhs).parts:
            return {"degrees": [k, l], "form-degree": m1}
        return None

    def product_oracle(rng, trial):
        k, l, _ = pick_degrees(rng)
        w1, w2 = random_form(g, k, rng), random_form(g, l, rng)
        if w1.convolve(w2) != convolve_reference(w1, w2):
            return {"degrees": [k, l]}
        return None

    rec.law("associativity", trials, assoc, seed, "algebra")
    rec.law("involution-squared", trials, invol_sq, seed, "algebra")
    rec.law("involution-antihomomorphism", trials, invol_anti, seed, "algebra")
    rec.law("differential-squared", trials, d_squared, seed, "algebra")
    rec.law("graded-leibniz", trials, leibniz, seed, "algebra")
    rec.law("product-oracle-agreement", max(trials // 2, 100), product_oracle,
            seed, "algebra")
    return rec.report("algebra", fixture.name)


def run_bisection(fixture: Fixture, seed: int = 0, trials: int = 100, **_) -> dict:
    g = fixture.groupoid
    rec = Recorder()
    arrows = list(g.arrows)
    all_bisections = [frozenset(s) for r in (1, 2)
                      for s in itertools.combinations(arrows, r)
                      if is_bisection(g, s)[0]]

    def pick_bisection(rng):
        return Bisection(g, rng.choice(all_bisections))

    def supported_function(rng, bis):
        values = {}
        for a in bis.arrows:
            if rng.random() < 0.9:
                values[(a,)] = random_coeff(g.model, rng, with_forms=False)
        return NCForm(g, 0, values)

    def closure_ops(rng, trial):
        u, v = pick_bisection(rng), pick_bisection(rng)
        try:
            u.inverse(), u.product(v), u.pair_product(v)
        except Exception as exc:
            return {"u": sorted(u.arrows), "v": sorted(v.arrows), "error": str(exc)}
        return None

    def support_containment(rng, trial):
        u, v = pick_bisection(rng), pick_bisection(rng)
        f1, f2 = supported_function(rng, u), supported_function(rng, v)
        star_support = {k[0] for k in f1.involute().values}
        if not star_support <= u.inverse().arrows:
            return {"case": "involution support"}
        prod_support = {k[0] for k in (f1 * f2).values}
        if not prod_support <= u.product(v).arrows:
            return {"case": "product support"}
        return None

    def unique_decomposition(rng, trial):
        u, v = pick_bisection(rng), pick_bisection(rng)
        f1, f2 = supported_function(rng, u), supported_function(rng, v)
        for arrow in g.arrows:
            contributions = [
                (a, b) for a, b in g.decompositions(arrow)
                if not f1.coeff((a,)).is_zero() and not f2.coeff((b,)).is_zero()]
            if len(contributions) > 1:
                return {"arrow": arrow, "pairs": contributions}
            if contributions:
                a, b = contributions[0]
                expected = g.transport(f1.coeff((a,)), (b,)) * f2.coeff((b,))
                if (f1 * f2).coeff((arrow,)) != expected:
                    return {"arrow": arrow, "case": "value mismatch"}
        return None

    def unit_support(rng, trial):
        u = pick_bisection(rng)
        f1 = supported_function(rng, u)
        support = {k[0] for k in f1.values}
        values = {(a,): random_coeff(g.model, rng, with_forms=False)
                  for a in support}
        f2 = NCForm(g, 0, values)  # same support, inside u
        if {k[0] for k in f2.values} != support:
            return None  # a random coefficient vanished; skip
        prod = f1 * f2.involute()
        if any(not g.is_unit(k[0]) for k in prod.values):
            return {"support": sorted(support)}
        f3 = supported_function(rng, u)  # containment-only variant
        prod2 = f1 * f3.involute()
        if any(not g.is_unit(k[0]) for k in prod2.values):
            return {"case": "containment variant"}
        return None

    def unit_partner(rng, trial):
        u = pick_bisection(rng)
        f = supported_function(rng, u)
        try:
            one_u(f, u)  # self-asserting construction
        except AssertionError as exc:
            return {"error": str(exc)}
        return None

    def decomposition(rng, trial):
        n = rng.randint(0, 1)
        w = random_form(g, n, rng)
        pieces = decompose(w)
        if reassemble(pieces, g, n) != w:
            return {"degree": n}
        for item in pieces:
            if n == 1 and not item[3].contains_support(item[0]):
                return {"degree": n, "case": "support escape"}
        return None

    def germ_products(rng, trial):
        bundle = fixture.bundle(_bundle_keys(fixture)[0])
        u, v = pick_bisection(rng), pick_bisection(rng)
        F = random_section(bundle, rng)
        if germ_pullback(u.product(v), F) != germ_pullback(u, germ_pullback(v, F)):
            return {"u": sorted(u.arrows), "v": sorted(v.arrows)}
        return None

    rec.law("closure-operations", trials, closure_ops, seed, "bisection")
    rec.law("support-containment", trials, support_containment, seed, "bisection")
    rec.law("unique-decomposition", trials, unique_decomposition, seed, "bisection")
    rec.law("unit-support", trials, unit_support, seed, "bisection")
    rec.law("unit-partner", trials, unit_partner, seed, "bisection")
    rec.law("decompose-reassemble", trials, decomposition, seed, "bisection")
    rec.law("germ-product", max(trials // 2, 50), germ_products, seed, "bisection")
    return rec.report("bisection", fixture.name)


def _bundle_keys(fixture: Fixture) -> List[str]:
    keys = [k for k in ("rank1", "rank2") if k in fixture.bundles]
    return keys or [fixture.default_bundle]


def run_module(fixture: Fixture, seed: int = 0, trials: int = 100,
               u_values: Sequence[Fraction] = U_DEFAULT, **_) -> dict:
    g = fixture.groupoid
    rec = Recorder()
    keys = _bundle_keys(fixture)
    bundles = [fixture.bundle(k) for k in keys]

    def pick_bundle(rng):
        return bundles[rng.randrange(len(bundles))]

    def hilbert_star(rng, trial):
        b = pick_bundle(rng)
        u1, u2 = random_section(b, rng), random_section(b, rng)
        if inner_product(u1, u2).involute() != inner_product(u2, u1):
            return {"bundle": b.name}
        return None

    def hilbert_action(rng, trial):
        b = pick_bundle(rng)
        u1, u2 = random_section(b, rng), random_section(b, rng)
        f = random_function(g, rng)
        if f * inner_product(u1, u2) != inner_product(vector_rep(f, u1), u2):
            return {"bundle": b.name}
        return None

    def module_assoc(rng, trial):
        b = pick_bundle(rng)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        if k + l > 3:
            k, l = 1, 1
        w1, w2 = random_form(g, k, rng), random_form(g, l, rng)
        deg = rng.randint(0, 1)
        F = random_section(b, rng) if deg == 0 else random_module_form(b, 1, rng)
        lhs = vector_rep(w1 * w2, F)
        rhs = vector_rep(w1, vector_rep(w2, F))
        if lhs != rhs:
            return {"bundle": b.name, "degrees": [k, l, deg]}
        return None

    rec.law("hilbert-module-star", trials, hilbert_star, seed, "module")
    rec.law("hilbert-module-action", trials, hilbert_action, seed, "module")
    rec.law("vector-representation-multiplicative", trials, module_assoc,
            seed, "module")

    for u in u_values:
        connections = [fixture.connection(k, u) for k in keys]

        def connection_axiom(rng, trial, connections=connections):
            c = connections[rng.randrange(len(connections))]
            b = c.bundle
            f = random_function(g, rng)
            F = random_section(b, rng)
            lhs = c.apply_du(vector_rep(f, F))
            rhs = GradedSum(ModuleForm, b)
            for part in c.apply_du(F).parts.values():
                rhs.accumulate(vector_rep(f, part))
            rhs.accumulate(vector_rep(f.d1(), F))
            rhs.accumulate(vector_rep(f.d2(), F))
            if lhs != rhs:
                return {"bundle": b.name}
            return None
        rec.law(f"connection-axiom-u-{u}", trials, connection_axiom, seed, "module")
    return rec.report("module", fixture.name)


def _sampler(fixture: Fixture, bundle_key: str, slots: int = 1) -> KernelSampler:
    bundle = fixture.bundle(bundle_key)
    sampler = KernelSampler(bundle, slots)
    if sampler.dimension == 0 and slots == 1:
        sampler = KernelSampler(bundle, 0)
    return sampler


def run_kernels(fixture: Fixture, seed: int = 0, trials: int = 100, **_) -> dict:
    g = fixture.groupoid
    rec = Recorder()
    bundle_key = fixture.default_bundle
    bundle = fixture.bundle(bundle_key)
    sampler = _sampler(fixture, bundle_key)

    # forward: every nullspace basis kernel commutes with the action
    witness = None
    for idx, kernel in enumerate(sampler.kernels):
        failures = omega_linearity_failures(kernel, max_cases=1)
        if failures:
            witness = {"basis-vector": idx, "failure": str(failures[0])}
            break
    rec.record("constraint-forward-exhaustive", witness is None,
               certificate=f"nullspace dimension {sampler.dimension}",
               residue=witness)

    # reverse: violating either residual implies a commutation failure
    def reverse(rng, trial):
        raw = random_raw_kernel(bundle, rng.choice([0, 1, 2]), rng)
        r1, r2 = equivariance_residuals(raw)
        if (r1 or r2) and not omega_linearity_failures(raw, max_cases=1):
            return {"residuals": [len(r1), len(r2)]}
        return None

    rec.law("constraint-reverse", max(trials // 4, 25), reverse, seed, "kernels")

    def mul_assoc(rng, trial):
        ks = [random_raw_kernel(bundle, rng.choice([0, 1]), rng) for _ in range(3)]
        if kernel_mul(kernel_mul(ks[0], ks[1]), ks[2]) != \
                kernel_mul(ks[0], kernel_mul(ks[1], ks[2])):
            return {"slots": [k.degree for k in ks]}
        return None

    def mul_apply(rng, trial):
        k1 = random_raw_kernel(bundle, rng.choice([0, 1]), rng)
        k2 = random_raw_kernel(bundle, rng.choice([0, 1, 2]), rng)
        F = random_section(bundle, rng)
        if apply_kernel(kernel_mul(k2, k1), F) != \
                apply_kernel(k2, apply_kernel(k1, F)):
            return {"slots": [k1.degree, k2.degree]}
        return None

    def graded_contract(rng, trial):
        K = sampler.sample(rng)
        if K is None:
            return None
        kp = rng.choice([1, 2])
        w = random_form(g, kp, rng, with_forms=False)
        F = random_section(bundle, rng)
        lhs = apply_kernel(K, vector_rep(w, F))
        rhs = vector_rep(w, apply_kernel(K, F))
        if (K.degree * kp) % 2:
            rhs = -rhs
        if lhs != rhs:
            return {"slots": K.degree, "form-degree": kp}
        return None

    # flags are checked where a kernel is made and inherited by sums,
    # products and commutators; these laws re-derive the inherited flags
    def rechecked(kernels):
        for K in kernels:
            K.equivariant = K.cocycle = None
            set_flags(K)
            if not (K.equivariant and K.cocycle):
                return {"slots": K.degree, "flags": [K.equivariant, K.cocycle]}
        return None

    def flags_combination(rng, trial):
        K = sampler.sample(rng)
        return None if K is None else rechecked([K])

    def flags_product(rng, trial):
        k1, k2 = sampler.sample(rng), sampler.sample(rng)
        if k1 is None:
            return None
        return rechecked([kernel_mul(k1, k2), kernel_mul(k2, k1)])

    connection = fixture.connection(bundle_key)

    def flags_commutator(rng, trial):
        K = sampler.sample(rng)
        if K is None:
            return None
        return rechecked(commutator_with_d(connection, K).parts.values())

    flag_trials = max(trials // 4, 25)
    rec.law("flags-combination", flag_trials, flags_combination, seed, "kernels")
    rec.law("flags-product", flag_trials, flags_product, seed, "kernels")
    rec.law("flags-commutator", flag_trials, flags_commutator, seed, "kernels")
    rec.law("multiplication-associativity", max(trials // 2, 50), mul_assoc,
            seed, "kernels")
    rec.law("multiplication-application", max(trials // 2, 50), mul_apply,
            seed, "kernels")
    rec.law("graded-linearity-contract", max(trials // 2, 50), graded_contract,
            seed, "kernels")
    return rec.report("kernels", fixture.name)


def run_theorem(fixture: Fixture, seed: int = 0, trials: int = 20,
                u_values: Sequence[Fraction] = U_DEFAULT, **_) -> dict:
    rec = Recorder()
    bundle_key = fixture.default_bundle
    sampler = _sampler(fixture, bundle_key)

    if sampler.dimension == 0:
        rec.record("sampler", True,
                   certificate="empty nullspace: no nonzero linear kernels exist")
        return rec.report("theorem", fixture.name)
    rec.record("sampler", True,
               certificate=f"slots {sampler.slots}, dimension {sampler.dimension}")

    kernels = []
    for trial in range(trials):
        K = sampler.sample(derive_rng(seed, "theorem", "sample", trial))
        kernels.append(K)

    # the identity reads h and D, never D(u): one check per kernel, recorded
    # under every u
    c = fixture.connection(bundle_key)
    reducer = AbReducer(fixture.groupoid)
    for trial, K in enumerate(kernels):
        name = f"theorem-k{trial:03d}"
        verdict = verify_theorem(c, K, reducer, name=name)
        rec.record_verdict(verdict, [f"{name}-u-{u}" for u in u_values])

    # the trace property
    for trial in range(trials):
        rng = derive_rng(seed, "theorem", "trace-property", trial)
        k1, k2 = sampler.sample(rng), sampler.sample(rng)
        verdict = verify_trace_property(k1, k2, fixture.h, reducer,
                                        name=f"trace-property-{trial:03d}")
        rec.record_verdict(verdict)

    # oracle agreement for the trace transcription
    witness = None
    for trial in range(max(trials, 20)):
        rng = derive_rng(seed, "theorem", "trace-oracle", trial)
        K = sampler.sample(rng)
        if trace_e(K, fixture.h) != trace_reference(K, fixture.h):
            witness = {"trial": trial}
            break
    rec.record("trace-oracle-agreement", witness is None,
               certificate=f"{max(trials, 20)} sampled kernels", residue=witness)
    return rec.report("theorem", fixture.name)


def _by_operator(connections) -> List[Tuple[ConnectionData, List[Fraction]]]:
    """Group connections by the matrices of D(u), in first-seen order: one
    connection and every u that gives its operator (all u on scalar
    models, where D(u) has no matrices)."""
    groups: List[Tuple[ConnectionData, List[Fraction]]] = []
    for c in connections:
        for first, us in groups:
            if first.horizontal_u == c.horizontal_u:
                us.append(c.u)
                break
        else:
            groups.append((c, [c.u]))
    return groups


def _invariant_radial_form(model) -> PolyFormCoeff:
    """The chart group's average of sum_i x_i dx_i: a 1-form invariant
    along every arrow, x dx on a line."""
    dim = model.dim
    radial = PolyFormCoeff(dim, {(tuple(int(j == i) for j in range(dim)), (i + 1,)):
                                 GaussRat(1) for i in range(dim)})
    total = PolyFormCoeff(dim)
    for label in model.matrices:
        total = total + model.pullback(radial, label)
    return total.scale(GaussRat(1, 0, len(model.matrices)))


def run_chern(fixture: Fixture, seed: int = 0, trials: int = 20,
              max_degree: int = 4, u_values: Sequence[Fraction] = U_DEFAULT,
              **_) -> dict:
    g = fixture.groupoid
    rec = Recorder()
    chart = g.model.kind == "chart"
    reducer = AbReducer(g)

    for bundle_key in _bundle_keys(fixture):
        for c, shared in _by_operator(fixture.connection(bundle_key, u)
                                      for u in u_values):
            components = chern_form(c, max_degree)
            for verdict in verify_closedness(
                    components, reducer,
                    lambda d: f"{bundle_key}-closedness-degree-{d}"):
                rec.record_verdict(verdict,
                                   [f"{verdict.name}-u-{u}" for u in shared])

    # the unit-space bundle Chern character
    us = unit_space(g)
    h0 = canonical_h(us)
    vb = trivial_bundle(us, 2, grading=None)
    hor0 = None
    if chart:
        xdx = _invariant_radial_form(g.model)
        zero = PolyFormCoeff(g.model.dim)
        hor0 = {p: ((xdx, zero), (zero, -xdx)) for p in us.points}
    components = chern_vector_bundle(ConnectionData(vb, h0, horizontal=hor0),
                                     max_degree)
    for verdict in verify_closedness(components, reducer,
                                     lambda d: f"vb-closedness-tau^{d // 2}"):
        rec.record_verdict(verdict)
    comp0 = components[0].component(0)
    expected = {(g.unit[x],): g.model.from_gauss(GaussRat(2)) for x in g.objects}
    rec.record("vb-rank-density", comp0.values == expected,
               certificate="degree-0 component equals the fiber rank on units")
    return rec.report("chern", fixture.name)


SUITES: Dict[str, Callable] = {
    "algebra": run_algebra,
    "bisection": run_bisection,
    "module": run_module,
    "kernels": run_kernels,
    "theorem": run_theorem,
    "chern": run_chern,
}


def run_suite(name: str, fixture: Fixture, seed: int = 0,
              trials: Optional[int] = None, max_degree: int = 4,
              u_values: Sequence[Fraction] = U_DEFAULT) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    kwargs = {"seed": seed, "max_degree": max_degree, "u_values": u_values}
    if trials is not None:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        kwargs["trials"] = trials
    return SUITES[name](fixture, **kwargs)
