"""Acceptance gate: every criterion at its stated trial counts, tolerances
(exact equality throughout) and runtime budget, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction

from ncg.chern import trace_e
from ncg.coefficients import GaussRat
from ncg.fixtures import bundled_fixtures, load_fixture
from ncg.kernels import KernelSampler, kernel_mul, set_flags
from ncg.reference import convolve_reference, trace_reference
from ncg.suites import (derive_rng, random_form, run_algebra, run_bisection,
                        run_chern, run_kernels, run_module, run_theorem)

ALL = bundled_fixtures()
SEED = 0


def _report(name, elapsed, budget, detail=""):
    line = f"{name}: PASS in {elapsed:.1f}s (budget {budget}s)"
    if detail:
        line += f" - {detail}"
    print(line)


def _run(suite_fn, budget, trials, name, **kwargs):
    start = time.time()
    failures = []
    for fixture_name in ALL:
        report = suite_fn(load_fixture(fixture_name), seed=SEED,
                          trials=trials, **kwargs)
        if not report["passed"]:
            failures.append((fixture_name,
                             [c for c in report["cases"]
                              if c["verdict"] != "PASS"]))
    elapsed = time.time() - start
    if failures:
        print(f"{name}: FAIL - {failures[:1]}")
    assert not failures, failures[:1]
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.1f}s"
    _report(name, elapsed, budget)


def test_criterion_1_algebra_suite():
    """Associativity, involution laws, squared differential, graded
    Leibniz: 200 exact trials per law per fixture, under 60 s."""
    _run(run_algebra, 60, 200, "criterion-1-algebra")


def test_criterion_2_bisection_suite():
    """Bisection closure, support containment, unique decomposition, unit
    support, unit partner, decomposition round trip: 100 trials, under 30 s."""
    _run(run_bisection, 30, 100, "criterion-2-bisection")


def test_criterion_3_module_suite():
    """Pre-Hilbert identities, multiplicativity of the representation
    through degree 2, the connection axiom at u in {0, 1/2, 1}: 100 trials
    each, under 60 s."""
    _run(run_module, 60, 100, "criterion-3-module")


def test_criterion_4_kernel_suite():
    """Constraint/commutation equivalence both directions (exhaustive on
    the shipped fixtures), multiplication laws: under 120 s."""
    _run(run_kernels, 120, 100, "criterion-4-kernels")


def test_criterion_5_commutator_trace_theorem():
    """On every fixture, 20 sampled linear kernels, u in {0, 1/2, 1}: the
    differential of the trace minus the trace of the superconnection
    commutator reduces to zero with an explicit certificate; under 300 s."""
    start = time.time()
    for fixture_name in ALL:
        report = run_theorem(load_fixture(fixture_name), seed=SEED, trials=20)
        assert report["passed"], (fixture_name,
                                  [c for c in report["cases"]
                                   if c["verdict"] != "PASS"][:1])
        theorem_cases = [c for c in report["cases"]
                        if c["name"].startswith("theorem-")]
        sampler_note = next(c for c in report["cases"] if c["name"] == "sampler")
        if "empty nullspace" in str(sampler_note.get("certificate", "")):
            continue  # documented empty-sampler outcome (no non-unit arrows)
        assert len(theorem_cases) >= 60  # 20 kernels x 3 values of u
        assert all("certificate" in c for c in theorem_cases)
    elapsed = time.time() - start
    assert elapsed < 300
    _report("criterion-5-theorem", elapsed, 300)


def test_criterion_6_chern_closedness():
    """Closedness of every Chern component: degrees up to 4 on every
    fixture, u in {0, 1/2, 1}; under 300 s."""
    start = time.time()
    for fixture_name in ALL:
        report = run_chern(load_fixture(fixture_name), seed=SEED,
                           max_degree=4)
        assert report["passed"], (fixture_name,
                                  [c for c in report["cases"]
                                   if c["verdict"] != "PASS"][:1])
        closed = [c for c in report["cases"] if "closedness" in c["name"]]
        assert len(closed) >= 18  # bundles x u x degrees
    elapsed = time.time() - start
    assert elapsed < 300
    _report("criterion-6-closedness", elapsed, 300)


def test_criterion_7_trace_property():
    """At least 50 sampled kernel pairs satisfy the graded trace property
    in the quotient; on the pair groupoid the slot-free case must match
    matrix-trace cyclicity exactly; under 60 s."""
    start = time.time()
    total_pairs = 0
    for fixture_name in ALL:
        report = run_theorem(load_fixture(fixture_name), seed=SEED, trials=10)
        cases = [c for c in report["cases"]
                 if c["name"].startswith("trace-property")]
        assert all(c["verdict"] == "PASS" for c in cases), fixture_name
        total_pairs += len(cases)
    assert total_pairs >= 50, total_pairs

    fx = load_fixture("pair2")
    bundle = fx.bundles["rank1"]
    space = bundle.space
    sampler = KernelSampler(bundle, 0)
    rng = derive_rng(SEED, "acceptance", "matrix-cyclicity")
    for _ in range(10):
        k1, k2 = sampler.sample(rng), sampler.sample(rng)
        t12 = trace_e(set_flags(kernel_mul(k1, k2)), fx.h)
        t21 = trace_e(set_flags(kernel_mul(k2, k1)), fx.h)
        assert t12 == t21  # cyclicity holds exactly, before any reduction
        for x in fx.groupoid.objects:
            pts = sorted(space.fiber(x))
            m1 = [[k1.matrix((p, (), q))[0][0] * GaussRat(space.measure[q])
                   for q in pts] for p in pts]
            m2 = [[k2.matrix((p, (), q))[0][0] * GaussRat(space.measure[q])
                   for q in pts] for p in pts]
            tr12 = sum((m1[i][t] * m2[t][i]
                        for i in range(len(pts)) for t in range(len(pts))),
                       GaussRat(0))
            weighted = sum((fx.h(p) * space.measure[p] for p in pts),
                           Fraction(0))
            # the localized trace of k1 * k2 at the unit of x equals the
            # h-weighted matrix trace (uniform h: h * tr of the product)
            got = t12.coeff((fx.groupoid.unit[x],))
            assert got == GaussRat(Fraction(1, 2)) * tr12
    elapsed = time.time() - start
    assert elapsed < 60
    _report("criterion-7-trace-property", elapsed, 60,
            f"{total_pairs} sampled pairs")


def test_criterion_8_oracle_redundancy():
    """The entry-driven product and trace agree with their literal
    transcriptions on at least 100 random inputs each; under 60 s."""
    start = time.time()
    product_checks = 0
    for fixture_name in ALL:
        g = load_fixture(fixture_name).groupoid
        for trial in range(20):
            rng = derive_rng(SEED, "acceptance", "product-oracle",
                             fixture_name, trial)
            k, l = rng.randint(0, 2), rng.randint(0, 2)
            w1, w2 = random_form(g, k, rng), random_form(g, l, rng)
            assert w1.convolve(w2) == convolve_reference(w1, w2)
            product_checks += 1
    assert product_checks >= 100

    trace_checks = 0
    for fixture_name in ALL:
        fx = load_fixture(fixture_name)
        bundle = fx.bundle("rank2")
        sampler = KernelSampler(bundle, 1)
        if sampler.dimension == 0:
            sampler = KernelSampler(bundle, 0)
        for trial in range(25):
            rng = derive_rng(SEED, "acceptance", "trace-oracle",
                             fixture_name, trial)
            K = sampler.sample(rng)
            if K is None:
                break
            assert trace_e(K, fx.h) == trace_reference(K, fx.h)
            trace_checks += 1
    assert trace_checks >= 100
    elapsed = time.time() - start
    assert elapsed < 60
    _report("criterion-8-oracles", elapsed, 60,
            f"{product_checks} products, {trace_checks} traces")
