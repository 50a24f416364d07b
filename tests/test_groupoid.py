from fractions import Fraction

import pytest

from ncg.coefficients import GaussRat, GR_I, GR_ONE
from ncg.fixtures import (chart_z2_groupoid, cyclic_groupoid, pair_groupoid,
                          swap_action_groupoid, unit_groupoid)
from ncg.groupoid import (EquivariantBundle, GroupoidError, GroupoidSpec,
                          canonical_h, right_regular_space,
                          transformation_groupoid, trivial_bundle, unit_space,
                          validate_bundle, validate_groupoid, validate_space)


def test_pair_groupoid_valid():
    g = pair_groupoid()
    assert validate_groupoid(g).ok
    assert len(g.arrows) == 4 and len(g.units) == 2


def test_corrupted_composition_reports_witness():
    g = pair_groupoid()
    table = dict(g.compose_table)
    table[("1>2", "2>1")] = "1>2"  # wrong endpoint bookkeeping
    broken = GroupoidSpec(g.objects, g.arrows, g.src, g.tgt, table, g.unit,
                          inverse=g.inverse_table)
    report = validate_groupoid(broken)
    assert not report.ok
    assert any("1>2" in v for v in report.violations)


def test_z2_valid():
    assert validate_groupoid(cyclic_groupoid(2)).ok


def test_tuple_enumeration_counts():
    z2 = cyclic_groupoid(2)
    assert len(z2.composable_tuples(2)) == 4
    pair = pair_groupoid()
    assert len(pair.composable_tuples(1)) == 4
    assert [t[0] for t in pair.composable_tuples(0)] == list(pair.objects)


def test_tuple_enumeration_matches_product_filtration(scalar_fixture):
    g = scalar_fixture.groupoid
    for n in (1, 2, 3):
        brute = []
        def extend(prefix):
            if len(prefix) == n:
                brute.append(tuple(prefix))
                return
            for a in g.arrows:
                if not prefix or g.src[prefix[-1]] == g.tgt[a]:
                    extend(prefix + [a])
        extend([])
        assert sorted(brute) == sorted(g.composable_tuples(n))


def test_fiber_inversion_bijection(fixture):
    g = fixture.groupoid
    for x in g.objects:
        assert len(g.target_fiber(x)) == len(g.source_fiber(x))


def test_transformation_groupoid_swap():
    g = swap_action_groupoid()
    assert validate_groupoid(g).ok
    assert len(g.arrows) == 4 and len(g.objects) == 2


def test_transformation_groupoid_trivial_group():
    g = transformation_groupoid(["e"], {("e", "e"): "e"}, "e",
                                carrier=["a", "b"],
                                action={("a", "e"): "a", ("b", "e"): "b"})
    assert set(g.units) == set(g.arrows)


def test_transformation_groupoid_rejects_non_action():
    with pytest.raises(GroupoidError):
        transformation_groupoid(
            ["e", "g"],
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
            "e", carrier=["x", "y"],
            action={("x", "e"): "x", ("y", "e"): "y",
                    ("x", "g"): "y", ("y", "g"): "y"})


def test_chart_groupoid():
    g = chart_z2_groupoid()
    assert g.model.kind == "chart" and g.model.dim == 1
    assert g.model.matrix("g1") == ((GaussRat(-1),),)
    assert validate_groupoid(g).ok


def test_right_regular_space(scalar_fixture):
    g = scalar_fixture.groupoid
    space = right_regular_space(g)
    report = validate_space(space)
    assert report.ok  # validation includes freeness
    assert sorted(space.points) == sorted(g.arrows)


def test_right_regular_fibers_pair():
    space = right_regular_space(pair_groupoid())
    assert len(space.fiber("1")) == 2 and len(space.fiber("2")) == 2


def test_unit_space_non_free_on_groups():
    space = unit_space(cyclic_groupoid(2))
    violations = validate_space(space).violations
    assert violations
    assert all(v.startswith("action not free") for v in violations)


def test_canonical_h_values():
    z2 = right_regular_space(cyclic_groupoid(2))
    h = canonical_h(z2)
    assert all(h(p) == Fraction(1, 2) for p in z2.points)
    units = right_regular_space(unit_groupoid())
    h2 = canonical_h(units)
    assert all(h2(p) == 1 for p in units.points)
    pair = right_regular_space(pair_groupoid())
    h3 = canonical_h(pair)
    assert all(h3(p) == Fraction(1, 2) for p in pair.points)


def test_canonical_h_identity_everywhere(fixture):
    h = fixture.h
    assert h.check() is None


def test_canonical_h_is_uniform(fixture):
    """h(q) = 1 / |target fiber at moment(q)| meets the partition identity
    on every fixture's space and unit space, with no solve needed."""
    g = fixture.groupoid
    for space in (fixture.space, unit_space(g)):
        h = canonical_h(space)
        assert h.values == {q: Fraction(1, len(g.target_fiber(space.moment[q])))
                            for q in space.points}


def test_bundle_validation_trivial():
    space = right_regular_space(cyclic_groupoid(2))
    assert validate_bundle(trivial_bundle(space, 1)).ok
    assert validate_bundle(trivial_bundle(space, 2, grading=(1, -1))).ok


def test_bundle_cocycle_failure_with_i_action():
    space = right_regular_space(cyclic_groupoid(2))
    action = {}
    for p in space.points:
        for a in space.groupoid.target_fiber(space.moment[p]):
            value = GR_ONE if space.groupoid.is_unit(a) else GR_I
            action[(p, a)] = ((value,),)
    bundle = EquivariantBundle(space, 1, action)
    report = validate_bundle(bundle)
    assert any("cocycle" in v for v in report.violations)


def test_bundle_metric_invariance_violation():
    space = right_regular_space(cyclic_groupoid(2))
    bundle = trivial_bundle(space, 1)
    metric = dict(bundle.metric)
    metric["e"] = ((GaussRat(2),),)
    scaled = EquivariantBundle(space, 1, bundle.action, metric=metric)
    report = validate_bundle(scaled)
    assert any("invariant" in v for v in report.violations)


def test_fixture_bundles_all_valid(fixture):
    for bundle in fixture.bundles.values():
        assert validate_bundle(bundle).ok, bundle.name


def test_measure_invariance_enforced():
    g = cyclic_groupoid(2)
    space = right_regular_space(g)
    from ncg.groupoid import FiberedSpace
    bad = FiberedSpace(g, space.points, space.moment, space.action,
                       measure={"e": Fraction(1), "g1": Fraction(2)})
    report = validate_space(bad)
    assert any("measure" in v for v in report.violations)
