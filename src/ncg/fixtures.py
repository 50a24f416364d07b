"""Bundled example fixtures: small groupoids with spaces, bundles, connections.

Shipped fixtures (each carries its right-regular space, the canonical
partition function, a trivial rank-1 bundle and a graded rank-2 bundle):

* ``unit2``   - the unit groupoid on two objects,
* ``z2``      - the one-object group Z/2,
* ``z3``      - the one-object group Z/3 (with an extra non-diagonal
  rank-2 bundle whose invariant metric is obtained by group averaging),
* ``pair2``   - the pair groupoid on two objects,
* ``z2swap``  - the action groupoid of Z/2 swapping two points,
* ``z2chart`` - the chart groupoid of Z/2 acting on R^1 by x -> -x,
  with an invariant polynomial connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .coefficients import (CoefficientModel, GaussRat, GR_ONE, GR_ZERO,
                           PolyFormCoeff, identity_matrix, mat_add, mat_mul,
                           mat_scale, zero_matrix)
from .groupoid import (EquivariantBundle, FiberedSpace, GroupoidSpec,
                       PartitionFunction, canonical_h, right_regular_space,
                       transformation_groupoid, trivial_bundle,
                       validate_bundle, validate_groupoid, validate_space)
from .modules import ConnectionData


@dataclass
class Fixture:
    """A groupoid with its standard space, measures, bundles and connection data."""

    name: str
    groupoid: GroupoidSpec
    space: FiberedSpace
    h: PartitionFunction
    bundles: Dict[str, EquivariantBundle]
    horizontal: Optional[Dict[str, tuple]] = None  # per-point connection matrices
    default_bundle: str = "rank2"

    def bundle(self, key: Optional[str] = None) -> EquivariantBundle:
        return self.bundles[key or self.default_bundle]

    def connection(self, key: Optional[str] = None,
                   u: Fraction = Fraction(1)) -> ConnectionData:
        """The bundle's connection: h, its horizontal matrices on chart
        fixtures, at the interpolation parameter u."""
        key = key or self.default_bundle
        hor = self.horizontal[key] if self.horizontal else None
        return ConnectionData(self.bundle(key), self.h, horizontal=hor, u=u)


def _cyclic_group(n: int):
    elements = [f"g{k}" if k else "e" for k in range(n)]
    mult = {(elements[a], elements[b]): elements[(a + b) % n]
            for a in range(n) for b in range(n)}
    return elements, mult, "e"


def unit_groupoid(objects=("x", "y"), name="unit2") -> GroupoidSpec:
    arrows = [f"1{o}" for o in objects]
    src = {f"1{o}": o for o in objects}
    tgt = dict(src)
    compose = {(f"1{o}", f"1{o}"): f"1{o}" for o in objects}
    return GroupoidSpec(objects, arrows, src, tgt, compose,
                        {o: f"1{o}" for o in objects}, name=name)


def cyclic_groupoid(n: int, name: Optional[str] = None) -> GroupoidSpec:
    elements, mult, unit = _cyclic_group(n)
    src = {g: "*" for g in elements}
    compose = {(a, b): mult[(a, b)] for a in elements for b in elements}
    return GroupoidSpec(["*"], elements, src, dict(src), compose, {"*": unit},
                        name=name or f"z{n}")


def pair_groupoid(objects=("1", "2"), name="pair2") -> GroupoidSpec:
    objects = list(objects)
    arrows = [f"{i}>{j}" for i in objects for j in objects]
    src = {f"{i}>{j}": j for i in objects for j in objects}
    tgt = {f"{i}>{j}": i for i in objects for j in objects}
    compose = {}
    for i in objects:
        for j in objects:
            for k in objects:
                compose[(f"{i}>{j}", f"{j}>{k}")] = f"{i}>{k}"
    units = {o: f"{o}>{o}" for o in objects}
    return GroupoidSpec(objects, arrows, src, tgt, compose, units, name=name)


def swap_action_groupoid(name="z2swap") -> GroupoidSpec:
    elements, mult, unit = _cyclic_group(2)
    carrier = ["x", "y"]
    action = {("x", "e"): "x", ("y", "e"): "y", ("x", "g1"): "y", ("y", "g1"): "x"}
    return transformation_groupoid(elements, mult, unit, carrier=carrier,
                                   action=action, name=name)


def chart_z2_groupoid(name="z2chart") -> GroupoidSpec:
    elements, mult, unit = _cyclic_group(2)
    model = CoefficientModel("chart", dim=1, matrices={
        "e": ((GR_ONE,),),
        "g1": ((GaussRat(-1),),),
    })
    return transformation_groupoid(elements, mult, unit, chart=model, name=name)


def _graded_rank2_bundle(space: FiberedSpace) -> EquivariantBundle:
    """Rank-2 bundle graded (+, -), twisting the odd line by -1 along
    non-unit arrows when that sign pattern is a character; otherwise the
    action is trivial and only the grading is nontrivial (z3 has no
    rational sign character)."""
    g = space.groupoid
    character = all(
        (-1 if not g.is_unit(a) else 1) * (-1 if not g.is_unit(b) else 1)
        == (-1 if not g.is_unit(g.mul(a, b)) else 1)
        for a in g.arrows for b in g.target_fiber(g.src[a]))
    action = {}
    for p in space.points:
        for a in g.target_fiber(space.moment[p]):
            sign = GR_ONE if (g.is_unit(a) or not character) else GaussRat(-1)
            action[(p, a)] = ((GR_ONE, GR_ZERO), (GR_ZERO, sign))
    bundle = EquivariantBundle(space, 2, action, grading=(1, -1), name="rank2-graded")
    report = validate_bundle(bundle)
    if not report.ok:
        raise AssertionError(str(report))
    return bundle


def _graded_rank2_trivial(space: FiberedSpace) -> EquivariantBundle:
    return trivial_bundle(space, 2, grading=(1, -1))


def _z3_rotation_bundle(space: FiberedSpace) -> EquivariantBundle:
    """Rank-2 bundle on z3 whose generator acts by the rational matrix of
    order three; the invariant metric is the exact group average."""
    g = space.groupoid
    u = ((GR_ZERO, GaussRat(-1)), (GR_ONE, GaussRat(-1)))
    powers = {"e": identity_matrix(2), "g1": u, "g2": mat_mul(u, u)}
    action = {}
    for p in space.points:
        for a in g.target_fiber(space.moment[p]):
            action[(p, a)] = powers[a if a in powers else a.split("|")[-1]]
    metric_sum = zero_matrix(2)
    for mat in powers.values():
        mstar = tuple(tuple(v.conj() for v in col) for col in zip(*mat))
        metric_sum = mat_add(metric_sum, mat_mul(mstar, mat))
    metric = mat_scale(metric_sum, GaussRat(1, 0, 3))
    bundle = EquivariantBundle(space, 2, action,
                               metric={p: metric for p in space.points},
                               name="rank2-rotation")
    report = validate_bundle(bundle)
    if not report.ok:
        raise AssertionError(str(report))
    return bundle


def _chart_horizontal(space: FiberedSpace, bundle: EquivariantBundle):
    """Invariant connection matrices for the chart fixture.

    The odd polynomial 1-form x dx is invariant under x -> -x, so the
    diagonal matrix diag(x dx, -x dx) is invariant along every arrow for
    the sign-twisted rank-2 action (and its upper entry alone for rank 1).
    """
    x_dx = PolyFormCoeff.monomial(1, (1,), (1,))
    zero = PolyFormCoeff(1)
    if bundle.rank == 1:
        mat = ((x_dx,),)
    else:
        mat = ((x_dx, zero), (zero, -x_dx))
    return {p: mat for p in space.points}


def _build(name: str, groupoid: GroupoidSpec) -> Fixture:
    report = validate_groupoid(groupoid)
    if not report.ok:
        raise AssertionError(str(report))
    space = right_regular_space(groupoid)
    sreport = validate_space(space)
    if not sreport.ok:
        raise AssertionError(str(sreport))
    h = canonical_h(space)
    bundles = {
        "rank1": trivial_bundle(space, 1),
        "rank2": _graded_rank2_bundle(space),
        "rank2-trivial": _graded_rank2_trivial(space),
    }
    if name == "z3":
        bundles["rank2-rotation"] = _z3_rotation_bundle(space)
    horizontal = None
    if groupoid.model.kind == "chart":
        horizontal = {key: _chart_horizontal(space, bundle)
                      for key, bundle in bundles.items()}
    return Fixture(name, groupoid, space, h, bundles, horizontal)


_BUILDERS = {
    "unit2": lambda: _build("unit2", unit_groupoid()),
    "z2": lambda: _build("z2", cyclic_groupoid(2)),
    "z3": lambda: _build("z3", cyclic_groupoid(3)),
    "pair2": lambda: _build("pair2", pair_groupoid()),
    "z2swap": lambda: _build("z2swap", swap_action_groupoid()),
    "z2chart": lambda: _build("z2chart", chart_z2_groupoid()),
}

_CACHE: Dict[str, Fixture] = {}


def bundled_fixtures():
    """Names of the fixtures shipped with the package."""
    return sorted(_BUILDERS)


def load_fixture(name: str) -> Fixture:
    if name not in _BUILDERS:
        raise KeyError(f"unknown bundled fixture {name!r}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
