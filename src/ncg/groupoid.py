"""Finite etale groupoids, tuple spaces, fibered right actions, bundles.

A groupoid is stored combinatorially: finite object and arrow sets, source
and target maps, a complete composition table, units and inverses.  A chart
variant (a transformation groupoid of a finite group acting on R^d by
rational matrices) keeps the same combinatorial skeleton, one object per
chart, and carries the matrix action in its coefficient model; functions on
it take polynomial-form values instead of scalars.

Composition convention: g1 * g2 is defined exactly when src(g1) == tgt(g2),
so a composable word reads left to right, (g1, g2, ..., gn) with
tgt(g_{i+1}) == src(g_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .coefficients import (CoefficientModel, GaussRat, GR_ZERO,
                           SCALAR_MODEL, identity_matrix, mat_mul, mat_vec,
                           vec_transport)
from .linalg import is_positive_definite_hermitian


class GroupoidError(ValueError):
    """Raised on malformed groupoid, space, or bundle data."""


@dataclass
class ValidationReport:
    """Outcome of a structural validation pass."""

    subject: str
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)

    def __str__(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = "\n  ".join(self.violations)
        return f"{self.subject}: {len(self.violations)} violation(s)\n  {lines}"


class GroupoidSpec:
    """A finite groupoid with explicit composition, units and inverses."""

    def __init__(self, objects: Sequence[str], arrows: Sequence[str],
                 src: Mapping[str, str], tgt: Mapping[str, str],
                 compose: Mapping[Tuple[str, str], str],
                 unit: Mapping[str, str],
                 inverse: Optional[Mapping[str, str]] = None,
                 model: CoefficientModel = SCALAR_MODEL,
                 name: str = "groupoid"):
        self.name = name
        self.objects = tuple(sorted(objects))
        self.arrows = tuple(sorted(arrows))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.compose_table = dict(compose)
        self.unit = dict(unit)
        self.model = model
        self.units = frozenset(self.unit.values())
        if inverse is None:
            inverse = self._derive_inverse()
        self.inverse_table = dict(inverse)
        self._target_fibers: Dict[str, Tuple[str, ...]] = {}
        self._source_fibers: Dict[str, Tuple[str, ...]] = {}
        for x in self.objects:
            self._target_fibers[x] = tuple(a for a in self.arrows if self.tgt[a] == x)
            self._source_fibers[x] = tuple(a for a in self.arrows if self.src[a] == x)

    # -- basic structure -----------------------------------------------------

    def _derive_inverse(self) -> Dict[str, str]:
        inv = {}
        for a in self.arrows:
            ua, ub = self.unit.get(self.tgt[a]), self.unit.get(self.src[a])
            for b in self.arrows:
                if self.compose_table.get((a, b)) == ua and \
                   self.compose_table.get((b, a)) == ub:
                    inv[a] = b
                    break
            else:
                raise GroupoidError(f"arrow {a!r} has no inverse in the table")
        return inv

    def is_unit(self, arrow: str) -> bool:
        return arrow in self.units

    def mul(self, a: str, b: str) -> Optional[str]:
        """Composite ab when src(a) == tgt(b), else None."""
        return self.compose_table.get((a, b))

    def inv(self, a: str) -> str:
        return self.inverse_table[a]

    def target_fiber(self, x: str) -> Tuple[str, ...]:
        return self._target_fibers[x]

    def source_fiber(self, x: str) -> Tuple[str, ...]:
        return self._source_fibers[x]

    def nonunit_arrows(self) -> Tuple[str, ...]:
        return tuple(a for a in self.arrows if a not in self.units)

    def compose_word(self, word: Sequence[str]) -> Optional[str]:
        """Composite of a composable word, unit of the common object if empty."""
        if not word:
            return None
        acc = word[0]
        for a in word[1:]:
            acc = self.mul(acc, a)
            if acc is None:
                return None
        return acc

    def decompositions(self, arrow: str) -> List[Tuple[str, str]]:
        """All ordered pairs (a, b) with ab == arrow."""
        out = []
        for a in self.target_fiber(self.tgt[arrow]):
            b = self.mul(self.inv(a), arrow)
            if b is not None and self.mul(a, b) == arrow:
                out.append((a, b))
        return out

    # -- chart transport -------------------------------------------------------

    def transport(self, coeff, word: Sequence[str]):
        """Re-express a coefficient attached at a point x in the chart at
        x . (composite of word); identity in the scalar model."""
        if self.model.kind == "scalar" or not word:
            return coeff
        arrow = self.compose_word(word)
        if arrow is None:
            raise GroupoidError(f"non-composable transport word {word!r}")
        return self.model.pullback(coeff, arrow)

    # -- tuple spaces ------------------------------------------------------------

    def composable_tuples(self, n: int) -> List[Tuple[str, ...]]:
        """All composable n-tuples; n = 0 yields the objects."""
        if n < 0:
            raise GroupoidError("tuple degree must be nonnegative")
        if n == 0:
            return [(x,) for x in self.objects]
        chains: List[Tuple[str, ...]] = [(a,) for a in self.arrows]
        for _ in range(n - 1):
            chains = [c + (b,) for c in chains for b in self._target_fibers[self.src[c[-1]]]]
        return chains

    def nondegenerate_tuples(self, n: int) -> List[Tuple[str, ...]]:
        """Composable (n+1)-tuples whose slots 1..n avoid units."""
        return [t for t in self.composable_tuples(n + 1)
                if all(not self.is_unit(a) for a in t[1:])]

    def __repr__(self):
        return (f"GroupoidSpec({self.name}: {len(self.objects)} objects, "
                f"{len(self.arrows)} arrows, {self.model!r})")


def validate_groupoid(g: GroupoidSpec) -> ValidationReport:
    report = ValidationReport(f"groupoid {g.name}")
    for a in g.arrows:
        if g.src.get(a) not in g.objects or g.tgt.get(a) not in g.objects:
            report.add(f"arrow {a!r} has src/tgt outside the object set")
    for x in g.objects:
        u = g.unit.get(x)
        if u is None or u not in g.arrows:
            report.add(f"object {x!r} has no unit arrow")
            continue
        if g.src[u] != x or g.tgt[u] != x:
            report.add(f"unit of {x!r} is not a loop at {x!r}")
    for (a, b), c in g.compose_table.items():
        if g.src[a] != g.tgt[b]:
            report.add(f"composite defined for non-composable pair ({a!r}, {b!r})")
            continue
        if g.tgt[c] != g.tgt[a] or g.src[c] != g.src[b]:
            report.add(f"composite {a!r}{b!r} = {c!r} breaks src/tgt bookkeeping")
    for a in g.arrows:
        for b in g.arrows:
            if g.src[a] == g.tgt[b] and (a, b) not in g.compose_table:
                report.add(f"missing composite for composable pair ({a!r}, {b!r})")
    # associativity wherever defined
    for a in g.arrows:
        for b in g.target_fiber(g.src[a]):
            ab = g.mul(a, b)
            for c in g.target_fiber(g.src[b]):
                bc = g.mul(b, c)
                if ab is None or bc is None:
                    continue
                if g.mul(ab, c) != g.mul(a, bc):
                    report.add(f"associativity fails on ({a!r}, {b!r}, {c!r})")
    for a in g.arrows:
        if g.mul(g.unit[g.tgt[a]], a) != a or g.mul(a, g.unit[g.src[a]]) != a:
            report.add(f"unit laws fail at arrow {a!r}")
        inv = g.inverse_table.get(a)
        if inv is None:
            report.add(f"arrow {a!r} has no inverse")
            continue
        if g.mul(a, inv) != g.unit[g.tgt[a]] or g.mul(inv, a) != g.unit[g.src[a]]:
            report.add(f"inverse laws fail at arrow {a!r}")
    if g.model.kind == "chart":
        for msg in g.model.validate_representation(g.mul, next(iter(g.units))):
            report.add(msg)
        if len(g.objects) != 1:
            report.add("chart groupoids are supported with a single chart object only")
    return report


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def transformation_groupoid(elements: Sequence[str],
                            multiply: Mapping[Tuple[str, str], str],
                            unit: str,
                            carrier: Optional[Sequence[str]] = None,
                            action: Optional[Mapping[Tuple[str, str], str]] = None,
                            chart: Optional[CoefficientModel] = None,
                            name: str = "transformation") -> GroupoidSpec:
    """Groupoid of a right group action.

    With a finite carrier, arrows are pairs (x, g) with target x and source
    x . g.  With a chart model, the carrier is R^d, the skeleton is the
    group itself (one object), and the matrices live in the model.
    """
    elements = list(elements)
    for g in elements:
        for h in elements:
            if (g, h) not in multiply:
                raise GroupoidError(f"incomplete group table at ({g!r}, {h!r})")
    if chart is not None:
        if carrier is not None:
            raise GroupoidError("chart groupoids take no finite carrier")
        obj = "*"
        arrows = list(elements)
        src = {g: obj for g in elements}
        tgt = {g: obj for g in elements}
        compose = {(a, b): multiply[(a, b)] for a in elements for b in elements}
        spec = GroupoidSpec([obj], arrows, src, tgt, compose, {obj: unit},
                            model=chart, name=name)
    else:
        if carrier is None:
            raise GroupoidError("need a carrier set or a chart model")
        carrier = list(carrier)
        for x in carrier:
            for g in elements:
                if (x, g) not in action:
                    raise GroupoidError(f"incomplete action at ({x!r}, {g!r})")
        for x in carrier:
            if action[(x, unit)] != x:
                raise GroupoidError(f"unit does not fix carrier point {x!r}")
            for g in elements:
                for h in elements:
                    if action[(action[(x, g)], h)] != action[(x, multiply[(g, h)])]:
                        raise GroupoidError(
                            f"action not compatible with the group law at ({x!r}, {g!r}, {h!r})")
        arrows = [f"{x}|{g}" for x in carrier for g in elements]
        src = {f"{x}|{g}": action[(x, g)] for x in carrier for g in elements}
        tgt = {f"{x}|{g}": x for x in carrier for g in elements}
        compose = {}
        for x in carrier:
            for g in elements:
                for h in elements:
                    # (x, g) composed with (x.g, h) = (x, gh)
                    compose[(f"{x}|{g}", f"{action[(x, g)]}|{h}")] = f"{x}|{multiply[(g, h)]}"
        units = {x: f"{x}|{unit}" for x in carrier}
        spec = GroupoidSpec(list(carrier), arrows, src, tgt, compose, units, name=name)
    report = validate_groupoid(spec)
    if not report.ok:
        raise GroupoidError(str(report))
    return spec


# ---------------------------------------------------------------------------
# Fibered right G-spaces
# ---------------------------------------------------------------------------

class FiberedSpace:
    """A finite right G-space P with moment map and invariant fiber measure."""

    def __init__(self, groupoid: GroupoidSpec, points: Sequence[str],
                 moment: Mapping[str, str],
                 action: Mapping[Tuple[str, str], str],
                 measure: Optional[Mapping[str, Fraction]] = None,
                 name: str = "space"):
        self.groupoid = groupoid
        self.name = name
        self.points = tuple(sorted(points))
        self.moment = dict(moment)
        self.action = dict(action)
        if measure is None:
            measure = {p: Fraction(1) for p in self.points}
        self.measure = {p: Fraction(measure[p]) for p in self.points}
        self._fibers: Dict[str, Tuple[str, ...]] = {}
        for x in groupoid.objects:
            self._fibers[x] = tuple(p for p in self.points if self.moment[p] == x)

    def fiber(self, x: str) -> Tuple[str, ...]:
        return self._fibers[x]

    def act(self, p: str, arrow: str) -> str:
        """p . arrow, defined when moment(p) == tgt(arrow)."""
        try:
            return self.action[(p, arrow)]
        except KeyError:
            raise GroupoidError(f"action undefined on ({p!r}, {arrow!r})")

    def act_word(self, p: str, word: Sequence[str]) -> str:
        for a in word:
            p = self.act(p, a)
        return p

    def __repr__(self):
        return f"FiberedSpace({self.name}: {len(self.points)} points over {self.groupoid.name})"


def validate_space(space: FiberedSpace) -> ValidationReport:
    g = space.groupoid
    report = ValidationReport(f"space {space.name}")
    for p in space.points:
        if space.moment.get(p) not in g.objects:
            report.add(f"point {p!r} has no valid moment object")
    for (p, a), q in space.action.items():
        if space.moment[p] != g.tgt[a]:
            report.add(f"action defined on non-admissible pair ({p!r}, {a!r})")
            continue
        if space.moment[q] != g.src[a]:
            report.add(f"moment of {p!r}.{a!r} is not src({a!r})")
        if space.measure[q] != space.measure[p]:
            report.add(f"measure not invariant along ({p!r}, {a!r})")
    for p in space.points:
        x = space.moment[p]
        if space.action.get((p, g.unit[x])) != p:
            report.add(f"unit does not fix {p!r}")
        for a in g.target_fiber(x):
            if (p, a) not in space.action:
                report.add(f"action missing on admissible pair ({p!r}, {a!r})")
                continue
            for b in g.target_fiber(g.src[a]):
                ab = g.mul(a, b)
                if space.act(space.act(p, a), b) != space.act(p, ab):
                    report.add(f"action not multiplicative on ({p!r}, {a!r}, {b!r})")
        for m in (space.measure[p],):
            if m <= 0:
                report.add(f"measure at {p!r} is not positive")
    for (p, a), q in space.action.items():
        if p == q and not g.is_unit(a):
            report.add(f"action not free: {p!r}.{a!r} == {p!r}")
    return report


def right_regular_space(groupoid: GroupoidSpec) -> FiberedSpace:
    """P = G acting on itself by composition, moment = src, counting measure."""
    action = {}
    for p in groupoid.arrows:
        for a in groupoid.target_fiber(groupoid.src[p]):
            action[(p, a)] = groupoid.mul(p, a)
    return FiberedSpace(groupoid, groupoid.arrows,
                        {p: groupoid.src[p] for p in groupoid.arrows},
                        action, name=f"{groupoid.name}-right-regular")


def unit_space(groupoid: GroupoidSpec) -> FiberedSpace:
    """P = the object set with x . a = src(a); the base-space section picture.

    Not free when the groupoid has non-unit loops, so it is produced here
    for the connection/trace calculus only, never loaded as user data.
    """
    action = {}
    for x in groupoid.objects:
        for a in groupoid.target_fiber(x):
            action[(x, a)] = groupoid.src[a]
    return FiberedSpace(groupoid, groupoid.objects,
                        {x: x for x in groupoid.objects},
                        action, name=f"{groupoid.name}-units")


# ---------------------------------------------------------------------------
# Partition functions h with sum_{arrows into moment(p)} h(p . arrow) == 1
# ---------------------------------------------------------------------------

class PartitionFunction:
    """Nonnegative rational weights on P whose orbit-directional sums are 1."""

    def __init__(self, space: FiberedSpace, values: Mapping[str, Fraction]):
        self.space = space
        self.values = {p: Fraction(values[p]) for p in space.points}
        bad = self.check()
        if bad:
            raise GroupoidError(f"partition identity fails at {bad!r}")

    def __call__(self, p: str) -> Fraction:
        return self.values[p]

    def check(self) -> Optional[str]:
        g = self.space.groupoid
        for p in self.space.points:
            total = Fraction(0)
            for a in g.target_fiber(self.space.moment[p]):
                total += self.values[self.space.act(p, a)]
            if total != 1:
                return p
        return None


def canonical_h(space: FiberedSpace) -> PartitionFunction:
    """h(q) = 1 / |target fiber at moment(q)|.

    This always meets the identity: the moment of p.a is src a, and
    b -> a.b maps the target fiber at src a onto the one at tgt a, so each
    of the N terms of the sum at p is 1/N.
    """
    g = space.groupoid
    return PartitionFunction(space, {
        q: Fraction(1, len(g.target_fiber(space.moment[q]))) for q in space.points})


# ---------------------------------------------------------------------------
# Equivariant bundles
# ---------------------------------------------------------------------------

class EquivariantBundle:
    """A bundle over P with right G-action by invertible matrices, an
    invariant Hermitian metric, and a Z2-grading of the fiber basis."""

    def __init__(self, space: FiberedSpace, rank: int,
                 action: Mapping[Tuple[str, str], Sequence[Sequence[GaussRat]]],
                 metric: Optional[Mapping[str, Sequence[Sequence[GaussRat]]]] = None,
                 grading: Optional[Sequence[int]] = None,
                 name: str = "bundle"):
        self.space = space
        self.groupoid = space.groupoid
        self.rank = rank
        self.name = name
        self.action = {key: tuple(tuple(v for v in row) for row in mat)
                       for key, mat in action.items()}
        if metric is None:
            metric = {p: identity_matrix(rank) for p in space.points}
        self.metric = {p: tuple(tuple(v for v in row) for row in metric[p])
                       for p in space.points}
        self.grading = tuple(grading) if grading is not None else (1,) * rank

    def act_matrix(self, p: str, arrow: str):
        """Matrix of e -> e.arrow from the fiber at p to the fiber at p.arrow."""
        try:
            return self.action[(p, arrow)]
        except KeyError:
            raise GroupoidError(f"bundle action undefined on ({p!r}, {arrow!r})")

    def move(self, p: str, arrow: str, vec):
        """Carry a fiber vector at p to p.arrow: re-express it in the chart
        there, then apply the action matrix.  Moving back is the same rule at
        (p.arrow, arrow^-1), the inverse by the unit and cocycle laws."""
        return mat_vec(self.act_matrix(p, arrow), vec_transport(self.groupoid, vec, (arrow,)))

    def __repr__(self):
        return f"EquivariantBundle({self.name}: rank {self.rank} over {self.space.name})"


def trivial_bundle(space: FiberedSpace, rank: int = 1,
                   grading: Optional[Sequence[int]] = None) -> EquivariantBundle:
    g = space.groupoid
    action = {}
    for p in space.points:
        for a in g.target_fiber(space.moment[p]):
            action[(p, a)] = identity_matrix(rank)
    return EquivariantBundle(space, rank, action, grading=grading,
                             name=f"trivial-rank{rank}")


def validate_bundle(bundle: EquivariantBundle) -> ValidationReport:
    space, g = bundle.space, bundle.groupoid
    report = ValidationReport(f"bundle {bundle.name}")
    for p in space.points:
        x = space.moment[p]
        u = g.unit[x]
        if bundle.action.get((p, u)) != identity_matrix(bundle.rank):
            report.add(f"unit action at {p!r} is not the identity")
        for a in g.target_fiber(x):
            if (p, a) not in bundle.action:
                report.add(f"bundle action missing on ({p!r}, {a!r})")
                continue
            mat = bundle.act_matrix(p, a)
            if len(mat) != bundle.rank or any(len(row) != bundle.rank for row in mat):
                report.add(f"bundle action at ({p!r}, {a!r}) has wrong shape")
                continue
            pa = space.act(p, a)
            for b in g.target_fiber(g.src[a]):
                ab = g.mul(a, b)
                lhs = mat_mul(bundle.act_matrix(pa, b), mat)
                if lhs != bundle.act_matrix(p, ab):
                    report.add(f"cocycle fails on ({p!r}, {a!r}, {b!r})")
            # metric invariance <e1 a, e2 a> = <e1, e2>:  A^* H_{pa} A == H_p
            astar = tuple(tuple(v.conj() for v in col) for col in zip(*mat))
            if mat_mul(astar, mat_mul(bundle.metric[pa], mat)) != bundle.metric[p]:
                report.add(f"metric not invariant along ({p!r}, {a!r})")
        if not is_positive_definite_hermitian(bundle.metric[p]):
            report.add(f"metric at {p!r} is not Hermitian positive definite")
    if len(bundle.grading) != bundle.rank:
        report.add("grading length differs from rank")
    if any(s not in (1, -1) for s in bundle.grading):
        report.add("grading entries must be +1 or -1")
    if len(bundle.grading) != bundle.rank:
        return report  # no grading matrix to test the action against
    # the supertrace bookkeeping assumes grading-even structure matrices
    eps = tuple(tuple(GaussRat(bundle.grading[i]) if i == j else GR_ZERO
                      for j in range(bundle.rank)) for i in range(bundle.rank))
    for (p, a), mat in bundle.action.items():
        if mat_mul(eps, mat) != mat_mul(mat, eps):
            report.add(f"bundle action at ({p!r}, {a!r}) does not preserve the grading")
            break
    return report
