"""The inverse-semigroup calculus of bisections.

A bisection is an arrow subset on which both source and target are
injective; on a finite groupoid every subset of arrows is open, so
singletons always qualify and every function decomposes into
bisection-supported pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .forms import FormError, NCForm
from .groupoid import GroupoidError, GroupoidSpec
from .modules import ModuleForm, germ_pullback_section


class BisectionError(ValueError):
    """Raised on inputs violating the bisection conditions."""


def is_bisection(groupoid: GroupoidSpec, arrows: Iterable[str]):
    """True iff src and tgt are injective on the subset; on failure returns
    a colliding pair as the witness."""
    arrows = list(arrows)
    for a in arrows:
        if a not in groupoid.src:
            raise GroupoidError(f"unknown arrow {a!r}")
    seen_src: Dict[str, str] = {}
    seen_tgt: Dict[str, str] = {}
    for a in sorted(arrows):
        x = groupoid.src[a]
        if x in seen_src:
            return False, ("src", seen_src[x], a)
        seen_src[x] = a
        y = groupoid.tgt[a]
        if y in seen_tgt:
            return False, ("tgt", seen_tgt[y], a)
        seen_tgt[y] = a
    return True, None


@dataclass(frozen=True)
class Bisection:
    """An arrow subset with injective source and target restrictions."""

    groupoid: GroupoidSpec
    arrows: FrozenSet[str]

    def __post_init__(self):
        ok, witness = is_bisection(self.groupoid, self.arrows)
        if not ok:
            raise BisectionError(f"not a bisection, collision {witness}")

    @classmethod
    def of(cls, groupoid: GroupoidSpec, arrows: Iterable[str]) -> "Bisection":
        return cls(groupoid, frozenset(arrows))

    def inverse(self) -> "Bisection":
        return Bisection(self.groupoid, frozenset(self.groupoid.inv(a)
                                                  for a in self.arrows))

    def product(self, other: "Bisection") -> "Bisection":
        g = self.groupoid
        out = set()
        for a in self.arrows:
            for b in other.arrows:
                c = g.mul(a, b)
                if c is not None:
                    out.add(c)
        return Bisection(g, frozenset(out))

    def pair_product(self, other: "Bisection") -> "BisectionG2":
        g = self.groupoid
        pairs = frozenset((a, b) for a in self.arrows for b in other.arrows
                          if g.src[a] == g.tgt[b])
        return BisectionG2(g, pairs)

    def arrow_over_target(self, x: str) -> Optional[str]:
        for a in self.arrows:
            if self.groupoid.tgt[a] == x:
                return a
        return None

    def __len__(self):
        return len(self.arrows)


@dataclass(frozen=True)
class BisectionG2:
    """A set of composable pairs on which both end maps are injective."""

    groupoid: GroupoidSpec
    pairs: FrozenSet[Tuple[str, str]]

    def __post_init__(self):
        g = self.groupoid
        seen_t: Dict[str, tuple] = {}
        seen_s: Dict[str, tuple] = {}
        for (a, b) in sorted(self.pairs):
            if g.src[a] != g.tgt[b]:
                raise BisectionError(f"pair {(a, b)} is not composable")
            t1, s1 = g.tgt[a], g.src[b]
            if t1 in seen_t:
                raise BisectionError(f"first-target collision {seen_t[t1]} / {(a, b)}")
            if s1 in seen_s:
                raise BisectionError(f"last-source collision {seen_s[s1]} / {(a, b)}")
            seen_t[t1] = (a, b)
            seen_s[s1] = (a, b)

    def __len__(self):
        return len(self.pairs)

    def contains_support(self, form: NCForm) -> bool:
        return all((k[0], k[1]) in self.pairs for k in form.values)


def bisection_basis(groupoid: GroupoidSpec) -> List[Bisection]:
    """Singleton bisections, one per arrow: a basis of the topology."""
    return [Bisection.of(groupoid, [a]) for a in groupoid.arrows]


# ---------------------------------------------------------------------------
# The unit-producing partner function
# ---------------------------------------------------------------------------

def one_u(f: NCForm, u: Bisection) -> NCForm:
    """Indicator of the inverted support of f inside u^{-1}.

    Convolving f on the right with the result lands in the functions
    supported on units, with value f at the unique arrow of u over the
    unit's object; both facts are asserted.
    """
    if f.degree != 0:
        raise FormError("the unit-producing partner takes a degree-0 function")
    g = f.groupoid
    support = {key[0] for key in f.values}
    if not support <= u.arrows:
        raise BisectionError("support of the function is not inside the bisection")
    one = g.model.one()
    indicator = NCForm(g, 0, {(g.inv(a),): one for a in support})
    product = f.convolve(indicator)
    for (arrow,), value in product.values.items():
        if not g.is_unit(arrow):
            raise AssertionError("partner product escaped the unit functions")
        back = u.arrow_over_target(g.tgt[arrow])
        if back is None:
            raise AssertionError("partner product has value over a foreign unit")
        expected = g.transport(f.coeff((back,)), (g.inv(back),))
        if expected != value:
            raise AssertionError("partner product has the wrong unit values")
    return indicator


# ---------------------------------------------------------------------------
# Decomposition into bisection-supported pieces
# ---------------------------------------------------------------------------

def decompose(form: NCForm):
    """Split a degree-0 or degree-1 form into singleton-supported pieces.

    Degree 0 returns (piece, Bisection) pairs; degree 1 returns
    (piece, Bisection, Bisection, BisectionG2) with the pair set carrying
    the support.  The pieces sum back to the input exactly.
    """
    g = form.groupoid
    if form.degree == 0:
        out = []
        for (arrow,), coeff in form.entries():
            piece = NCForm(g, 0, {(arrow,): coeff})
            out.append((piece, Bisection.of(g, [arrow])))
        return out
    if form.degree == 1:
        out = []
        for (a, b), coeff in form.entries():
            piece = NCForm(g, 1, {(a, b): coeff})
            left = Bisection.of(g, [a])
            right = Bisection.of(g, [b])
            out.append((piece, left, right, left.pair_product(right)))
        return out
    raise FormError("decomposition is provided for degrees 0 and 1 only")


def reassemble(pieces: Sequence, groupoid: GroupoidSpec, degree: int) -> NCForm:
    total = NCForm(groupoid, degree)
    for item in pieces:
        total = total + item[0]
    return total


# ---------------------------------------------------------------------------
# The germ action on sections
# ---------------------------------------------------------------------------

def germ_pullback(u: Bisection, section: ModuleForm) -> ModuleForm:
    """Pull a section back along the partial translation of the bisection;
    zero wherever the moment of the point misses the bisection's targets."""
    return germ_pullback_section(sorted(u.arrows), section)
