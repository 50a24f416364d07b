"""Bundle-valued forms as modules over the form algebra.

Module forms live on a fibered right G-space P (the base-space picture is
the special case P = object set via ``unit_space``).  A module form of
degree n maps keys (p, g1, ..., gn) with moment(p) = tgt(g1) and all slots
non-unit to vectors in the bundle fiber at p.g1...gn; coefficients are
expressed in the chart at that endpoint.  A section is the degree-0 case:
keys (p, ()), with an absent point holding the zero vector.

The left action of a degree-k form on a degree-l module form produces the
alternating sum over merges of adjacent slots across the concatenated key,
with one boundary term summing over a free arrow appended at the far end
and pulled back through the bundle action.  The connection stack is
horizontal (exterior derivative plus an invariant connection matrix, zero
in the scalar model) plus the simplicial part that appends one arrow
weighted by a partition function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .coefficients import (GaussRat, mat_add, mat_mul, mat_scale, mat_vec,
                           vec_add, vec_is_zero, vec_neg, vec_scale)
from .forms import FormError, GradedSum, NCForm, SparseForm
from .groupoid import (EquivariantBundle, FiberedSpace, GroupoidError,
                       PartitionFunction, ValidationReport)
from .linalg import mat_inverse


class ModuleForm(SparseForm):
    """A degree-n form with values in the bundle, sparse over keys."""

    __slots__ = ()

    _add = staticmethod(vec_add)
    _neg = staticmethod(vec_neg)
    _scale = staticmethod(vec_scale)
    _is_zero = staticmethod(vec_is_zero)

    def __init__(self, bundle: EquivariantBundle, degree: int,
                 values: Optional[Mapping[Tuple[str, tuple], Sequence]] = None):
        super().__init__(bundle, degree)
        g = bundle.groupoid
        space = bundle.space
        model = g.model
        for (p, word), vec in (values or {}).items():
            word = tuple(word)
            if len(word) != degree:
                raise FormError(f"key {(p, word)} has wrong degree")
            if any(g.is_unit(a) for a in word):
                continue
            if p not in space.moment:
                raise FormError(f"unknown point {p!r}")
            if word and space.moment[p] != g.tgt[word[0]]:
                raise FormError(f"moment condition fails on {(p, word)}")
            for a, b in zip(word, word[1:]):
                if g.src[a] != g.tgt[b]:
                    raise FormError(f"slots of {(p, word)} are not composable")
            vec = tuple(model.check_coefficient(c) for c in vec)
            if len(vec) != bundle.rank:
                raise FormError(f"value at {(p, word)} has wrong rank")
            self.put(self.values, (p, word), vec)

    @property
    def bundle(self) -> EquivariantBundle:
        return self.owner

    @classmethod
    def delta(cls, bundle: EquivariantBundle, p: str, word: Sequence[str],
              index: int, coeff=None) -> "ModuleForm":
        model = bundle.groupoid.model
        coeff = model.one() if coeff is None else model.check_coefficient(coeff)
        vec = tuple(coeff if j == index else model.zero()
                    for j in range(bundle.rank))
        return cls(bundle, len(tuple(word)), {(p, tuple(word)): vec})

    @classmethod
    def basis(cls, bundle: EquivariantBundle, degree: int) -> List["ModuleForm"]:
        out = []
        for p, word in module_keys(bundle.space, degree):
            for j in range(bundle.rank):
                out.append(cls.delta(bundle, p, word, j))
        return out

    def value(self, p: str, word: Sequence[str]):
        model = self.bundle.groupoid.model
        return self.values.get((p, tuple(word)), (model.zero(),) * self.bundle.rank)

    def __repr__(self):
        bits = ", ".join(f"{p}|{','.join(w)}: ({', '.join(str(c) for c in v)})"
                         for (p, w), v in self.entries())
        return f"ModuleForm(deg {self.degree}, {{{bits}}})"


def module_keys(space: FiberedSpace, degree: int):
    """All valid (point, slot-word) keys of the given degree."""
    g = space.groupoid
    if degree == 0:
        return [(p, ()) for p in space.points]
    out = []
    chains = [t for t in g.composable_tuples(degree)
              if all(not g.is_unit(a) for a in t)]
    for word in chains:
        for p in space.fiber(g.tgt[word[0]]):
            out.append((p, word))
    return out


# ---------------------------------------------------------------------------
# The vector representation
# ---------------------------------------------------------------------------

def vector_rep(omega: NCForm, F: ModuleForm) -> ModuleForm:
    """Left action of a degree-k form on a degree-l module form.

    Every entry pair contributes k merge terms inside the form's slots, one
    junction merge, l - 1 merges inside the module slots, and one boundary
    term where the trailing arrow of the concatenation is summed freely and
    the value is pulled back through the bundle action.
    """
    bundle = F.bundle
    g = omega.groupoid
    if g is not bundle.groupoid:
        raise FormError("form and module live on different groupoids")
    space = bundle.space
    chart = g.model.kind == "chart"
    k, l = omega.degree, F.degree
    out: Dict[Tuple[str, tuple], tuple] = {}

    def put(p, word, vec, negate):
        if not any(g.is_unit(a) for a in word):
            ModuleForm.put(out, (p, word), vec_neg(vec) if negate else vec)

    for (q, bs), value in F.values.items():
        vp = space.act_word(q, bs)  # the fiber point where the value lives
        for t, c in omega.values.items():
            # junction: the form's last source must be the module key's moment
            if g.src[t[-1]] != space.moment[q]:
                continue
            coeff = c
            if chart:
                coeff = g.transport(coeff, bs).scale_by_form_degree(l)
            wedge = tuple(coeff * v for v in value)
            if vec_is_zero(wedge):
                continue
            base = space.act_word(q, [g.inv(a) for a in reversed(t)])
            # merges inside the form tuple: positions (i, i+1), sign (-1)^i
            for i in range(k):
                m = g.mul(t[i], t[i + 1])
                word = t[:i] + (m,) + t[i + 2:] + bs
                put(base, word, wedge, i % 2 == 1)
            # junction merge of t[-1] with bs[0], sign (-1)^k
            if l >= 1:
                m = g.mul(t[-1], bs[0])
                put(base, t[:-1] + (m,) + bs[1:], wedge, k % 2 == 1)
                # merges inside the module slots, sign (-1)^(k+r)
                for r in range(1, l):
                    m = g.mul(bs[r - 1], bs[r])
                    word = t + bs[:r - 1] + (m,) + bs[r + 1:]
                    put(base, word, wedge, (k + r) % 2 == 1)
            # boundary: last arrow of the concatenation summed freely; the
            # value moves back from vp along it
            full = t + bs
            gamma = full[-1]
            coeff_b = c
            if chart:
                coeff_b = g.transport(c, bs[:-1] if l >= 1 else (g.inv(gamma),))
                coeff_b = coeff_b.scale_by_form_degree(l)
            moved = bundle.move(vp, g.inv(gamma), value)
            put(base, full[:-1], tuple(coeff_b * v for v in moved), (k + l) % 2 == 1)

    result = ModuleForm(bundle, k + l)
    result.values = out
    return result


# ---------------------------------------------------------------------------
# The form-valued inner product
# ---------------------------------------------------------------------------

def inner_product(u1: ModuleForm, u2: ModuleForm) -> NCForm:
    """<u1, u2>(g) integrates <u1(p), u2(p.g) g^{-1}> over the fiber at
    tgt(g).

    The pairing is linear in the first argument and conjugate-linear in
    the second; this is the unique choice under which the convolution
    identity f * <u1, u2> == <(action of f) u1, u2> holds for complex
    scalars.  Both arguments are sections (degree-0 module forms).
    """
    bundle = u1.bundle
    if bundle is not u2.bundle:
        raise FormError("sections live on different bundles")
    g = bundle.groupoid
    space = bundle.space
    chart = g.model.kind == "chart"
    values = {}
    for arrow in g.arrows:
        total = None
        for p in space.fiber(g.tgt[arrow]):
            pa = space.act(p, arrow)
            v1 = u1.values.get((p, ()))
            v2 = u2.values.get((pa, ()))
            if v1 is None or v2 is None:
                continue
            moved = bundle.move(pa, g.inv(arrow), v2)
            h = bundle.metric[p]
            term = None
            for i in range(bundle.rank):
                for j in range(bundle.rank):
                    piece = v1[i] * (h[i][j] * moved[j].conj())
                    term = piece if term is None else term + piece
            term = term.scale(GaussRat(space.measure[p]))
            total = term if total is None else total + term
        if total is not None and not total.is_zero():
            if chart:
                total = g.transport(total, (arrow,))
            values[(arrow,)] = total
    return NCForm(g, 0, values)


# ---------------------------------------------------------------------------
# The simplicial connection part
# ---------------------------------------------------------------------------

def nabla01(F: ModuleForm, h: PartitionFunction) -> ModuleForm:
    """Append one arrow at the far end, push the value along it, and weight
    by the partition function at the new endpoint; sign (-1)^degree."""
    bundle = F.bundle
    g = bundle.groupoid
    space = bundle.space
    negate = F.degree % 2 == 1
    out: Dict[Tuple[str, tuple], tuple] = {}
    for (p, word), vec in F.values.items():
        vp = space.act_word(p, word)
        for gamma in g.target_fiber(space.moment[vp]):
            if g.is_unit(gamma):
                continue
            weight = GaussRat(h(space.act(vp, gamma)))
            pushed = vec_scale(bundle.move(vp, gamma, vec), weight)
            if negate:
                pushed = vec_neg(pushed)
            ModuleForm.put(out, (p, word + (gamma,)), pushed)
    result = ModuleForm(bundle, F.degree + 1)
    result.values = out
    return result


# ---------------------------------------------------------------------------
# Germ transport of sections along bisections
# ---------------------------------------------------------------------------

def germ_pullback_section(arrows, F: ModuleForm) -> ModuleForm:
    """Pull a section back along the partial map p -> p . (arrow over
    moment(p)): value at p becomes the value at the translated point,
    carried back through the bundle action; zero off the domain."""
    if F.degree != 0:
        raise FormError("germ pullback takes a section (degree-0 module form)")
    bundle = F.bundle
    g = bundle.groupoid
    space = bundle.space
    by_target = {}
    for a in arrows:
        if g.tgt[a] in by_target:
            raise GroupoidError("target map not injective on the bisection")
        by_target[g.tgt[a]] = a
    out: Dict[Tuple[str, tuple], tuple] = {}
    for p in space.points:
        a = by_target.get(space.moment[p])
        if a is None:
            continue
        pa = space.act(p, a)
        v = F.values.get((pa, ()))
        if v is not None:
            ModuleForm.put(out, (p, ()), bundle.move(pa, g.inv(a), v))
    result = ModuleForm(bundle, 0)
    result.values = out
    return result


# ---------------------------------------------------------------------------
# Connection data and the superconnection stack
# ---------------------------------------------------------------------------

class ConnectionData:
    """Horizontal connection matrices (chart model), the partition function
    driving the simplicial part, and the interpolation parameter u.

    D = horizontal + simplicial is linear in the connection matrices, so
    D(u) = u D + (1 - u) D' is D run with the interpolated matrices
    u A + (1 - u) A', built once here."""

    def __init__(self, bundle: EquivariantBundle, h: PartitionFunction,
                 horizontal: Optional[Mapping[str, Sequence[Sequence]]] = None,
                 u: Fraction = Fraction(1)):
        self.bundle = bundle
        self.h = h
        self.u = Fraction(u)
        g = bundle.groupoid
        model = g.model
        self.horizontal = None
        self.horizontal_u = None
        if horizontal is not None:
            if model.kind != "chart":
                raise FormError("horizontal connection matrices need the chart model")
            self.horizontal = {
                p: tuple(tuple(model.check_coefficient(v) for v in row)
                         for row in horizontal[p])
                for p in bundle.space.points}
        report = self.validate()
        if not report.ok:
            raise FormError(str(report))
        if self.horizontal is not None:
            s, t = GaussRat(self.u), GaussRat(1 - self.u)
            adjoint = self.adjoint_horizontal()
            self.horizontal_u = {
                p: mat_add(mat_scale(mat, s), mat_scale(adjoint[p], t))
                for p, mat in self.horizontal.items()}

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport("connection")
        if self.h.check() is not None:
            report.add("partition function identity fails")
        if self.horizontal is None:
            return report
        bundle, g = self.bundle, self.bundle.groupoid
        for a in g.nonunit_arrows():
            for f in ModuleForm.basis(bundle, 0):
                lhs = self._horizontal_apply(germ_pullback_section([a], f), self.horizontal)
                rhs = germ_pullback_section([a], self._horizontal_apply(f, self.horizontal))
                if lhs != rhs:
                    report.add(f"horizontal part not invariant along {a!r}")
                    return report
        return report

    # -- the horizontal operator ---------------------------------------------------

    def adjoint_horizontal(self):
        """Connection matrices of the metric adjoint, -conj(H^{-1} A^T H);
        for an anti-selfadjoint matrix and the identity metric this is the
        original matrix, so the adjoint superconnection coincides there."""
        if self.horizontal is None:
            return None
        metric = self.bundle.metric
        out = {}
        for p, mat in self.horizontal.items():
            prod = mat_mul(mat_inverse(metric[p]), mat_mul(tuple(zip(*mat)), metric[p]))
            out[p] = tuple(tuple(-v.conj() for v in row) for row in prod)
        return out

    def _horizontal_apply(self, F: ModuleForm, matrices) -> ModuleForm:
        """(-1)^n (exterior derivative + connection matrix at the endpoint)."""
        bundle = self.bundle
        g = bundle.groupoid
        if g.model.kind == "scalar":
            return ModuleForm(bundle, F.degree)
        space = bundle.space
        negate = F.degree % 2 == 1
        out: Dict[Tuple[str, tuple], tuple] = {}
        for (p, word), vec in F.values.items():
            endpoint = space.act_word(p, word)
            new = tuple(c.exterior_d() for c in vec)
            if matrices is not None:
                new = vec_add(new, mat_vec(matrices[endpoint], vec))
            if negate:
                new = vec_neg(new)
            if not vec_is_zero(new):
                out[(p, word)] = new
        result = ModuleForm(bundle, F.degree)
        result.values = out
        return result

    # -- superconnections ---------------------------------------------------------------

    def _apply(self, F: ModuleForm, matrices) -> GradedSum:
        return GradedSum(ModuleForm, self.bundle,
                         [self._horizontal_apply(F, matrices), nabla01(F, self.h)])

    def apply_d(self, F: ModuleForm) -> GradedSum:
        """D = horizontal + simplicial."""
        return self._apply(F, self.horizontal)

    def apply_du(self, F: ModuleForm) -> GradedSum:
        """D(u) = u D + (1 - u) D' at the connection's u."""
        return self._apply(F, self.horizontal_u)

    def apply_du_sum(self, forms: GradedSum) -> GradedSum:
        out = GradedSum(ModuleForm, self.bundle)
        for part in forms.parts.values():
            out = out + self.apply_du(part)
        return out

    def curvature_operator(self) -> Callable:
        def op(F):
            return self.apply_du_sum(self.apply_du(F))
        return op
