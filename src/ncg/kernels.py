"""Form-linear smoothing operators as explicit kernels.

A k-slot kernel maps keys (p, g_k, ..., g_1, q) - slots listed from the
p-adjacent end, all non-unit, with moment(q) = tgt(g_1) and
moment(p) = src(g_k) - to rank x rank matrices representing maps from the
fiber at q to the fiber at p.  In the chart model the matrix entries are
polynomial forms expressed in the chart at p's moment object.

Applying a kernel to a degree-l module form inserts the kernel's slots
after the form's slots, integrates the q-variable over the fiber against
the invariant measure, and carries the sign (-1)^{k l} (slots crossing
slots) plus the graded cross sign when kernel entries of odd form degree
cross the form's slots.  Kernel multiplication composes so that applying
K2 after K1 equals applying K2 * K1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .coefficients import (GR_ONE, GaussRat, PolyFormCoeff, identity_matrix,
                           mat_add, mat_is_zero, mat_mul, mat_neg, mat_scale,
                           mat_transport, mat_twist, mat_vec, vec_neg, vec_scale,
                           sparse_put, vec_transport, zero_matrix)
from .forms import GradedSum, NCForm, SparseForm, bounded_monomials
from .groupoid import EquivariantBundle, FiberedSpace
from .linalg import nullspace
from .modules import ConnectionData, ModuleForm, module_keys, vector_rep


class KernelError(ValueError):
    """Raised on malformed kernels or incompatible operands."""


class VerificationError(ValueError):
    """Raised when a pipeline is used inconsistently or one of its internal
    self-checks fails: a fault of the program, not of its input."""


KernelKey = Tuple[str, Tuple[str, ...], str]


def kernel_keys(space: FiberedSpace, slots: int) -> List[KernelKey]:
    """All valid keys (p, descending slots, q) with the fiber conditions."""
    g = space.groupoid
    out = []
    if slots == 0:
        for x in g.objects:
            for p in space.fiber(x):
                for q in space.fiber(x):
                    out.append((p, (), q))
        return out
    chains = [t for t in g.composable_tuples(slots)
              if all(not g.is_unit(a) for a in t)]
    for chain in chains:  # ascending order (g1, ..., gk)
        desc = tuple(reversed(chain))
        for q in space.fiber(g.tgt[chain[0]]):
            for p in space.fiber(g.src[chain[-1]]):
                out.append((p, desc, q))
    return out


class SmoothingKernel(SparseForm):
    """A sparse k-slot kernel with optional verified linearity flags; its
    degree is the slot count."""

    __slots__ = ("equivariant", "cocycle")

    error = KernelError

    _add = staticmethod(mat_add)
    _neg = staticmethod(mat_neg)
    _scale = staticmethod(mat_scale)
    _is_zero = staticmethod(mat_is_zero)

    def __init__(self, bundle: EquivariantBundle, degree: int,
                 values: Optional[Mapping[KernelKey, Sequence[Sequence]]] = None,
                 equivariant: Optional[bool] = None,
                 cocycle: Optional[bool] = None):
        super().__init__(bundle, degree)
        self.equivariant = equivariant
        self.cocycle = cocycle
        g = bundle.groupoid
        space = bundle.space
        model = g.model
        for (p, desc, q), mat in (values or {}).items():
            desc = tuple(desc)
            if len(desc) != degree:
                raise KernelError(f"key {(p, desc, q)} has wrong slot count")
            chain = tuple(reversed(desc))
            if any(g.is_unit(a) for a in chain):
                raise KernelError(f"unit slot in kernel key {(p, desc, q)}")
            for a, b in zip(chain, chain[1:]):
                if g.src[a] != g.tgt[b]:
                    raise KernelError(f"slots of {(p, desc, q)} not composable")
            if degree:
                if space.moment[q] != g.tgt[chain[0]]:
                    raise KernelError(f"q-side fiber condition fails on {(p, desc, q)}")
                if space.moment[p] != g.src[chain[-1]]:
                    raise KernelError(f"p-side fiber condition fails on {(p, desc, q)}")
            elif space.moment[p] != space.moment[q]:
                raise KernelError(f"0-slot key {(p, q)} joins different fibers")
            mat = tuple(tuple(model.check_coefficient(v) for v in row)
                        for row in mat)
            if len(mat) != bundle.rank or any(len(r) != bundle.rank for r in mat):
                raise KernelError(f"matrix at {(p, desc, q)} has wrong shape")
            self.put(self.values, (p, desc, q), mat)

    @property
    def bundle(self) -> EquivariantBundle:
        return self.owner

    def _image(self, values):
        out = self._like(values)
        out.equivariant, out.cocycle = self.equivariant, self.cocycle
        return out

    def __add__(self, other):
        # the linearity conditions are linear: a sum of two kernels that
        # both meet one keeps it verified; anything else is unknown
        out = super().__add__(other)
        if self.equivariant and other.equivariant:
            out.equivariant = True
        if self.cocycle and other.cocycle:
            out.cocycle = True
        return out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, bundle: EquivariantBundle, degree: int) -> "SmoothingKernel":
        return cls(bundle, degree, equivariant=True, cocycle=True)

    @classmethod
    def delta(cls, bundle: EquivariantBundle) -> "SmoothingKernel":
        """The identity operator: diagonal matrices scaled by 1/measure."""
        one = identity_matrix(bundle.rank, bundle.groupoid.model)
        measure = bundle.space.measure
        values = {(p, (), p): mat_scale(one, GaussRat(measure[p]).inverse())
                  for p in bundle.space.points}
        return cls(bundle, 0, values, equivariant=True, cocycle=True)

    # -- structure ----------------------------------------------------------------

    def matrix(self, key: KernelKey):
        bundle = self.bundle
        return self.values.get(key, zero_matrix(bundle.rank, bundle.groupoid.model))

    def form_degrees(self) -> set:
        out = set()
        for mat in self.values.values():
            for row in mat:
                for c in row:
                    out |= c.form_degrees()
        return out

    def __repr__(self):
        return (f"SmoothingKernel(degree={self.degree}, {len(self.values)} entries, "
                f"equivariant={self.equivariant}, cocycle={self.cocycle})")


# ---------------------------------------------------------------------------
# Entry translations (the two fiber-index isomorphisms)
# ---------------------------------------------------------------------------

def translate_p(bundle: EquivariantBundle, p: str, gamma: str, mat):
    """Move the p-index along gamma: ``EquivariantBundle.move`` applied to
    every column, re-expressed in the chart at p.gamma."""
    return mat_mul(bundle.act_matrix(p, gamma),
                   mat_transport(bundle.groupoid, mat, (gamma,)))


def translate_q(bundle: EquivariantBundle, q: str, gamma: str, mat):
    """Move the q-index along gamma: right-multiply by the action matrix
    back from q.gamma, the inverse of act_matrix(q, gamma); the p-side
    chart is untouched."""
    back = bundle.act_matrix(bundle.space.act(q, gamma), bundle.groupoid.inv(gamma))
    return mat_mul(mat, back)


# ---------------------------------------------------------------------------
# Kernel application and multiplication
# ---------------------------------------------------------------------------

def apply_kernel(kernel: SmoothingKernel, F: ModuleForm) -> ModuleForm:
    """Evaluate the operator on a module form."""
    bundle = kernel.bundle
    if F.bundle is not bundle:
        raise KernelError("kernel and form live on different bundles")
    g = bundle.groupoid
    space = bundle.space
    chart = g.model.kind == "chart"
    k, l = kernel.degree, F.degree
    negate_kl = (k * l) % 2 == 1
    weights = {p: GaussRat(m) for p, m in space.measure.items()}
    out: Dict[Tuple[str, tuple], tuple] = {}
    for (P, desc, qhat), mat in kernel.values.items():
        if chart:
            mat = mat_twist(mat, l)
        weight = weights[qhat]
        chain = tuple(reversed(desc))
        back = [g.inv(a) for a in reversed(chain)]
        for (qf, bs), vec in F.values.items():
            if space.act_word(qf, bs) != qhat:
                continue
            value = vec_scale(mat_vec(mat, vec_transport(g, vec, chain)), weight)
            if negate_kl:
                value = vec_neg(value)
            p = space.act_word(P, back + [g.inv(a) for a in reversed(bs)])
            ModuleForm.put(out, (p, bs + chain), value)
    result = ModuleForm(bundle, k + l)
    result.values = out
    return result


def kernel_mul(k1: SmoothingKernel, k2: SmoothingKernel) -> SmoothingKernel:
    """Composition kernel: applying k2 then k1 equals applying k1 * k2."""
    if k1.bundle is not k2.bundle:
        raise KernelError("kernels live on different bundles")
    bundle = k1.bundle
    g = bundle.groupoid
    space = bundle.space
    chart = g.model.kind == "chart"
    negate = (k1.degree * k2.degree) % 2 == 1
    weights = {p: GaussRat(m) for p, m in space.measure.items()}
    out: Dict[KernelKey, tuple] = {}
    for (p, desc1, mid), m1 in k1.values.items():
        if chart:
            m1 = mat_twist(m1, k2.degree)
        weight = weights[mid]
        word1 = tuple(reversed(desc1))
        for (mid2, desc2, q), m2 in k2.values.items():
            if mid2 != mid:
                continue
            mat = mat_scale(mat_mul(m1, mat_transport(g, m2, word1)), weight)
            if negate:
                mat = mat_neg(mat)
            SmoothingKernel.put(out, (p, desc1 + desc2, q), mat)
    result = SmoothingKernel(bundle, k1.degree + k2.degree)
    result.values = out
    if k1.equivariant and k2.equivariant:
        result.equivariant = True
    if k1.cocycle and k2.cocycle:
        result.cocycle = True
    return result


def kernel_sum_mul(a: GradedSum, b: GradedSum) -> GradedSum:
    """Product of two sums of kernels, part by part."""
    out = GradedSum(SmoothingKernel, a.owner)
    for x in a.parts.values():
        for y in b.parts.values():
            out.accumulate(kernel_mul(x, y))
    return out


def apply_kernel_sum(kernels: GradedSum, F: ModuleForm) -> GradedSum:
    """Apply a sum of kernels to a module form."""
    return GradedSum(ModuleForm, kernels.owner,
                     [apply_kernel(part, F) for part in kernels.parts.values()])


# ---------------------------------------------------------------------------
# Form-linearity: the residual system and its exhaustive reference
# ---------------------------------------------------------------------------

def omega_linearity_failures(kernel: SmoothingKernel, max_cases: Optional[int] = None):
    """Exhaustively test commutation with the function action on the delta
    basis; returns the list of failing (arrow, point, index) triples.  The
    reference that ``equivariance_residuals`` is checked against."""
    bundle = kernel.bundle
    g = bundle.groupoid
    failures = []
    basis = ModuleForm.basis(bundle, 0)
    for gamma in g.arrows:
        f = NCForm.delta(g, (gamma,))
        for F in basis:
            lhs = apply_kernel(kernel, vector_rep(f, F))
            rhs = vector_rep(f, apply_kernel(kernel, F))
            if lhs != rhs:
                point, idx = _delta_section_id(F)
                failures.append((gamma, point, idx))
                if max_cases and len(failures) >= max_cases:
                    return failures
    return failures


def _delta_section_id(F: ModuleForm):
    for (p, _), vec in F.values.items():
        for i, c in enumerate(vec):
            if not c.is_zero():
                return p, i
    return None, None


def equivariance_residuals(kernel: SmoothingKernel):
    """The necessary-and-sufficient linear conditions for a kernel of any
    slot count k to commute with the function action; returns two dicts
    (interior, boundary) of nonzero residual matrices keyed by witnesses.

    Write a key as (P, desc, q) with desc = (w_k, ..., w_1), so w_1 is the
    slot next to q.  T(q, gamma, M) is ``translate_q`` and B(P, c, M) =
    ``translate_p`` at (P.c, c^-1) moves an entry at P.c back to P.
    Expanding K(delta_gamma . F) = delta_gamma . K(F) on delta sections
    with the terms of ``vector_rep`` gives, for k >= 1:

    * interior (the junction merge): for non-unit gamma != w_1 with
      tgt gamma = tgt w_1, T(q, gamma, K[P, desc, q]) equals
      K[P, (w_k, ..., w_2, gamma^-1 w_1), q.gamma]; witness (P, *desc, q,
      gamma);
    * boundary: with q' = q.w_1, the sum of T(q, w_1, K[P, desc, q]), of
      (-1)^{r+1} K[P, (w_k, ..., w_{r+2}, b, a, w_r, ..., w_2), q'] over
      r = 1..k-1 and splits a.b = w_{r+1} (the inner merges), and of
      (-1)^{k+1} B(P, c, K[P.c, (c, w_k, ..., w_2), q']) over the free
      last arrow c at P vanishes; witness (P, *desc, q).

    For k = 0 the one condition T(q, gamma, K[P, (), q]) = B(P, gamma,
    K[P.gamma, (), q.gamma]) is an equivariance condition and is reported
    as interior; witness (P, q, gamma).  The measure weights of
    ``apply_kernel`` cancel because validated spaces carry invariant
    measures.  Absent entries count as zero and cost no arithmetic.
    """
    bundle = kernel.bundle
    g = bundle.groupoid
    space = bundle.space
    k = kernel.degree
    get = kernel.values.get
    interior: Dict[tuple, tuple] = {}
    boundary: Dict[tuple, tuple] = {}

    def T(q, gamma, mat):
        return None if mat is None else translate_q(bundle, q, gamma, mat)

    def B(P, c, mat):
        if mat is None:
            return None
        return translate_p(bundle, space.act(P, c), g.inv(c), mat)

    def settle(out, witness, terms):
        total = None
        for sign, mat in terms:
            if mat is not None:
                mat = mat if sign > 0 else mat_neg(mat)
                total = mat if total is None else mat_add(total, mat)
        if total is not None and not mat_is_zero(total):
            out[witness] = total

    for key in kernel_keys(space, k):
        P, desc, q = key
        mat = get(key)
        if k == 0:
            for gamma in g.target_fiber(space.moment[q]):
                if not g.is_unit(gamma):
                    other = get((space.act(P, gamma), (), space.act(q, gamma)))
                    settle(interior, (P, q, gamma),
                           [(1, T(q, gamma, mat)), (-1, B(P, gamma, other))])
            continue
        witness = (P,) + desc + (q,)
        w1, rest = desc[-1], desc[:-1]
        for gamma in g.target_fiber(g.tgt[w1]):
            if not g.is_unit(gamma) and gamma != w1:
                shifted = (P, rest + (g.mul(g.inv(gamma), w1),), space.act(q, gamma))
                settle(interior, witness + (gamma,),
                       [(1, T(q, gamma, mat)), (-1, get(shifted))])
        q1 = space.act(q, w1)
        terms = [(1, T(q, w1, mat))]
        for r in range(1, k):
            w = desc[k - 1 - r]  # w_{r+1}, split as a.b
            for a in g.target_fiber(g.tgt[w]):
                if not g.is_unit(a) and a != w:
                    b = g.mul(g.inv(a), w)
                    split = desc[:k - 1 - r] + (b, a) + desc[k - r:k - 1]
                    terms.append((1 if r % 2 else -1, get((P, split, q1))))
        for c in g.target_fiber(space.moment[P]):
            if not g.is_unit(c):
                entry = get((space.act(P, c), (c,) + rest, q1))
                terms.append((1 if k % 2 else -1, B(P, c, entry)))
        settle(boundary, witness, terms)
    return interior, boundary


def set_flags(kernel: SmoothingKernel) -> SmoothingKernel:
    """Verify and record form-linearity on the kernel (in place)."""
    interior, boundary = equivariance_residuals(kernel)
    kernel.equivariant = not interior
    kernel.cocycle = not boundary
    return kernel


# ---------------------------------------------------------------------------
# Sampling the space of form-linear kernels
# ---------------------------------------------------------------------------

# Polynomial degree of the chart-model kernel entries the sampler solves
# for (scalar models have one unknown per matrix position).
SAMPLER_POLY_DEGREE = 2


def _coefficient_basis(model):
    if model.kind == "scalar":
        return [None]  # a single GaussRat unknown per matrix position
    return [(exps, ()) for exps in sorted(
        bounded_monomials(model.dim, SAMPLER_POLY_DEGREE), key=sum)]


def linearity_constraint_columns(bundle: EquivariantBundle, slots: int):
    terms = _coefficient_basis(bundle.groupoid.model)
    columns = []
    for key in kernel_keys(bundle.space, slots):
        for i in range(bundle.rank):
            for j in range(bundle.rank):
                for term in terms:
                    columns.append((key, i, j, term))
    return columns


def linearity_nullspace(bundle: EquivariantBundle, slots: int):
    """Exact basis of kernels commuting with the function action: the
    residual system of ``equivariance_residuals``, assembled column by
    column on basis kernels (the residuals are linear in the kernel)."""
    columns = linearity_constraint_columns(bundle, slots)
    rows: Dict[tuple, Dict[tuple, GaussRat]] = {}
    for col in columns:
        residuals = equivariance_residuals(
            kernel_from_coordinates(bundle, slots, {col: GR_ONE}))
        for tag, part in enumerate(residuals):
            for witness, mat in part.items():
                for i, row in enumerate(mat):
                    for j, c in enumerate(row):
                        terms = {(): c} if isinstance(c, GaussRat) else c.terms
                        for tkey, v in terms.items():
                            if not v.is_zero():
                                rows.setdefault((tag, witness, i, j, tkey), {})[col] = v
    basis_vectors = nullspace(list(rows.values()), columns)
    return columns, basis_vectors


def kernel_from_coordinates(bundle, slots, coords: Mapping[tuple, GaussRat]):
    model = bundle.groupoid.model
    entries: Dict[KernelKey, list] = {}
    for (key, i, j, term), value in coords.items():
        mat = entries.setdefault(
            key, [list(row) for row in zero_matrix(bundle.rank, model)])
        if term is None:
            mat[i][j] = mat[i][j] + model.from_gauss(value)
        else:
            mat[i][j] = mat[i][j] + PolyFormCoeff.monomial(
                model.dim, term[0], term[1], value)
    out = SmoothingKernel(bundle, slots)
    out.values = {k: tuple(tuple(row) for row in m)
                  for k, m in entries.items()
                  if not mat_is_zero(m)}
    return out


class KernelSampler:
    """Seeded sampler over the exact nullspace of the linearity constraints.
    Its basis kernels (``kernels``) are checked once, at build; the residuals
    are linear, so every sample, a combination of them, inherits their flags."""

    def __init__(self, bundle: EquivariantBundle, slots: int = 1):
        self.bundle = bundle
        self.slots = slots
        self.basis = linearity_nullspace(bundle, slots)[1]
        self.kernels = [set_flags(kernel_from_coordinates(bundle, slots, vec))
                        for vec in self.basis]
        if not all(k.equivariant and k.cocycle for k in self.kernels):
            raise VerificationError("a sampler basis kernel fails its own constraints")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def sample(self, rng) -> Optional[SmoothingKernel]:
        """A random exact combination of nullspace basis vectors; None when
        the space is zero (reported, not an error)."""
        if not self.basis:
            return None
        coords: Dict[tuple, GaussRat] = {}
        nonzero = False
        for vec in self.basis:
            c = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         Fraction(rng.randint(-1, 1)))
            if c.is_zero():
                continue
            nonzero = True
            for col, value in vec.items():
                sparse_put(coords, col, c * value)
        if not nonzero:
            coords = dict(self.basis[0])
        kernel = kernel_from_coordinates(self.bundle, self.slots, coords)
        kernel.equivariant = kernel.cocycle = True
        return kernel


# ---------------------------------------------------------------------------
# Kernel extraction from a black-box operator
# ---------------------------------------------------------------------------

def operator_to_kernel(op: Callable, bundle: EquivariantBundle) -> GradedSum:
    """Read the kernels of a form-linear operator off the delta basis.

    The operator is evaluated once on every delta section; the degree-k
    component of each image determines the k-slot kernel uniquely, and
    every slot component is returned as one part of the sum.  The result
    is verified by a round trip on the same images and on the degree-one
    delta module forms, and each part against the form-linearity
    conditions, which reject integral-shaped operators that fail to commute
    with the function action, like the bare simplicial connection; every
    part therefore carries verified flags.
    """
    space = bundle.space
    model = bundle.groupoid.model

    def image(F):
        out = op(F)
        return out if isinstance(out, GradedSum) else GradedSum(ModuleForm, bundle, [out])

    entries: Dict[int, Dict[KernelKey, list]] = {}
    images = []
    for qhat in space.points:
        inv_measure = GaussRat(Fraction(1, 1) / space.measure[qhat])
        for j in range(bundle.rank):
            F = ModuleForm.delta(bundle, qhat, (), j)
            out = image(F)
            images.append((qhat, F, out))
            for slots, comp in out.parts.items():
                mats = entries.setdefault(slots, {})
                for (p, word), vec in comp.values.items():
                    P = space.act_word(p, word)
                    mat = mats.setdefault(
                        (P, tuple(reversed(word)), qhat),
                        [list(row) for row in zero_matrix(bundle.rank, model)])
                    for i in range(bundle.rank):
                        mat[i][j] = mat[i][j] + vec[i].scale(inv_measure)
    kernels = GradedSum(SmoothingKernel, bundle, [
        SmoothingKernel(bundle, slots, {k: tuple(tuple(row) for row in m)
                                        for k, m in entries[slots].items()})
        for slots in sorted(entries)])
    for qhat, F, out in images:
        if apply_kernel_sum(kernels, F) != out:
            raise KernelError(
                "operator is not a smoothing operator "
                f"(round trip fails on the delta section at {qhat!r})")
    for key in module_keys(space, 1):
        for j in range(bundle.rank):
            F = ModuleForm.delta(bundle, key[0], key[1], j)
            if apply_kernel_sum(kernels, F) != image(F):
                raise KernelError(
                    "operator is not a smoothing operator "
                    f"(degree-one check fails at {key!r})")
    for part in kernels.parts.values():
        set_flags(part)
        if not (part.equivariant and part.cocycle):
            raise KernelError(
                f"operator is not a smoothing operator (its {part.degree}-slot "
                "kernel fails the form-linearity conditions)")
    return kernels


# ---------------------------------------------------------------------------
# The commutator with the superconnection
# ---------------------------------------------------------------------------

def commutator_with_d(connection: ConnectionData,
                      kernel: SmoothingKernel) -> GradedSum:
    """Kernel of the graded commutator with the (u-independent)
    superconnection: the simplicial part appends one slot at either end
    with partition-function weights; on charts the horizontal part
    differentiates the entries and, when the connection has matrices,
    commutes with them.

    The result is asserted against the operator-level graded commutator on
    the delta basis, and its parts inherit the kernel's verified flags.
    """
    if not (kernel.equivariant and kernel.cocycle):
        raise KernelError("commutator needs a kernel with verified linearity flags")
    bundle = kernel.bundle
    g = bundle.groupoid
    space = bundle.space
    chart = g.model.kind == "chart"
    k = kernel.degree
    sign_k = -1 if k % 2 else 1
    put = SmoothingKernel.put

    nabla_entries: Dict[KernelKey, tuple] = {}
    for (P, desc, q), mat in kernel.values.items():
        # new slot at the p-adjacent end
        for gamma in g.target_fiber(space.moment[P]):
            if g.is_unit(gamma):
                continue
            new_p = space.act(P, gamma)
            weight = GaussRat(connection.h(new_p))
            moved = mat_scale(translate_p(bundle, P, gamma, mat), weight)
            if sign_k < 0:
                moved = mat_neg(moved)
            put(nabla_entries, (new_p, (gamma,) + desc, q), moved)
        # new slot at the q-adjacent end
        for gamma in g.source_fiber(space.moment[q]):
            if g.is_unit(gamma):
                continue
            new_q = space.act(q, g.inv(gamma))
            weight = GaussRat(connection.h(q))
            moved = mat_scale(translate_q(bundle, q, g.inv(gamma), mat), weight)
            put(nabla_entries, (P, desc + (gamma,), new_q), mat_neg(moved))

    nabla_part = SmoothingKernel(bundle, k + 1, equivariant=True, cocycle=True)
    nabla_part.values = nabla_entries
    parts = [nabla_part]

    if chart:
        hor_entries: Dict[KernelKey, tuple] = {}
        amats = connection.horizontal
        for (P, desc, q), mat in kernel.values.items():
            total = tuple(tuple(c.exterior_d() for c in row) for row in mat)
            if amats is not None:
                a_q = mat_transport(g, amats[q], tuple(reversed(desc)))
                left = mat_mul(amats[P], mat)
                right = mat_mul(mat_twist(mat, 1), a_q)
                total = mat_add(total, mat_add(left, mat_neg(right)))
            if sign_k < 0:
                total = mat_neg(total)
            put(hor_entries, (P, desc, q), total)
        hor_part = SmoothingKernel(bundle, k, equivariant=True, cocycle=True)
        hor_part.values = hor_entries
        parts.append(hor_part)

    result = GradedSum(SmoothingKernel, bundle, parts)
    _assert_commutator(connection, kernel, result)
    return result


def _assert_commutator(connection, kernel, result):
    """Operator identity [D, K] F = D(KF) - (-1)^k K~(DF) on the basis,
    graded by the total degree: K~ is K with each entry term of form
    degree m multiplied by (-1)^m."""
    bundle = kernel.bundle
    twisted = kernel._like({key: mat_twist(mat, 1) for key, mat in kernel.values.items()})
    sign = GaussRat(1 if kernel.degree % 2 else -1)
    for F in ModuleForm.basis(bundle, 0):
        rhs = connection.apply_d(apply_kernel(kernel, F))
        for part in connection.apply_d(F).parts.values():
            rhs.accumulate(apply_kernel(twisted, part).scale(sign))
        if apply_kernel_sum(result, F) != rhs:
            raise VerificationError("commutator kernel disagrees with the operator side")
