"""The bigraded noncommutative form complex of a finite groupoid.

A form of simplicial degree n is a finitely supported map from composable
(n+1)-tuples (g0; g1, ..., gn) to coefficients, with the quotient
normalization built in: any tuple with a unit in a slot >= 1 is projected
out on write.  The slot-0 entry is unrestricted.

Coefficients live in the groupoid's coefficient model.  In the chart model
a coefficient is a polynomial differential form expressed in the chart at
the last source s(gn) of its tuple; whenever an operation moves a value to
a tuple with a different last source, the coefficient is transported by the
exact pullback along the connecting arrow word.

Grading conventions (the scalar model is untouched by all of them):

* the product inserts the Koszul sign (-1)^{m1 * l} when the de Rham part
  of the left factor (degree m1, per homogeneous term) passes the l
  simplicial slots of the right factor;
* d2 is the plain unit-slot insertion; d1 is the entrywise exterior
  derivative times (-1)^n on simplicial degree n;
* the involution conjugates, reverses and inverts, and twists each de Rham
  term of degree m on simplicial degree k by (-1)^{k m + m(m-1)/2}.

These are the unique extensions for which the total complex is an
associative star algebra with an anticommuting pair of square-zero
differentials acting by graded derivations; the property suites check all
of those laws exactly.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .coefficients import GR_ONE, GaussRat, PolyFormCoeff, sparse_put
from .groupoid import GroupoidSpec
from .linalg import RowReducer, Vector


class FormError(ValueError):
    """Raised on malformed forms or mismatched operands."""


TupleKey = Tuple[str, ...]


def _star_coeff(coeff, slot_degree: int):
    """Conjugate a coefficient and apply the involution's grading twist."""
    if isinstance(coeff, GaussRat):
        return coeff.conj()
    terms = {}
    for (exps, form), c in coeff.terms.items():
        m = len(form)
        sign = (slot_degree * m + (m * (m - 1)) // 2) % 2
        c = c.conj()
        terms[(exps, form)] = -c if sign else c
    return PolyFormCoeff(coeff.dim, terms)


class SparseForm:
    """A finitely supported map from keys to values, all of one degree.

    Forms, module forms and smoothing kernels share this shape: the keys
    are composable tuples (with fiber points for module forms and kernels),
    the values are coefficients, vectors or matrices of coefficients, and
    no stored value is zero.  A subclass names its owner (a groupoid or a
    bundle), validates keys on construction, and supplies how to add,
    negate, scale and zero-test its kind of value; the defaults here are
    the coefficient operations.
    """

    __slots__ = ("owner", "degree", "values")

    error = FormError

    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _is_zero = staticmethod(operator.methodcaller("is_zero"))

    @staticmethod
    def _scale(value, scalar):
        return value.scale(scalar)

    def __init__(self, owner, degree: int):
        self.owner = owner
        self.degree = degree
        self.values: Dict = {}

    @classmethod
    def zero(cls, owner, degree: int):
        return cls(owner, degree)

    @classmethod
    def put(cls, store: Dict, key, value):
        """Add value into store[key]; a key whose sum is zero is dropped."""
        if key in store:
            value = cls._add(store[key], value)
        if cls._is_zero(value):
            store.pop(key, None)
        else:
            store[key] = value

    def _like(self, values: Dict):
        """A container on the same owner and degree holding values."""
        out = type(self)(self.owner, self.degree)
        out.values = values
        return out

    def _image(self, values: Dict):
        """Like _like, for a negated or scaled copy of this container;
        subclasses carry over what such a copy keeps."""
        return self._like(values)

    def is_zero(self) -> bool:
        return not self.values

    def entries(self):
        return sorted(self.values.items())

    def __add__(self, other):
        if type(other) is not type(self) or other.owner is not self.owner:
            raise self.error(f"cannot add {type(other).__name__} to {type(self).__name__}"
                             " of another kind or owner")
        if other.degree != self.degree:
            raise self.error(f"cannot add {type(self).__name__}s of different degree")
        values = dict(self.values)
        for key, value in other.values.items():
            self.put(values, key, value)
        return self._like(values)

    def __neg__(self):
        neg = self._neg
        return self._image({k: neg(v) for k, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        values = {}
        for key, value in self.values.items():
            value = self._scale(value, scalar)
            if not self._is_zero(value):
                values[key] = value
        return self._image(values)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.owner is other.owner and self.degree == other.degree
                and self.values == other.values)


class NCForm(SparseForm):
    """An element of the degree-n part of the form complex."""

    __slots__ = ()

    def __init__(self, groupoid: GroupoidSpec, degree: int,
                 values: Optional[Dict[TupleKey, object]] = None):
        super().__init__(groupoid, degree)
        for key, coeff in (values or {}).items():
            key = tuple(key)
            if len(key) != degree + 1:
                raise FormError(f"tuple {key} has wrong length for degree {degree}")
            for a, b in zip(key, key[1:]):
                if groupoid.src[a] != groupoid.tgt[b]:
                    raise FormError(f"tuple {key} is not composable")
            if any(groupoid.is_unit(a) for a in key[1:]):
                continue
            self.put(self.values, key, groupoid.model.check_coefficient(coeff))

    @property
    def groupoid(self) -> GroupoidSpec:
        return self.owner

    # -- constructors ----------------------------------------------------------

    @classmethod
    def delta(cls, groupoid: GroupoidSpec, key: Sequence[str], coeff=1) -> "NCForm":
        key = tuple(key)
        coeff = groupoid.model.check_coefficient(
            groupoid.model.from_gauss(coeff) if isinstance(coeff, int) else coeff)
        return cls(groupoid, len(key) - 1, {key: coeff})

    # -- structure ---------------------------------------------------------------

    def coeff(self, key: Sequence[str]):
        return self.values.get(tuple(key), self.groupoid.model.zero())

    def form_degrees(self) -> set:
        out = set()
        for c in self.values.values():
            out |= c.form_degrees()
        return out

    def __hash__(self):
        return hash((id(self.owner), self.degree,
                     tuple(sorted((k, str(v)) for k, v in self.values.items()))))

    def __repr__(self):
        if not self.values:
            return f"NCForm(deg {self.degree}, 0)"
        bits = ", ".join(f"{'|'.join(k)}: {v}" for k, v in self.entries())
        return f"NCForm(deg {self.degree}, {{{bits}}})"

    # -- star algebra ------------------------------------------------------------------

    def convolve(self, other: "NCForm") -> "NCForm":
        """Product: alternating sum over merges of adjacent slots.

        For entries (a0..ak) and (b0..bl) with s(ak) == t(b0), term i = 0
        merges ak with b0; term i >= 1 (sign (-1)^i) merges positions
        (k - i, k - i + 1) of the left tuple and keeps the right tuple
        whole.  Left coefficients are transported along the right tuple's
        composite word and pass its l slots with the graded cross sign.
        """
        if self.owner is not other.owner:
            raise FormError("forms live on different groupoids")
        g = self.groupoid
        k, l = self.degree, other.degree
        chart = g.model.kind == "chart"
        out: Dict[TupleKey, object] = {}

        def put(key: TupleKey, coeff, negate: bool):
            if not any(g.is_unit(a) for a in key[1:]):
                NCForm.put(out, key, -coeff if negate else coeff)

        for t2, c2 in other.values.items():
            word2 = g.compose_word(t2)
            for t1, c1 in self.values.items():
                if g.src[t1[-1]] != g.tgt[t2[0]]:
                    continue
                left = c1
                if chart:
                    left = g.model.pullback(left, word2).scale_by_form_degree(l)
                coeff = left * c2
                if coeff.is_zero():
                    continue
                merged = g.mul(t1[-1], t2[0])
                put(t1[:-1] + (merged,) + t2[1:], coeff, False)
                for i in range(1, k + 1):
                    pos = k - i
                    m = g.mul(t1[pos], t1[pos + 1])
                    put(t1[:pos] + (m,) + t1[pos + 2:] + t2, coeff, i % 2 == 1)
        result = NCForm(g, k + l)
        result.values = out
        return result

    __mul__ = convolve

    def involute(self) -> "NCForm":
        """The star operation: reverse, invert, conjugate.

        Each entry (a0..ak) contributes its full reversal
        (ak^-1, ..., a0^-1) with sign +1, and, for every adjacent merge
        position j, the unit-headed key
        (1, a_k^-1, ..., (a_j a_{j+1})^-1, ..., a_0^-1) with sign
        (-1)^{k+j}.  Coefficients are conjugated, twisted, and transported
        along the inverse of the entry's composite word.
        """
        g = self.groupoid
        k = self.degree
        chart = g.model.kind == "chart"
        out: Dict[TupleKey, object] = {}

        def put(key: TupleKey, coeff, negate: bool):
            if not any(g.is_unit(a) for a in key[1:]):
                NCForm.put(out, key, -coeff if negate else coeff)

        for t, c in self.values.items():
            coeff = _star_coeff(c, k)
            if chart:
                coeff = g.model.pullback(coeff, g.inv(g.compose_word(t)))
            full = tuple(g.inv(a) for a in reversed(t))
            put(full, coeff, False)
            for j in range(k):
                merged = g.mul(t[j], t[j + 1])
                inv_list = [g.inv(a) for a in reversed(
                    t[:j] + (merged,) + t[j + 2:])]
                head = g.unit[g.tgt[inv_list[0]]]
                put((head, *inv_list), coeff, (k + j) % 2 == 1)
        result = NCForm(g, k)
        result.values = out
        return result

    # -- differentials ---------------------------------------------------------------------

    def d2(self) -> "NCForm":
        """Prepend the unit slot: (d2 w)(g0; g1...) = [g0 unit] w(g1; ...)."""
        g = self.groupoid
        out: Dict[TupleKey, object] = {}
        for t, c in self.values.items():
            if g.is_unit(t[0]):
                continue
            out[(g.unit[g.tgt[t[0]]], *t)] = c
        result = NCForm(g, self.degree + 1)
        result.values = out
        return result

    def d1(self) -> "NCForm":
        """Entrywise exterior derivative times (-1)^degree (zero on scalars)."""
        g = self.groupoid
        if g.model.kind == "scalar":
            return NCForm(g, self.degree)
        negate = self.degree % 2 == 1
        out: Dict[TupleKey, object] = {}
        for t, c in self.values.items():
            dc = c.exterior_d()
            if dc.is_zero():
                continue
            out[t] = -dc if negate else dc
        result = NCForm(g, self.degree)
        result.values = out
        return result


# ---------------------------------------------------------------------------
# Mixed-degree sums (forms once d1 and d2 are combined, module forms under
# a superconnection, kernels of a heat exponential)
# ---------------------------------------------------------------------------

class GradedSum:
    """A finite sum of containers of one kind (NCForm, ModuleForm or
    SmoothingKernel) on one owner, one part per degree."""

    __slots__ = ("kind", "owner", "parts")

    def __init__(self, kind, owner, parts: Iterable[SparseForm] = ()):
        self.kind = kind
        self.owner = owner
        self.parts: Dict[int, SparseForm] = {}
        for part in parts:
            self.accumulate(part)

    def accumulate(self, part: SparseForm):
        # parts add and zero-test like coefficients, so the default put fits
        SparseForm.put(self.parts, part.degree, part)

    def component(self, degree: int) -> SparseForm:
        part = self.parts.get(degree)
        return self.kind.zero(self.owner, degree) if part is None else part

    def is_zero(self) -> bool:
        return not self.parts

    def scale(self, scalar) -> "GradedSum":
        return GradedSum(self.kind, self.owner,
                         [p.scale(scalar) for p in self.parts.values()])

    def __add__(self, other: "GradedSum") -> "GradedSum":
        out = GradedSum(self.kind, self.owner, self.parts.values())
        for part in other.parts.values():
            out.accumulate(part)
        return out

    def __sub__(self, other: "GradedSum") -> "GradedSum":
        out = GradedSum(self.kind, self.owner, self.parts.values())
        for part in other.parts.values():
            out.accumulate(-part)
        return out

    def d_total(self) -> "GradedSum":
        """(d1 + d2) of a sum of forms."""
        out = GradedSum(self.kind, self.owner)
        for part in self.parts.values():
            out.accumulate(part.d1())
            out.accumulate(part.d2())
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedSum):
            return NotImplemented
        return (self.kind is other.kind and self.owner is other.owner
                and self.parts == other.parts)

    def __repr__(self):
        return f"GradedSum({self.kind.__name__}, {list(self.parts.values())!r})"


# ---------------------------------------------------------------------------
# The graded-commutator subspace and equality in the abelianization
# ---------------------------------------------------------------------------

def flatten_form(form: NCForm) -> Vector:
    """Flatten to a sparse vector over (degree, tuple[, term]) coordinates."""
    vec: Vector = {}
    for key, coeff in form.values.items():
        if isinstance(coeff, GaussRat):
            vec[(form.degree, key)] = coeff
        else:
            for term_key, c in coeff.terms.items():
                vec[(form.degree, key, term_key)] = c
    return vec


def flatten_sum(forms: Iterable[NCForm]) -> Vector:
    vec: Vector = {}
    for form in forms:
        for coord, value in flatten_form(form).items():
            sparse_put(vec, coord, value)
    return vec


def _delta_generators(groupoid: GroupoidSpec, top: int, poly_bound: int):
    """Delta-form generators of each total degree up to top."""
    model = groupoid.model
    out: Dict[int, list] = {d: [] for d in range(top + 1)}
    for n in range(top + 1):
        tuples = groupoid.nondegenerate_tuples(n)
        if model.kind == "scalar":
            for t in tuples:
                out[n].append((("delta", t, None), NCForm.delta(groupoid, t, GR_ONE)))
        else:
            dim = model.dim
            monos = bounded_monomials(dim, poly_bound)
            form_sets = _form_index_subsets(dim)
            for t in tuples:
                for form in form_sets:
                    m = len(form)
                    if n + m > top:
                        continue
                    for exps in monos:
                        coeff = PolyFormCoeff.monomial(dim, exps, form)
                        label = ("delta", t, (exps, form))
                        out[n + m].append((label, NCForm.delta(groupoid, t, coeff)))
    return out


def bounded_monomials(dim: int, bound: int):
    if dim == 0:
        return [()]
    out = []
    def rec(prefix, remaining):
        if len(prefix) == dim:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)
    rec([], bound)
    return out


def _form_index_subsets(dim: int):
    subsets = [()]
    for i in range(1, dim + 1):
        subsets = subsets + [s + (i,) for s in subsets]
    return sorted(subsets, key=lambda s: (len(s), s))


BlockKey = Tuple[int, str, int, int]


class AbReducer:
    """Row-reduced basis of the graded-commutator span [Omega, Omega].

    Every basis vector is produced from literal commutators of delta-form
    generators, and the certificate of each reduction is an explicit
    combination of those commutators.

    The span is a direct sum of blocks.  A commutator of two delta forms is
    supported on tuples whose composite is x.y or y.x for the composites x
    and y of the two generator tuples, and those two arrows are conjugate;
    its total degree, simplicial degree and (on charts) polynomial degree
    are the sums of the generators' ones, because pullback preserves them
    and the product adds them.  A block is keyed by (total degree,
    conjugacy class of the composite, simplicial degree, polynomial
    degree); the class of a loop is its least conjugate by arrow name, and
    a non-loop is its own class.

    The generator pairs of total degree T and polynomial degree P are
    enumerated the first time a query reaches (T, P), so the query sets how
    far the span goes and no caller chooses a degree; scalar models have
    only P = 0.  Each block is row reduced on its own, the first time a
    query touches it, from its pairs in the (degree, label, label) order.
    Pivots, residues and certificates are therefore those of one reducer
    per total degree holding every commutator of those polynomial degrees,
    while a query pays only for the blocks it meets: traces and Chern forms
    live in the unit-class blocks.
    """

    def __init__(self, groupoid: GroupoidSpec):
        self.groupoid = groupoid
        self._classes: Dict[str, str] = {}
        # block -> [((T, P, index within (T, P)), label1, form1, label2,
        # form2, negate)]
        self.pairs: Dict[BlockKey, list] = {}
        self._indexed: set = set()
        # the blocks built so far, and per block the pivot commutators as
        # label -> ((T, P, index within (T, P)), parts)
        self.blocks: Dict[BlockKey, RowReducer] = {}
        self._commutators: Dict[BlockKey, Dict] = {}

    def _index(self, total: int, poly: int):
        """File every generator pair of total degree `total` whose
        polynomial degrees sum to poly."""
        if (total, poly) in self._indexed:
            return
        self._indexed.add((total, poly))
        g = self.groupoid
        generators = _delta_generators(g, total, poly)
        index = 0
        for d1_ in range(total + 1):
            d2_ = total - d1_
            negate = (d1_ * d2_) % 2 == 0
            for label1, form1 in generators[d1_]:
                x = g.compose_word(label1[1])
                p1 = _poly_degree(label1[2])
                for label2, form2 in generators[d2_]:
                    if d1_ > d2_ or (d1_ == d2_ and label2 < label1):
                        continue
                    if p1 + _poly_degree(label2[2]) != poly:
                        continue
                    y = g.compose_word(label2[1])
                    if g.src[x] == g.tgt[y]:
                        composite = g.mul(x, y)
                    elif g.src[y] == g.tgt[x]:
                        composite = g.mul(y, x)
                    else:
                        continue  # neither product is defined
                    block = (total, self._class(composite),
                             len(label1[1]) + len(label2[1]) - 2, poly)
                    self.pairs.setdefault(block, []).append(
                        ((total, poly, index), label1, form1, label2, form2, negate))
                    index += 1

    def _class(self, arrow: str) -> str:
        cls = self._classes.get(arrow)
        if cls is None:
            g = self.groupoid
            if g.src[arrow] != g.tgt[arrow]:
                cls = arrow
            else:
                cls = min(g.mul(g.mul(h, arrow), g.inv(h))
                          for h in g.source_fiber(g.tgt[arrow]))
            self._classes[arrow] = cls
        return cls

    def block_of(self, coord) -> BlockKey:
        """The block of one flattened coordinate (degree, tuple[, term]):
        its total degree is the simplicial degree plus the term's form
        degree."""
        degree, key = coord[0], coord[1]
        term = coord[2] if len(coord) == 3 else None
        total = degree if term is None else degree + len(term[1])
        return (total, self._class(self.groupoid.compose_word(key)), degree,
                _poly_degree(term))

    def _block(self, block: BlockKey) -> RowReducer:
        reducer = self.blocks.get(block)
        if reducer is None:
            self._index(block[0], block[3])
            reducer = RowReducer()
            commutators = {}
            for index, label1, form1, label2, form2, negate in self.pairs.get(block, ()):
                rhs = form2.convolve(form1)
                comm_parts = [form1.convolve(form2), -rhs if negate else rhs]
                vec = flatten_sum(comm_parts)
                if not vec:
                    continue
                label = ("comm", label1, label2)
                if reducer.insert(vec, label):
                    commutators[label] = (index, comm_parts)
            self.blocks[block] = reducer
            self._commutators[block] = commutators
        return reducer

    def _build_all(self):
        for block in self.pairs:
            self._block(block)

    @property
    def rank(self) -> int:
        """Rank of the span of the (total, polynomial) degrees indexed so
        far (builds each of their blocks)."""
        self._build_all()
        return sum(reducer.rank for reducer in self.blocks.values())

    @property
    def commutators(self) -> Dict:
        """Label -> literal commutator parts of every pivot generator of the
        (total, polynomial) degrees indexed so far, ordered by total degree,
        polynomial degree and then generator order (builds each of their
        blocks)."""
        self._build_all()
        entries = [item for block in self._commutators.values()
                   for item in block.items()]
        entries.sort(key=lambda item: item[1][0])
        return {label: parts for label, (_, parts) in entries}

    def reduce(self, forms) -> Tuple[Vector, Dict]:
        """Split a form (or list of components) into residue + combination."""
        if isinstance(forms, NCForm):
            forms = [forms]
        elif isinstance(forms, GradedSum):
            forms = list(forms.parts.values())
        split: Dict[BlockKey, Vector] = {}
        for coord, value in flatten_sum(forms).items():
            split.setdefault(self.block_of(coord), {})[coord] = value
        residue: Vector = {}
        combo: Dict = {}
        for block, part in split.items():
            block_residue, block_combo = self._block(block).express(part)
            residue.update(block_residue)
            combo.update(block_combo)
        return residue, combo

    def is_zero_in_ab(self, forms):
        """True with an expressing combination, or False with the residue."""
        residue, combo = self.reduce(forms)
        if residue:
            return False, residue
        return True, combo


def _poly_degree(term) -> int:
    """Polynomial degree of a chart term key (exps, form); 0 on scalars."""
    return 0 if term is None else sum(term[0])
