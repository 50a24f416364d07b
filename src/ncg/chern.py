"""Traces of smoothing kernels, heat exponentials, Chern forms, and the
executable verification of the commutator-trace theorem, the closedness of
the Chern form, and the trace property.

The localized trace of an n-slot kernel is an n-form supported on tuples
whose total composite is a unit.  At such a tuple (g0; g1, ..., gn) it
integrates, with partition-function weight, an alternating sum of entry
traces: the leading term splits gn and translates the p-index by the right
piece, the middle terms (present only when g0 is a unit) split an interior
slot, and the final term places g0 in the slot next to the q-index.  All
translated entries land in the endomorphisms of one fiber, where the
(super)trace is taken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List

from .coefficients import GaussRat, mat_mul
from .forms import AbReducer, GradedSum, NCForm
from .groupoid import PartitionFunction
from .kernels import (KernelError, SmoothingKernel, VerificationError,
                      commutator_with_d, kernel_mul, kernel_sum_mul,
                      operator_to_kernel, translate_p)
from .modules import ConnectionData


def fiber_trace(bundle, mat, graded: bool):
    """Trace of a fiber matrix; the supertrace (odd diagonal entries
    negated by the bundle grading) when graded."""
    total = None
    for i in range(bundle.rank):
        c = mat[i][i]
        if graded and bundle.grading[i] < 0:
            c = -c
        total = c if total is None else total + c
    return total


def trace_e(kernel: SmoothingKernel, h: PartitionFunction,
            graded: bool = False) -> NCForm:
    """The localized (super)trace of a verified-linear kernel.

    When an interior slot is split in the middle terms, the right piece
    goes before the left piece in the descending slot list: the reading
    under which the commutator-trace identity holds.
    """
    if not (kernel.equivariant and kernel.cocycle):
        raise KernelError("trace needs a kernel with verified linearity flags")
    bundle = kernel.bundle
    g = bundle.groupoid
    space = bundle.space
    n = kernel.degree
    values: Dict[tuple, object] = {}

    if n == 0:
        for x in g.objects:
            total = None
            for p in space.fiber(x):
                mat = kernel.values.get((p, (), p))
                if mat is None:
                    continue
                weight = GaussRat(h(p) * space.measure[p])
                term = fiber_trace(bundle, mat, graded).scale(weight)
                total = term if total is None else total + term
            if total is not None and not total.is_zero():
                values[(g.unit[x],)] = total
        return NCForm(g, 0, values)

    chains = [t for t in g.composable_tuples(n)
              if all(not g.is_unit(a) for a in t)]
    for chain in chains:
        word = g.compose_word(chain)
        g0 = g.inv(word)
        key = (g0,) + chain
        g0_unit = g.is_unit(g0)
        total = None
        for p in space.fiber(g.tgt[g0]):
            weight = GaussRat(h(p) * space.measure[p])
            acc = None
            if g0_unit:
                # split the last slot; the right piece translates p back
                for gam, gam2 in g.decompositions(chain[-1]):
                    if g.is_unit(gam):
                        continue
                    p0 = space.act(p, g.inv(gam2))
                    desc = (gam,) + tuple(reversed(chain[:-1]))
                    mat = kernel.values.get((p0, desc, p))
                    if mat is None:
                        continue
                    term = fiber_trace(bundle, translate_p(bundle, p0, gam2, mat), graded)
                    acc = term if acc is None else acc + term
                # split an interior slot chain[n-1-i], sign (-1)^i
                p0 = space.act(p, g.inv(chain[-1]))
                base_desc = tuple(reversed(chain[:-1]))
                for i in range(1, n):
                    for gam, gam2 in g.decompositions(chain[n - 1 - i]):
                        if g.is_unit(gam) or g.is_unit(gam2):
                            continue
                        desc = base_desc[:i - 1] + (gam2, gam) + base_desc[i:]
                        mat = kernel.values.get((p0, desc, p))
                        if mat is None:
                            continue
                        term = fiber_trace(
                            bundle, translate_p(bundle, p0, chain[-1], mat), graded)
                        if i % 2:
                            term = -term
                        acc = term if acc is None else acc + term
            # final term: g0 sits in the q-adjacent slot, sign (-1)^n
            if not g0_unit:
                p0 = space.act(p, g.inv(chain[-1]))
                desc = tuple(reversed(chain[:-1])) + (g0,)
                mat = kernel.values.get((p0, desc, p))
                if mat is not None:
                    term = fiber_trace(
                        bundle, translate_p(bundle, p0, chain[-1], mat), graded)
                    if n % 2:
                        term = -term
                    acc = term if acc is None else acc + term
            if acc is not None:
                acc = acc.scale(weight)
                total = acc if total is None else total + acc
        if total is not None and not total.is_zero():
            values[key] = total
    return NCForm(g, n, values)


def trace_sum(kernels: GradedSum, h: PartitionFunction,
              graded: bool = False) -> GradedSum:
    groupoid = kernels.owner.groupoid
    return GradedSum(NCForm, groupoid, [trace_e(part, h, graded)
                                        for part in kernels.parts.values()])


# ---------------------------------------------------------------------------
# Curvature, heat exponential, Chern form
# ---------------------------------------------------------------------------

def curvature_kernels(connection: ConnectionData) -> GradedSum:
    """The square of the interpolated superconnection as verified kernels,
    one homogeneous slot component per simplicial degree."""
    return operator_to_kernel(connection.curvature_operator(), connection.bundle)


def _curvature_series(connection: ConnectionData, max_degree: int,
                      sign: int) -> List[GradedSum]:
    """Term j is sign^j / j! times the j-th curvature power, a sum of
    kernels of total degree 2j, for 2j up to max_degree; the series
    terminates because every curvature component has positive total
    degree."""
    if max_degree < 0:
        raise ValueError(f"max degree must be at least 0, got {max_degree}")
    bundle = connection.bundle
    power = GradedSum(SmoothingKernel, bundle, [SmoothingKernel.delta(bundle)])
    terms = [power]
    if max_degree < 2:
        return terms
    curv = curvature_kernels(connection)
    factorial = 1
    for j in range(1, max_degree // 2 + 1):
        power = kernel_sum_mul(power, curv)
        factorial *= j
        terms.append(power.scale(GaussRat(Fraction(sign ** j, factorial))))
    return terms


def heat_exponential(connection: ConnectionData, max_degree: int) -> List[GradedSum]:
    """Terms of exp(-curvature): term j is (-1)^j / j! times the j-th
    power."""
    return _curvature_series(connection, max_degree, -1)


def chern_form(connection: ConnectionData,
               max_degree: int = 4) -> Dict[int, GradedSum]:
    """Degree-2j components of the supertrace of the heat exponential."""
    terms = heat_exponential(connection, max_degree)
    return {2 * j: trace_sum(term, connection.h, graded=True)
            for j, term in enumerate(terms)}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Verdict:
    """PASS/FAIL with either an expressing certificate or a residue."""

    __slots__ = ("name", "passed", "certificate", "residue")

    def __init__(self, name: str, passed: bool, certificate=None, residue=None):
        self.name = name
        self.passed = passed
        self.certificate = certificate
        self.residue = residue

    def __bool__(self):
        return self.passed

    def payload(self):
        if self.passed:
            return {"verdict": "PASS",
                    "certificate": _combo_payload(self.certificate)}
        return {"verdict": "FAIL", "residue": _residue_payload(self.residue)}

    def __repr__(self):
        return f"Verdict({self.name}: {'PASS' if self.passed else 'FAIL'})"


def _combo_payload(combo):
    if combo is None:
        return []
    return [{"generator": _label_str(label), "coefficient": str(c)}
            for label, c in sorted(combo.items(), key=lambda kv: _label_str(kv[0]))]


def _residue_payload(residue):
    if residue is None:
        return []
    return [{"coordinate": _label_str(coord), "value": str(v)}
            for coord, v in sorted(residue.items(), key=lambda kv: _label_str(kv[0]))]


def _label_str(label):
    if isinstance(label, tuple):
        return "(" + ", ".join(_label_str(x) for x in label) + ")"
    return str(label)


def reduce_in_ab(forms, reducer: AbReducer, name: str) -> Verdict:
    ok, payload = reducer.is_zero_in_ab(forms)
    if ok:
        return Verdict(name, True, certificate=payload)
    return Verdict(name, False, residue=payload)


def verify_theorem(connection: ConnectionData, kernel: SmoothingKernel,
                   reducer: AbReducer, name: str = "theorem") -> Verdict:
    """(d1 + d2) of the trace minus the trace of the superconnection
    commutator, reduced against the graded-commutator span."""
    h = connection.h
    tr = trace_e(kernel, h)
    lhs = GradedSum(NCForm, tr.groupoid, [tr.d1(), tr.d2()])
    commutator = commutator_with_d(connection, kernel)
    rhs = trace_sum(commutator, h)
    return reduce_in_ab(lhs - rhs, reducer, name)


def verify_trace_property(k1: SmoothingKernel, k2: SmoothingKernel,
                          h: PartitionFunction, reducer: AbReducer,
                          name: str = "trace-property") -> Verdict:
    """Trace of k1*k2 minus (-1)^{|k1||k2|} trace of k2*k1 in the quotient."""
    t12 = trace_e(kernel_mul(k1, k2), h)
    t21 = trace_e(kernel_mul(k2, k1), h)
    sign = -1 if (k1.degree * k2.degree) % 2 else 1
    diff = t12 - t21 if sign > 0 else t12 + t21
    return reduce_in_ab(diff, reducer, name)


def verify_closedness(components: Dict[int, GradedSum], reducer: AbReducer,
                      name: Callable[[int], str]) -> List[Verdict]:
    """Per degree: (d1 + d2) of the given component reduces to zero in the
    quotient by graded commutators; name(degree) names the verdict."""
    return [reduce_in_ab(components[degree].d_total(), reducer, name(degree))
            for degree in sorted(components)]


# ---------------------------------------------------------------------------
# The vector-bundle Chern character over the unit space
# ---------------------------------------------------------------------------

def pointwise_trace(kernel: SmoothingKernel) -> NCForm:
    """Close an n-slot unit-space kernel into an n-form: each entry is
    completed to a unit-composite tuple by the inverse of its slot word,
    the fiber loop is closed by the bundle action of that arrow, and the
    matrix trace is taken."""
    bundle = kernel.bundle
    g = bundle.groupoid
    values: Dict[tuple, object] = {}
    for (P, desc, q), mat in kernel.values.items():
        chain = tuple(reversed(desc))
        g0 = g.inv(g.compose_word(chain)) if chain else g.unit[bundle.space.moment[P]]
        closed = mat_mul(bundle.act_matrix(P, g0), mat)
        NCForm.put(values, (g0,) + chain, fiber_trace(bundle, closed, graded=False))
    return NCForm(g, kernel.degree, values)


def chern_vector_bundle(connection: ConnectionData,
                        max_degree: int = 4) -> Dict[int, GradedSum]:
    """Chern character of a connection on a bundle over the unit space.

    The irrational normalization of the exponential is kept as a formal
    parameter: the component of degree 2j is the coefficient of its j-th
    power, the pointwise closing trace of the j-th curvature power divided
    by j!.  Degree 0 is the fiberwise rank on units.  The curvature is that
    of the connection at its own u (u = 1, the plain connection, by
    default).
    """
    bundle = connection.bundle
    space = bundle.space
    if sorted(space.points) != sorted(space.groupoid.objects) or \
            any(space.moment[p] != p for p in space.points):
        raise VerificationError(
            "the vector-bundle Chern character lives over the unit space")
    terms = _curvature_series(connection, max_degree, 1)
    return {2 * j: GradedSum(NCForm, bundle.groupoid,
                             [pointwise_trace(part) for part in term.parts.values()])
            for j, term in enumerate(terms)}
