"""Independent second transcriptions of the two sign-critical operations.

These are deliberately literal, unoptimized re-implementations used as
oracles against convolution-order or index-convention drift in the primary
code paths: the product is evaluated tuple by tuple over the whole tuple
space with explicit split positions, and the trace is evaluated term by
term from its displayed alternating sum.  They share only the pointwise
steps with the primary code: the fiber (super)trace ``chern.fiber_trace``
and the move of a kernel entry along an arrow ``kernels.translate_p``.
The alternating-sum structure under test, which tuples and splits occur
and with which signs, is written here independently of ``forms`` and
``chern``.
"""

from __future__ import annotations

from typing import Dict

from .coefficients import GaussRat
from .forms import NCForm
from .groupoid import PartitionFunction
from .kernels import SmoothingKernel, translate_p
from .chern import fiber_trace


def convolve_reference(w1: NCForm, w2: NCForm) -> NCForm:
    """Literal alternating-sum product, iterating over every composable
    result tuple and every split of every eligible slot."""
    g = w1.groupoid
    k, l = w1.degree, w2.degree
    chart = g.model.kind == "chart"
    values: Dict[tuple, object] = {}
    for tup in g.composable_tuples(k + l + 1):
        total = None
        for i in range(k + 1):
            pos = k - i
            for gam, gam2 in g.decompositions(tup[pos]):
                split = tup[:pos] + (gam, gam2) + tup[pos + 1:]
                left = w1.values.get(split[:k + 1])
                if left is None:
                    continue
                right = w2.values.get(split[k + 1:])
                if right is None:
                    continue
                if chart:
                    left = g.transport(left, split[k + 1:])
                    left = left.scale_by_form_degree(l)
                term = left * right
                if i % 2:
                    term = -term
                total = term if total is None else total + term
        if total is not None and not total.is_zero():
            values[tup] = total
    return NCForm(g, k + l, values)


def trace_reference(kernel: SmoothingKernel, h: PartitionFunction,
                    graded: bool = False) -> NCForm:
    """Literal transcription of the localized trace: iterate over all
    composable result tuples, gate on the unit composite, and accumulate
    the three displayed term families."""
    bundle = kernel.bundle
    g = bundle.groupoid
    space = bundle.space
    n = kernel.degree
    values: Dict[tuple, object] = {}
    for tup in g.composable_tuples(n + 1):
        word = g.compose_word(tup)
        if not g.is_unit(word):
            continue
        g0, rest = tup[0], tup[1:]
        total = None
        for p in space.fiber(g.tgt[g0]):
            weight = GaussRat(h(p) * space.measure[p])
            bracket = None
            if n == 0:
                mat = kernel.values.get((p, (), p))
                if mat is not None:
                    bracket = fiber_trace(bundle, mat, graded)
            else:
                if g.is_unit(g0):
                    for gam, gam2 in g.decompositions(rest[-1]):
                        p0_key = (space.act(p, g.inv(gam2)),
                                  (gam,) + tuple(reversed(rest[:-1])), p)
                        mat = kernel.values.get(p0_key)
                        if mat is None:
                            continue
                        term = fiber_trace(bundle, translate_p(
                            bundle, p0_key[0], gam2, mat), graded)
                        bracket = term if bracket is None else bracket + term
                    for i in range(1, n):
                        for gam, gam2 in g.decompositions(rest[n - 1 - i]):
                            desc = tuple(reversed(rest[:-1]))
                            desc = desc[:i - 1] + (gam2, gam) + desc[i:]
                            p0 = space.act(p, g.inv(rest[-1]))
                            mat = kernel.values.get((p0, desc, p))
                            if mat is None:
                                continue
                            term = fiber_trace(bundle, translate_p(
                                bundle, p0, rest[-1], mat), graded)
                            if i % 2:
                                term = -term
                            bracket = term if bracket is None else bracket + term
                p0 = space.act(p, g.inv(rest[-1]))
                desc = tuple(reversed(rest[:-1])) + (g0,)
                mat = kernel.values.get((p0, desc, p))
                if mat is not None:
                    term = fiber_trace(
                        bundle, translate_p(bundle, p0, rest[-1], mat), graded)
                    if n % 2:
                        term = -term
                    bracket = term if bracket is None else bracket + term
            if bracket is not None:
                bracket = bracket.scale(weight)
                total = bracket if total is None else total + bracket
        if total is not None and not total.is_zero():
            values[tup] = total
    return NCForm(g, n, values)
