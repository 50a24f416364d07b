"""Exact coefficient algebras.

Two coefficient models back the whole engine:

* the scalar model, whose coefficients are Gaussian rationals (complex
  numbers with rational real and imaginary parts), and
* the chart model, whose coefficients are polynomial differential forms
  on R^d with Gaussian-rational coefficients, together with a finite
  group of invertible rational matrices acting on the chart.

Every value is kept in a canonical form (reduced fractions, positive
denominators, sorted terms, no zero terms), so equality is structural
and exact.  No floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, neg
from typing import Iterable, Mapping, Sequence, Tuple


class CoefficientError(ValueError):
    """Raised on malformed coefficient input or model mismatch."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRat:
    """A Gaussian rational (a + b*i)/d with gcd(a, b, d) = 1 and d > 0.

    The constructor validates and reduces its arguments; results of the
    arithmetic below are built by `_make` and `_raw`, which skip that
    validation because their parts are already exact ints.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if type(a) is not int or type(b) is not int or type(d) is not int:
            (a, da), (b, db), (d, dd) = _ratio(a), _ratio(b), _ratio(d)
            a, b, d = a * db * dd, b * da * dd, d * da * db
        if d != 1:
            if d == 0:
                raise ZeroDivisionError("zero denominator in GaussRat")
            if d < 0:
                a, b, d = -a, -b, -d
            g = gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GaussRat":
        """Parse 'a/b' or 'a/b+c/d*i' (signs on numerators only)."""
        s = text.strip().replace(" ", "")
        if not s:
            raise CoefficientError("empty coefficient string")
        m = re.fullmatch(r"(?P<re>[+-]?\d+(?:/\d+)?)?"
                         r"(?:(?P<sep>[+]?)(?P<im>[+-]?\d+(?:/\d+)?)\*?i)?", s)
        if not m or (m.group("re") is None and m.group("im") is None):
            raise CoefficientError(f"cannot parse Gaussian rational {text!r}")
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_part = Fraction(m.group("im")) if m.group("im") else Fraction(0)
        return cls(re_part, im_part)

    # -- views -------------------------------------------------------------

    @property
    def real(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a + other.a, self.b + other.b, d1)
        return _make(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a - other.a, self.b - other.b, d1)
        return _make(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other) -> "GaussRat":
        return _coerce(other) - self

    def __neg__(self) -> "GaussRat":
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def scale(self, scalar) -> "GaussRat":
        return self * (scalar if type(scalar) is GaussRat else _coerce(scalar))

    def inverse(self) -> "GaussRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero GaussRat")
        return _make(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other) -> "GaussRat":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "GaussRat":
        return _coerce(other) * self.inverse()

    def conj(self) -> "GaussRat":
        return _raw(self.a, -self.b, self.d)

    # -- duck protocol shared with PolyFormCoeff ----------------------------

    def exterior_d(self) -> "GaussRat":
        return GR_ZERO

    def scale_by_form_degree(self, parity: int) -> "GaussRat":
        return self

    def form_degrees(self):
        return {0} if not self.is_zero() else set()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        re = Fraction(self.a, self.d)
        if self.b == 0:
            return f"{re.numerator}/{re.denominator}"
        im = Fraction(self.b, self.d)
        return f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}*i"

    def __repr__(self) -> str:
        return f"GaussRat({self})"


# The slot descriptors write the parts directly, past the immutability guard.
_set_a = GaussRat.a.__set__
_set_b = GaussRat.b.__set__
_set_d = GaussRat.d.__set__


def _raw(a: int, b: int, d: int) -> GaussRat:
    """A GaussRat from parts already in canonical form."""
    value = object.__new__(GaussRat)
    _set_a(value, a)
    _set_b(value, b)
    _set_d(value, d)
    return value


def _make(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d reduced to canonical form, from ints with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


def _ratio(value):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"GaussRat parts must be int or Fraction, not {type(value).__name__}")


def _coerce(value) -> GaussRat:
    if type(value) is GaussRat:
        return value
    if isinstance(value, int):
        return _raw(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator)
    raise CoefficientError(f"cannot coerce {value!r} to GaussRat")


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# Polynomial differential forms on a chart R^d
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _wedge_sign(left: Tuple[int, ...], right: Tuple[int, ...]):
    """Sign of merging two strictly increasing index tuples, None if they meet."""
    if set(left) & set(right):
        return None, ()
    merged = sorted(left + right)
    # count inversions moving right-indices past larger left-indices
    sign = 1
    for r in right:
        passed = sum(1 for l in left if l > r)
        if passed % 2:
            sign = -sign
    return sign, tuple(merged)


class PolyFormCoeff:
    """A polynomial differential form on R^d with GaussRat coefficients.

    Terms map (monomial exponents, strictly increasing form indices) to a
    nonzero GaussRat.  Form indices are 1-based, as in dx1, dx2, ...

    The constructor validates every term; results of the operations below
    are wrapped by `_trusted`, because their keys come from operands that
    were already validated and their zero terms are already dropped.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, GaussRat] | None = None):
        clean = {}
        if terms:
            for (exps, form), coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                form = tuple(int(i) for i in form)
                if len(exps) != dim:
                    raise CoefficientError(f"exponent vector {exps} has wrong length for dim {dim}")
                if any(e < 0 for e in exps):
                    raise CoefficientError(f"negative exponent in {exps}")
                if list(form) != sorted(set(form)):
                    raise CoefficientError(f"form indices {form} not strictly increasing")
                if form and (form[0] < 1 or form[-1] > dim):
                    raise CoefficientError(f"form index out of range in {form}")
                if not isinstance(coeff, GaussRat):
                    coeff = _coerce(coeff)
                if coeff:
                    sparse_put(clean, (exps, form), coeff)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFormCoeff is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "PolyFormCoeff":
        """Wrap canonical terms (valid keys, nonzero GaussRat values) as is."""
        value = object.__new__(cls)
        _set_dim(value, dim)
        _set_terms(value, terms)
        return value

    @classmethod
    def constant(cls, dim: int, value) -> "PolyFormCoeff":
        value = _coerce(value)
        return cls(dim, {((0,) * dim, ()): value})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], form: Sequence[int] = (),
                 coeff=GR_ONE) -> "PolyFormCoeff":
        return cls(dim, {(tuple(exps), tuple(form)): _coerce(coeff)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def form_degrees(self):
        return {len(form) for (_, form) in self.terms}

    def poly_degree(self) -> int:
        return max((sum(exps) for (exps, _) in self.terms), default=0)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other) -> "PolyFormCoeff":
        other = self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            sparse_put(terms, key, coeff)
        return PolyFormCoeff._trusted(self.dim, terms)

    def __sub__(self, other) -> "PolyFormCoeff":
        return self + (-self._check(other))

    def __neg__(self) -> "PolyFormCoeff":
        return PolyFormCoeff._trusted(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "PolyFormCoeff":
        scalar = _coerce(scalar)
        if scalar.is_zero():
            return PolyFormCoeff._trusted(self.dim, {})
        return PolyFormCoeff._trusted(self.dim, {k: c * scalar for k, c in self.terms.items()})

    # -- graded product ------------------------------------------------------

    def __mul__(self, other) -> "PolyFormCoeff":
        """Wedge product; graded sign comes from merging the form indices."""
        other = self._check(other)
        out: dict = {}
        for (e1, f1), c1 in self.terms.items():
            for (e2, f2), c2 in other.terms.items():
                sign, form = _wedge_sign(f1, f2)
                if sign is None:
                    continue
                coeff = c1 * c2
                sparse_put(out, (tuple(map(add, e1, e2)), form),
                           coeff if sign > 0 else -coeff)
        return PolyFormCoeff._trusted(self.dim, out)

    def __rmul__(self, other) -> "PolyFormCoeff":
        return self._check(other) * self

    def conj(self) -> "PolyFormCoeff":
        return PolyFormCoeff._trusted(self.dim, {k: c.conj() for k, c in self.terms.items()})

    def scale_by_form_degree(self, parity: int) -> "PolyFormCoeff":
        """Multiply each homogeneous term of form degree m by (-1)^(m*parity)."""
        if parity % 2 == 0:
            return self
        return PolyFormCoeff._trusted(self.dim, {
            (exps, form): (-c if len(form) % 2 else c)
            for (exps, form), c in self.terms.items()
        })

    # -- calculus ------------------------------------------------------------

    def exterior_d(self) -> "PolyFormCoeff":
        out: dict = {}
        for (exps, form), coeff in self.terms.items():
            for i in range(1, self.dim + 1):
                e = exps[i - 1]
                if e == 0 or i in form:
                    continue
                sign, merged = _wedge_sign((i,), form)
                new_exps = exps[:i - 1] + (e - 1,) + exps[i:]
                c = coeff * e
                if sign < 0:
                    c = -c
                sparse_put(out, (new_exps, merged), c)
        return PolyFormCoeff._trusted(self.dim, out)

    def pullback(self, matrix: Sequence[Sequence[GaussRat]]) -> "PolyFormCoeff":
        """Substitute x -> M x in the polynomial part and dx -> M^T dx."""
        d = self.dim
        matrix = [[_coerce(v) for v in row] for row in matrix]
        # linear polynomials for each substituted coordinate
        subs = [PolyFormCoeff._trusted(d, {
            (tuple(1 if j == t else 0 for t in range(d)), ()): matrix[i][j]
            for j in range(d) if matrix[i][j]
        }) for i in range(d)]
        one_forms = [PolyFormCoeff._trusted(d, {
            ((0,) * d, (j + 1,)): matrix[i][j]
            for j in range(d) if matrix[i][j]
        }) for i in range(d)]
        out = PolyFormCoeff._trusted(d, {})
        for (exps, form), coeff in self.terms.items():
            term = _const(d, coeff)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * subs[i]
            for i in form:
                term = term * one_forms[i - 1]
            out = out + term
        return out

    # -- comparison / encoding -------------------------------------------------

    def _check(self, other) -> "PolyFormCoeff":
        if not isinstance(other, PolyFormCoeff):
            if isinstance(other, (int, Fraction, GaussRat)):
                return _const(self.dim, other)
            raise CoefficientError(f"cannot combine PolyFormCoeff with {other!r}")
        if other.dim != self.dim:
            raise CoefficientError("chart dimension mismatch")
        return other

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFormCoeff):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items(),
                                            key=lambda kv: kv[0]))))

    def to_records(self) -> list:
        return [{"exps": list(exps), "form": list(form), "coeff": str(c)}
                for (exps, form), c in sorted(self.terms.items())]

    @classmethod
    def from_records(cls, dim: int, records: Iterable[Mapping]) -> "PolyFormCoeff":
        terms = {}
        for rec in records:
            key = (tuple(rec["exps"]), tuple(rec.get("form", ())))
            coeff = GaussRat.parse(rec["coeff"]) if isinstance(rec["coeff"], str) \
                else _coerce(rec["coeff"])
            if coeff:
                sparse_put(terms, key, coeff)
        return cls(dim, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (exps, form), coeff in sorted(self.terms.items()):
            mono = "".join(f"x{i+1}^{e}" if e > 1 else (f"x{i+1}" if e == 1 else "")
                           for i, e in enumerate(exps))
            dxs = "^".join(f"dx{i}" for i in form)
            body = "*".join(p for p in (mono, dxs) if p)
            bits.append(f"({coeff})" + (f"*{body}" if body else ""))
        return " + ".join(bits)

    __repr__ = __str__


_set_dim = PolyFormCoeff.dim.__set__
_set_terms = PolyFormCoeff.terms.__set__


def _const(dim: int, value) -> PolyFormCoeff:
    """The constant form of value, built trusted: its one key is canonical."""
    value = _coerce(value)
    return PolyFormCoeff._trusted(dim, {((0,) * dim, ()): value} if value else {})


def sparse_put(store: dict, key, value):
    """Add value into store[key]; a key whose sum is zero is dropped.

    The one accumulate rule for sparse maps of coefficients: chart
    coefficient terms, row-reduction vectors and certificates, flattened
    forms, sampler coordinates and form entries read from a file.  Such a
    map never holds a zero.  value must be nonzero, because it is stored
    as is when key is new.
    """
    prev = store.get(key)
    if prev is None:
        store[key] = value
        return
    value = prev + value
    if value:
        store[key] = value
    else:
        del store[key]


# ---------------------------------------------------------------------------
# Coefficient model: scalar backend vs chart backend
# ---------------------------------------------------------------------------

class CoefficientModel:
    """Selects the coefficient algebra and, for charts, the group action.

    For the chart variant, ``matrices`` maps a group-element label to an
    invertible d x d GaussRat matrix, and the assignment is a group
    homomorphism checked by ``validate_representation``.  The right action
    of an element g on chart points is x -> M_g^{-1} x, so transporting a
    coefficient along g is the substitution x -> M_g x.
    """

    def __init__(self, kind: str = "scalar", dim: int = 0,
                 matrices: Mapping[str, Sequence[Sequence[GaussRat]]] | None = None):
        if kind not in ("scalar", "chart"):
            raise CoefficientError(f"unknown coefficient model kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.matrices = {}
        # label -> {monomial key: terms of its pullback}, None for identity
        self._images = {}
        if kind == "chart":
            if dim <= 0:
                raise CoefficientError("chart model needs a positive dimension")
            for label, mat in (matrices or {}).items():
                self.matrices[label] = tuple(tuple(_coerce(v) for v in row) for row in mat)

    # -- factories -----------------------------------------------------------

    def zero(self):
        return GR_ZERO if self.kind == "scalar" else _const(self.dim, GR_ZERO)

    def one(self):
        return GR_ONE if self.kind == "scalar" else _const(self.dim, GR_ONE)

    def from_gauss(self, value):
        value = _coerce(value)
        return value if self.kind == "scalar" else _const(self.dim, value)

    def check_coefficient(self, coeff):
        if self.kind == "scalar":
            if not isinstance(coeff, GaussRat):
                return _coerce(coeff)
            return coeff
        if isinstance(coeff, (int, Fraction, GaussRat)):
            return _const(self.dim, coeff)
        if not isinstance(coeff, PolyFormCoeff) or coeff.dim != self.dim:
            raise CoefficientError("coefficient does not match chart model")
        return coeff

    # -- group action ---------------------------------------------------------

    def matrix(self, label: str):
        try:
            return self.matrices[label]
        except KeyError:
            raise CoefficientError(f"unknown group element {label!r} in chart model")

    def pullback(self, coeff, label: str):
        """Transport coeff along label, as coeff.pullback(matrix(label)).

        The image of each monomial is computed once per label and kept; a
        label whose matrix is the identity returns coeff itself.
        """
        if self.kind == "scalar":
            return coeff
        if label not in self._images:
            identity = self.matrix(label) == identity_matrix(self.dim)
            self._images[label] = None if identity else {}
        images = self._images[label]
        if images is None:
            return coeff
        out: dict = {}
        for key, c in coeff.terms.items():
            image = images.get(key)
            if image is None:
                monomial = PolyFormCoeff._trusted(self.dim, {key: GR_ONE})
                image = images[key] = monomial.pullback(self.matrices[label]).terms
            for k, v in image.items():
                sparse_put(out, k, c * v)
        return PolyFormCoeff._trusted(self.dim, out)

    def validate_representation(self, multiply, unit_label: str) -> list:
        """Check M_g M_h = M_{gh} and M_e = 1; returns a list of violations."""
        if self.kind == "scalar":
            return []
        problems = []
        ident = identity_matrix(self.dim)
        if self.matrices.get(unit_label) != ident:
            problems.append(f"unit element {unit_label!r} does not map to the identity matrix")
        labels = list(self.matrices)
        for g in labels:
            for h in labels:
                gh = multiply(g, h)
                if gh is None:
                    continue
                if mat_mul(self.matrices[g], self.matrices[h]) != self.matrices.get(gh):
                    problems.append(f"matrix product for ({g!r}, {h!r}) != matrix of {gh!r}")
        return problems

    def __eq__(self, other):
        if not isinstance(other, CoefficientModel):
            return NotImplemented
        return (self.kind, self.dim, self.matrices) == (other.kind, other.dim, other.matrices)

    def __repr__(self):
        if self.kind == "scalar":
            return "CoefficientModel(scalar)"
        return f"CoefficientModel(chart, dim={self.dim})"


SCALAR_MODEL = CoefficientModel("scalar")


# ---------------------------------------------------------------------------
# Small exact-matrix helpers: fiber vectors and matrices
# ---------------------------------------------------------------------------
#
# A fiber vector is a tuple of coefficients (GaussRat or PolyFormCoeff); a
# matrix is a tuple of such rows.  Each matrix helper is its vector helper
# mapped over the rows.

def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_neg(u):
    return tuple(map(neg, u))


def vec_scale(u, scalar):
    """Multiply every entry by a Gaussian-rational scalar."""
    return tuple(c.scale(scalar) for c in u)


def vec_is_zero(u) -> bool:
    return not any(u)


def vec_twist(u, parity: int):
    """Each entry's terms of form degree m times (-1)^(m*parity)."""
    if parity % 2 == 0:
        return u
    return tuple(c.scale_by_form_degree(1) for c in u)


def vec_transport(groupoid, u, word):
    """Re-express every entry in the chart at the far end of word."""
    if groupoid.model.kind == "scalar" or not word:
        return u
    return tuple(groupoid.transport(c, word) for c in u)


def mat_add(a, b):
    return tuple(map(vec_add, a, b))


def mat_neg(m):
    return tuple(map(vec_neg, m))


def mat_scale(m, scalar):
    return tuple(vec_scale(row, scalar) for row in m)


def mat_is_zero(m) -> bool:
    return all(map(vec_is_zero, m))


def mat_twist(m, parity: int):
    if parity % 2 == 0:
        return m
    return tuple(vec_twist(row, 1) for row in m)


def mat_transport(groupoid, m, word):
    if groupoid.model.kind == "scalar" or not word:
        return m
    return tuple(vec_transport(groupoid, row, word) for row in m)


def identity_matrix(n: int, model: CoefficientModel = SCALAR_MODEL):
    one, zero = model.one(), model.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zero_matrix(n: int, model: CoefficientModel = SCALAR_MODEL):
    return ((model.zero(),) * n,) * n


def _dot(row, vec):
    acc = None
    for a, b in zip(row, vec):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def mat_vec(m, v):
    """Matrix times column vector; the entries may mix GaussRat and
    PolyFormCoeff (a GaussRat action matrix against chart coefficients)."""
    return tuple(_dot(row, v) for row in m)


def mat_mul(a, b):
    """Product of rectangular matrices, entries mixed as in ``mat_vec``."""
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)
