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
from math import gcd
from typing import Iterable, Mapping, Sequence, Tuple


class CoefficientError(ValueError):
    """Raised on malformed coefficient input or model mismatch."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRat:
    """A Gaussian rational (a + b*i)/d with gcd(a, b, d) = 1 and d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if isinstance(a, Fraction) or isinstance(b, Fraction) or isinstance(d, Fraction):
            fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)
            den = fd.numerator * fa.denominator * fb.denominator
            a = fa.numerator * fb.denominator * fd.denominator
            b = fb.numerator * fa.denominator * fd.denominator
            d = den
        if d == 0:
            raise ZeroDivisionError("zero denominator in GaussRat")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(abs(a), abs(b)), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, value) -> "GaussRat":
        f = Fraction(value)
        return cls(f.numerator, 0, f.denominator)

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
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return GaussRat(self.a * other.d + other.a * self.d,
                        self.b * other.d + other.b * self.d,
                        self.d * other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return GaussRat(self.a * other.d - other.a * self.d,
                        self.b * other.d - other.b * self.d,
                        self.d * other.d)

    def __rsub__(self, other) -> "GaussRat":
        return _coerce(other) - self

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return GaussRat(self.a * other.a - self.b * other.b,
                        self.a * other.b + self.b * other.a,
                        self.d * other.d)

    __rmul__ = __mul__

    def scale(self, scalar) -> "GaussRat":
        return self * _coerce(scalar)

    def inverse(self) -> "GaussRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero GaussRat")
        return GaussRat(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other) -> "GaussRat":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "GaussRat":
        return _coerce(other) * self.inverse()

    def conj(self) -> "GaussRat":
        return GaussRat(self.a, -self.b, self.d)

    # -- duck protocol shared with PolyFormCoeff ----------------------------

    def exterior_d(self) -> "GaussRat":
        return GR_ZERO

    def pullback(self, matrix) -> "GaussRat":
        return self

    def scale_by_form_degree(self, parity: int) -> "GaussRat":
        return self

    def form_degrees(self):
        return {0} if not self.is_zero() else set()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        return (self.a, self.b, self.d)

    def __str__(self) -> str:
        re = Fraction(self.a, self.d)
        if self.b == 0:
            return f"{re.numerator}/{re.denominator}"
        im = Fraction(self.b, self.d)
        return f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}*i"

    def __repr__(self) -> str:
        return f"GaussRat({self})"


def _coerce(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, int):
        return GaussRat(value)
    if isinstance(value, Fraction):
        return GaussRat(value.numerator, 0, value.denominator)
    raise CoefficientError(f"cannot coerce {value!r} to GaussRat")


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# Polynomial differential forms on a chart R^d
# ---------------------------------------------------------------------------

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
                if not coeff.is_zero():
                    key = (exps, form)
                    prev = clean.get(key)
                    coeff = coeff + prev if prev is not None else coeff
                    if coeff.is_zero():
                        clean.pop(key, None)
                    else:
                        clean[key] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFormCoeff is immutable")

    # -- constructors --------------------------------------------------------

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
            acc = terms.get(key, GR_ZERO) + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return PolyFormCoeff(self.dim, terms)

    def __sub__(self, other) -> "PolyFormCoeff":
        return self + (-self._check(other))

    def __neg__(self) -> "PolyFormCoeff":
        return PolyFormCoeff(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "PolyFormCoeff":
        scalar = _coerce(scalar)
        if scalar.is_zero():
            return PolyFormCoeff(self.dim)
        return PolyFormCoeff(self.dim, {k: c * scalar for k, c in self.terms.items()})

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
                exps = tuple(a + b for a, b in zip(e1, e2))
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                key = (exps, form)
                acc = out.get(key, GR_ZERO) + coeff
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return PolyFormCoeff(self.dim, out)

    def __rmul__(self, other) -> "PolyFormCoeff":
        return self._check(other) * self

    def conj(self) -> "PolyFormCoeff":
        return PolyFormCoeff(self.dim, {k: c.conj() for k, c in self.terms.items()})

    def scale_by_form_degree(self, parity: int) -> "PolyFormCoeff":
        """Multiply each homogeneous term of form degree m by (-1)^(m*parity)."""
        if parity % 2 == 0:
            return self
        return PolyFormCoeff(self.dim, {
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
                key = (new_exps, merged)
                acc = out.get(key, GR_ZERO) + c
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return PolyFormCoeff(self.dim, out)

    def pullback(self, matrix: Sequence[Sequence[GaussRat]]) -> "PolyFormCoeff":
        """Substitute x -> M x in the polynomial part and dx -> M^T dx."""
        d = self.dim
        # linear polynomials for each substituted coordinate
        subs = [PolyFormCoeff(d, {
            (tuple(1 if j == t else 0 for t in range(d)), ()): _coerce(matrix[i][j])
            for j in range(d) if not _coerce(matrix[i][j]).is_zero()
        }) for i in range(d)]
        one_forms = [PolyFormCoeff(d, {
            ((0,) * d, (j + 1,)): _coerce(matrix[i][j])
            for j in range(d) if not _coerce(matrix[i][j]).is_zero()
        }) for i in range(d)]
        out = PolyFormCoeff(d)
        for (exps, form), coeff in self.terms.items():
            term = PolyFormCoeff.constant(d, coeff)
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
                return PolyFormCoeff.constant(self.dim, other)
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
            terms[key] = terms.get(key, GR_ZERO) + coeff
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
        if kind == "chart":
            if dim <= 0:
                raise CoefficientError("chart model needs a positive dimension")
            for label, mat in (matrices or {}).items():
                self.matrices[label] = tuple(tuple(_coerce(v) for v in row) for row in mat)

    # -- factories -----------------------------------------------------------

    def zero(self):
        return GR_ZERO if self.kind == "scalar" else PolyFormCoeff(self.dim)

    def one(self):
        return GR_ONE if self.kind == "scalar" else PolyFormCoeff.constant(self.dim, GR_ONE)

    def from_gauss(self, value):
        value = _coerce(value)
        return value if self.kind == "scalar" else PolyFormCoeff.constant(self.dim, value)

    def check_coefficient(self, coeff):
        if self.kind == "scalar":
            if not isinstance(coeff, GaussRat):
                return _coerce(coeff)
            return coeff
        if isinstance(coeff, (int, Fraction, GaussRat)):
            return PolyFormCoeff.constant(self.dim, coeff)
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
        if self.kind == "scalar":
            return coeff
        return coeff.pullback(self.matrix(label))

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
# Small exact-matrix helpers over GaussRat
# ---------------------------------------------------------------------------

def identity_matrix(n: int):
    return tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n))

def _dot(row, vec):
    acc = None
    for a, b in zip(row, vec):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def mat_mul(a, b):
    """Product of rectangular matrices with GaussRat or PolyFormCoeff
    entries (the entries of one product share a model)."""
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


# ---------------------------------------------------------------------------
# Free-function aliases for the coefficient operations
# ---------------------------------------------------------------------------

def coeff_mul(a, b):
    """Product of two coefficients (complex product or graded wedge)."""
    if isinstance(a, GaussRat) != isinstance(b, GaussRat):
        raise CoefficientError("coefficient model mismatch in coeff_mul")
    return a * b

def coeff_conj(a):
    return a.conj()

def coeff_d(a):
    return a.exterior_d()
