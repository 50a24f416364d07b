"""Exact linear algebra over Gaussian rationals.

Vectors are dicts mapping an orderable key to a nonzero GaussRat; matrices
are sequences of such rows.  Everything is exact; pivots are chosen by key
order so results are deterministic.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .coefficients import GR_ONE, GR_ZERO, GaussRat


Vector = Dict[Hashable, GaussRat]


def vec_add(a: Vector, b: Vector, scale: GaussRat = GR_ONE) -> Vector:
    out = dict(a)
    for key, value in b.items():
        acc = out.get(key, GR_ZERO) + value * scale
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def vec_scale(a: Vector, scale: GaussRat) -> Vector:
    if scale.is_zero():
        return {}
    return {k: v * scale for k, v in a.items()}


class RowReducer:
    """Incremental Gaussian elimination with generator certificates.

    Each inserted vector carries a label; stored pivot rows remember how they
    were produced as exact combinations of the inserted generators, so any
    vector in the span can be expressed back in terms of generator labels.
    """

    def __init__(self):
        self.pivots: Dict[Hashable, Tuple[Vector, Dict[Hashable, GaussRat]]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, vec: Vector):
        """Reduce vec against the stored pivots; returns the residue and the
        (pivot column, coefficient) steps taken, in order."""
        vec = dict(vec)
        steps = []
        pivots = self.pivots
        while True:
            hit = next((col for col in vec if col in pivots), None)
            if hit is None:
                return vec, steps
            coeff = vec[hit]
            steps.append((hit, coeff))
            scale = -coeff
            for key, value in pivots[hit][0].items():
                acc = vec.get(key, GR_ZERO) + value * scale
                if acc.is_zero():
                    vec.pop(key, None)
                else:
                    vec[key] = acc

    def _combine(self, steps) -> Dict[Hashable, GaussRat]:
        """The generator combination that the elimination steps subtracted."""
        combo: Dict[Hashable, GaussRat] = {}
        for hit, coeff in steps:
            for label, c in self.pivots[hit][1].items():
                acc = combo.get(label, GR_ZERO) + coeff * c
                if acc.is_zero():
                    combo.pop(label, None)
                else:
                    combo[label] = acc
        return combo

    def insert(self, vec: Vector, label: Hashable) -> bool:
        """Add a generator; returns True if it enlarged the span.

        A dependent generator is rejected before any certificate work: the
        combination is only assembled for a vector that becomes a pivot.
        """
        residue, steps = self._eliminate(vec)
        if not residue:
            return False
        combo = self._combine(steps)
        col = min(residue, key=repr)  # deterministic across mixed key types
        inv = residue[col].inverse()
        row = vec_scale(residue, inv)
        cert = {label: inv}
        for lab, c in combo.items():
            cert[lab] = cert.get(lab, GR_ZERO) - c * inv
        self.pivots[col] = (row, cert)
        return True

    def express(self, vec: Vector):
        """Split vec into (residue, combination-of-labels); residue empty
        exactly when vec lies in the current span."""
        residue, steps = self._eliminate(vec)
        return residue, self._combine(steps)


def nullspace(rows: Iterable[Vector], columns: Sequence[Hashable]) -> List[Vector]:
    """Basis of the solution space of (rows) . x = 0 over the given columns."""
    order = {col: i for i, col in enumerate(columns)}
    reducer = RowReducer()
    inserted: List[Hashable] = []
    for i, row in enumerate(rows):
        if row and reducer.insert(row, i):
            new_cols = set(reducer.pivots) - set(inserted)
            inserted.extend(new_cols)
    # full reduced echelon form: stored rows only lack earlier pivot
    # columns, so eliminate in reverse insertion order
    pivots = {col: dict(row) for col, (row, _) in reducer.pivots.items()}
    for col in reversed(inserted):
        prow = pivots[col]
        for other, row in pivots.items():
            if other == col:
                continue
            coeff = row.get(col)
            if coeff is not None and not coeff.is_zero():
                pivots[other] = vec_add(row, prow, -coeff)
    pivot_rows = sorted(pivots.items(), key=lambda kv: order[kv[0]])
    pivot_cols = set(pivots)
    basis = []
    for free in columns:
        if free in pivot_cols:
            continue
        vec: Vector = {free: GR_ONE}
        for col, row in pivot_rows:
            coeff = row.get(free)
            if coeff is not None and not coeff.is_zero():
                vec[col] = -coeff
        basis.append(vec)
    return basis


def solve(rows: Sequence[Vector], rhs: Sequence[GaussRat], columns: Sequence[Hashable]):
    """One exact solution of rows . x = rhs, or None if inconsistent.

    Dense Gauss-Jordan; the systems solved this way (partition functions,
    small adjunctions) have at most a few dozen columns.
    """
    cols = list(columns)
    dense = [[row.get(c, GR_ZERO) for c in cols] + [rhs[i]] for i, row in enumerate(rows)]
    m, n = len(dense), len(cols)
    piv = 0
    where = []
    for j in range(n):
        k = next((i for i in range(piv, m) if not dense[i][j].is_zero()), None)
        if k is None:
            continue
        dense[piv], dense[k] = dense[k], dense[piv]
        inv = dense[piv][j].inverse()
        dense[piv] = [v * inv for v in dense[piv]]
        for i in range(m):
            if i != piv and not dense[i][j].is_zero():
                f = dense[i][j]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[piv])]
        where.append(j)
        piv += 1
    for i in range(piv, m):
        if not dense[i][n].is_zero():
            return None
    sol = {c: GR_ZERO for c in cols}
    for r, j in enumerate(where):
        sol[cols[j]] = dense[r][n]
    return sol


# ---------------------------------------------------------------------------
# Dense GaussRat matrices (small ranks)
# ---------------------------------------------------------------------------

def mat_inverse(mat: Sequence[Sequence[GaussRat]]):
    n = len(mat)
    work = [list(row) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def determinant(mat: Sequence[Sequence[GaussRat]]) -> GaussRat:
    n = len(mat)
    work = [list(row) for row in mat]
    det = GR_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            return GR_ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for r in range(col + 1, n):
            if not work[r][col].is_zero():
                f = work[r][col] * inv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def is_positive_definite_hermitian(mat: Sequence[Sequence[GaussRat]]) -> bool:
    """Hermitian check plus positivity of all leading principal minors."""
    n = len(mat)
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i].conj():
                return False
    for k in range(1, n + 1):
        minor = determinant([row[:k] for row in mat[:k]])
        if minor.imag != 0 or minor.real <= 0:
            return False
    return True
