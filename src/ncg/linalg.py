"""Exact linear algebra over Gaussian rationals.

Vectors are dicts mapping an orderable key to a nonzero GaussRat; matrices
are sequences of such rows.  Everything is exact; pivots are chosen by key
order so results are deterministic.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .coefficients import GR_ONE, GR_ZERO, GaussRat, sparse_put


Vector = Dict[Hashable, GaussRat]


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
                sparse_put(vec, key, value * scale)

    def _combine(self, steps) -> Dict[Hashable, GaussRat]:
        """The generator combination that the elimination steps subtracted."""
        combo: Dict[Hashable, GaussRat] = {}
        for hit, coeff in steps:
            for label, c in self.pivots[hit][1].items():
                sparse_put(combo, label, coeff * c)
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
        row = {key: value * inv for key, value in residue.items()}
        cert = {label: inv}
        for lab, c in combo.items():
            sparse_put(cert, lab, -c * inv)
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
    for i, row in enumerate(rows):
        if row:
            reducer.insert(row, i)
    # full reduced echelon form: stored rows only lack earlier pivot
    # columns, so eliminate in reverse insertion order
    pivots = {col: dict(row) for col, (row, _) in reducer.pivots.items()}
    for col in reversed(pivots):
        prow = pivots[col]
        for other, row in pivots.items():
            coeff = row.get(col)
            if coeff is not None and other != col:
                for key, value in prow.items():
                    sparse_put(row, key, value * -coeff)
    pivot_rows = sorted(pivots.items(), key=lambda kv: order[kv[0]])
    pivot_cols = set(pivots)
    basis = []
    for free in columns:
        if free in pivot_cols:
            continue
        vec: Vector = {free: GR_ONE}
        for col, row in pivot_rows:
            coeff = row.get(free)
            if coeff is not None:
                vec[col] = -coeff
        basis.append(vec)
    return basis


def _gauss_jordan(work: List[list], ncols: int,
                  swap: bool = True) -> List[Tuple[int, GaussRat]]:
    """Reduce the dense rows of work in place over the first ncols columns
    to reduced row echelon form.  Returns (column, pivot before scaling)
    per pivot, row i holding pivot i.  Without swap, a column whose entry
    in the next pivot row is zero gets no pivot."""
    pivots = []
    for j in range(ncols):
        piv = len(pivots)
        end = len(work) if swap else min(piv + 1, len(work))
        k = next((i for i in range(piv, end) if not work[i][j].is_zero()), None)
        if k is None:
            continue
        work[piv], work[k] = work[k], work[piv]
        pivot = work[piv][j]
        inv = pivot.inverse()
        work[piv] = [v * inv for v in work[piv]]
        for i, row in enumerate(work):
            f = row[j]
            if i != piv and not f.is_zero():
                work[i] = [a - f * b for a, b in zip(row, work[piv])]
        pivots.append((j, pivot))
    return pivots


# ---------------------------------------------------------------------------
# Dense GaussRat matrices (small ranks)
# ---------------------------------------------------------------------------

def mat_inverse(mat: Sequence[Sequence[GaussRat]]):
    n = len(mat)
    work = [list(row) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
            for i, row in enumerate(mat)]
    if len(_gauss_jordan(work, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def is_positive_definite_hermitian(mat: Sequence[Sequence[GaussRat]]) -> bool:
    """Hermitian, and elimination without row swaps meets a positive real
    pivot in every column: the k-th pivot is the ratio of the k-th and
    (k-1)-th leading principal minors, so this is Sylvester's criterion."""
    n = len(mat)
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i].conj():
                return False
    pivots = _gauss_jordan([list(row) for row in mat], n, swap=False)
    return len(pivots) == n and all(p.imag == 0 and p.real > 0 for _, p in pivots)
