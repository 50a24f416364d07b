import random
from fractions import Fraction

import pytest

from ncg.coefficients import GaussRat, GR_ONE, GR_ZERO, sparse_put
from ncg.linalg import (RowReducer, is_positive_definite_hermitian,
                        mat_inverse, nullspace)


def determinant(mat):
    """Laplace expansion along the first row: an oracle independent of the
    elimination in ncg.linalg."""
    if not mat:
        return GR_ONE
    total = GR_ZERO
    for j, a in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = a * determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def sylvester(mat):
    """Hermitian with every leading principal minor a positive real."""
    n = len(mat)
    if any(mat[i][j] != mat[j][i].conj() for i in range(n) for j in range(n)):
        return False
    for k in range(1, n + 1):
        minor = determinant([list(row[:k]) for row in mat[:k]])
        if minor.imag != 0 or minor.real <= 0:
            return False
    return True


def negated(vec):
    return {key: -value for key, value in vec.items()}


def zero_free(vec) -> bool:
    return all(value for value in vec.values())


def random_system(rng, max_rows=6, max_cols=7, density=0.6):
    n_rows = rng.randint(1, max_rows)
    n_cols = rng.randint(1, max_cols)
    cols = list(range(n_cols))
    rows = []
    for _ in range(n_rows):
        row = {}
        for c in cols:
            if rng.random() < density:
                v = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
                if not v.is_zero():
                    row[c] = v
        rows.append(row)
    return rows, cols


def test_nullspace_kernel_property():
    rng = random.Random(3)
    for _ in range(150):
        rows, cols = random_system(rng)
        rows.append(negated(rows[0]))  # cancels against the first row
        basis = nullspace(rows, cols)
        assert all(map(zero_free, basis))
        for vec in basis:
            for row in rows:
                acc = GR_ZERO
                for c, v in row.items():
                    acc = acc + v * vec.get(c, GR_ZERO)
                assert acc.is_zero()
        reducer = RowReducer()
        for i, row in enumerate(rows):
            if row:
                reducer.insert(row, i)
        assert len(basis) == len(cols) - reducer.rank


def test_row_reducer_certificates():
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = random_system(rng, max_rows=5, max_cols=5)
        reducer = RowReducer()
        originals = {}
        for i, row in enumerate(rows):
            if row:
                originals[i] = row
                reducer.insert(row, i)
                # -row lies in the span: it cancels to an empty residue
                assert not reducer.insert(negated(row), ("neg", i))
        for row, cert in reducer.pivots.values():
            assert zero_free(row) and zero_free(cert)
        # random combination of inserted rows must reduce with a certificate
        target = {}
        for i, row in originals.items():
            c = GaussRat(rng.randint(-2, 2))
            if c:
                for key, value in row.items():
                    sparse_put(target, key, value * c)
        residue, combo = reducer.express(target)
        assert not residue and zero_free(combo)
        replay = {}
        for label, c in combo.items():
            for key, value in originals[label].items():
                sparse_put(replay, key, value * c)
        assert replay == target


def test_row_reducer_certificate_drops_a_cancelled_label():
    a, b, c = GaussRat(1), GaussRat(2), GaussRat(0, 1)
    reducer = RowReducer()
    assert reducer.insert({0: a}, "A")
    assert reducer.insert({0: a, 1: b}, "B")  # pivot 1 holds (B - A) / 2
    # eliminating {0: 1, 1: 2} subtracts A, then B - A: A cancels
    residue, combo = reducer.express({0: a, 1: b})
    assert residue == {} and combo == {"B": GR_ONE}
    assert reducer.insert({0: a, 1: b, 2: c}, "C")
    assert reducer.pivots[2][1] == {"C": c.inverse(), "B": -c.inverse()}


def test_matrix_inverse_and_determinant():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 4)
        mat = [[GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
                for _ in range(n)] for _ in range(n)]
        if determinant(mat).is_zero():
            with pytest.raises(ZeroDivisionError):
                mat_inverse(mat)
            continue
        inv = mat_inverse(mat)
        prod = [[sum((mat[i][t] * inv[t][j] for t in range(n)), GR_ZERO)
                 for j in range(n)] for i in range(n)]
        expected = [[GR_ONE if i == j else GR_ZERO for j in range(n)]
                    for i in range(n)]
        assert prod == expected


def test_positive_definite_check():
    assert is_positive_definite_hermitian(((GR_ONE, GR_ZERO),
                                           (GR_ZERO, GR_ONE)))
    two = GaussRat(2)
    i_half = GaussRat(0, 1, 2)
    hermitian = ((two, i_half), (i_half.conj(), GR_ONE))
    assert is_positive_definite_hermitian(hermitian)
    assert not is_positive_definite_hermitian(((GaussRat(-1),),))
    assert not is_positive_definite_hermitian(((GR_ONE, GR_ONE),
                                               (GR_ZERO, GR_ONE)))


def test_positive_definite_check_matches_sylvester():
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        mat = [[None] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = GaussRat(rng.randint(-1, 4))
            for j in range(i + 1, n):
                mat[i][j] = GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
                mat[j][i] = mat[i][j].conj()
        if rng.random() < 0.1:
            mat[0][-1] = mat[0][-1] + GR_ONE  # break the symmetry
        expected = sylvester(mat)
        assert is_positive_definite_hermitian(mat) == expected
        seen[expected] += 1
    assert min(seen.values()) > 20
