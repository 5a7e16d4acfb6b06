"""Exact linear algebra over the integers and rationals.

Everything here is either fraction-free integer arithmetic or exact
``fractions.Fraction`` arithmetic.  No floating point appears anywhere, so
signature and solvability decisions are bit-exact; the classifier branches
on them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

__all__ = [
    "Inertia",
    "determinant",
    "inertia",
    "nullspace",
    "rank",
    "rref",
    "solve_rational",
]

Matrix = Sequence[Sequence[int]]


class Inertia(NamedTuple):
    """Signature of a symmetric form: positive, zero and negative counts."""

    b_plus: int
    b_zero: int
    b_minus: int


def _rows(m: Matrix) -> list[list]:
    rows = [list(r) for r in m]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def _square_rows(m: Matrix) -> list[list[int]]:
    """Copy a square matrix for Bareiss, whose floor division would truncate non-integers."""
    rows = _rows(m)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    if not all(isinstance(x, int) for r in rows for x in r):
        raise ValueError("expected a matrix of integers")
    return rows


def determinant(m: Matrix) -> int:
    """Exact determinant of an integer matrix, by Bareiss elimination.

    Fraction-free: every division performed is exact, so all intermediate
    values stay integers of moderate size.  Entries must be integers;
    anything else raises ``ValueError``.
    """
    a = _square_rows(m)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if a[j][i] != 0), None)
            if pivot is None:
                return 0
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        _bareiss_step(a, i, n, prev)
        prev = a[i][i]
    return sign * a[-1][-1]


def _bareiss_step(a: list[list[int]], i: int, n: int, prev: int) -> None:
    """Pivot on a[i][i]; the trailing entries become minors, so dividing by ``prev`` is exact."""
    p = a[i][i]
    row_i = a[i]
    for j in range(i + 1, n):
        f = a[j][i]
        row_j = a[j]
        for l in range(i + 1, n):
            row_j[l] = (p * row_j[l] - f * row_i[l]) // prev


def _fix_zero_pivot(a: list[list], i: int, n: int) -> bool:
    """Make a[i][i] nonzero by a congruence, or report the residual row zero."""
    j = next((j for j in range(i + 1, n) if a[j][i] != 0), None)
    if j is None:
        return False
    if a[j][j] != 0:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
    else:
        # a[i][i] = a[j][j] = 0 but a[i][j] != 0: adding the j-th row and
        # column makes the pivot 2*a[i][j] != 0 (valid in characteristic 0).
        for l in range(n):
            a[i][l] += a[j][l]
        for l in range(n):
            a[l][i] += a[l][j]
    return True


def inertia(m: Matrix) -> Inertia:
    """Exact signature triple of a symmetric integer matrix.

    Symmetric fraction-free (Bareiss) elimination.  The pivot ``d_i`` of step
    ``i`` is the leading principal minor of order ``i + 1`` of a matrix
    congruent to the input, and by Jacobi's rule the ``i``-th entry of a
    congruent diagonal form is ``d_i / d_{i-1}`` (with ``d_{-1} = 1``), so its
    sign is that of ``d_i * d_{i-1}``; Sylvester's law makes the counts the
    inertia.  A zero pivot is repaired by swapping in, or adding, another
    row/column pair (valid in characteristic zero); a residual row that is
    entirely zero counts towards ``b_zero`` and leaves ``d_{i-1}`` unchanged.
    The repairs are unimodular congruences on the trailing indices, so every
    trailing entry is a minor of an integer matrix and each division is
    exact.  Entries must be integers; anything else raises ``ValueError``.
    """
    a = _square_rows(m)
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0 and not _fix_zero_pivot(a, i, n):
            continue
        if (a[i][i] > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        _bareiss_step(a, i, n, prev)
        prev = a[i][i]
    return Inertia(pos, n - pos - neg, neg)


def rank(m: Matrix) -> int:
    """Rank over the rationals, by fraction-free row echelon reduction.

    Accepts integer or Fraction entries.
    """
    a = _rows(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot = next((j for j in range(r, nrows) if a[j][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for j in range(r + 1, nrows):
            f = a[j][c]
            if f != 0:
                a[j] = [p * x - f * y for x, y in zip(a[j], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((j for j in range(r, nrows) if rows[j][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for j in range(nrows):
            if j != r and rows[j][c] != 0:
                f = rows[j][c]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve_rational(m: Matrix, a: Sequence) -> tuple[Fraction, ...] | None:
    """One exact rational solution of ``m z = a``, or ``None``.

    Returns an arbitrary witness with free variables set to zero; returns
    ``None`` exactly when ``a`` lies outside the column space of ``m``.
    """
    rows = _rows(m)
    if len(a) != len(rows):
        raise ValueError("dimension mismatch between matrix and vector")
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, a)]
    aug, pivots = rref(aug)
    if ncols in pivots:
        return None  # a pivot in the constants column: inconsistent
    z = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        z[c] = aug[r][-1]
    return tuple(z)


def nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    """A basis of the rational kernel of ``m`` (one tuple per basis vector)."""
    rows = _rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [[Fraction(x) for x in row] for row in rows]
    work, pivots = rref(work)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][c]
        basis.append(tuple(v))
    return basis
