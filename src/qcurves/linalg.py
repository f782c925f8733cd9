"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; everything is immutable and pure.
Sizes in this package are tiny (block matrices over small Galois groups), so
plain Gaussian elimination with exact pivoting is the right tool.

Descent data travel as ``ScaledMatrix``: integer rows over one positive
common denominator, in lowest terms, so two rational matrices are equal
exactly when their scaled forms are.  On that form invertibility and the
compatibility identity are decided in plain ints, with no Fraction built:
``determinant`` is Bareiss's fraction-free elimination (E. Bareiss,
*Math. Comp.* 22, 1968), whose divisions are all exact and whose
intermediates are minors of the input, and ``composes`` tests a b = c by
cross-multiplying the denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n: int, m: int) -> Matrix:
    return tuple((_ZERO,) * m for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def solve(a: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution of A x = b, or None when inconsistent."""
    if not a:
        return () if all(Fraction(x) == 0 for x in b) else None
    m = len(a[0])
    augmented = tuple(row + (Fraction(bv),) for row, bv in zip(a, b))
    reduced, pivots = rref(augmented)
    if m in pivots:
        return None
    x = [_ZERO] * m
    for i, p in enumerate(pivots):
        x[p] = reduced[i][m]
    return tuple(x)


# -- integer rows over one common denominator ---------------------------------


class ScaledMatrix(NamedTuple):
    """The rational matrix rows / den, with den > 0.  ``over_common_denominator``
    and ``scaled`` make den the least common denominator of the entries."""

    rows: tuple[tuple[int, ...], ...]
    den: int

    def fractions(self) -> Matrix:
        den = self.den
        return tuple(tuple(Fraction(k, den) for k in row) for row in self.rows)


def over_common_denominator(rows: Iterable[Iterable[tuple[int, int]]]) -> ScaledMatrix:
    """Rows of (numerator, denominator) pairs, each in lowest terms with a
    positive denominator, as one ScaledMatrix."""
    rows = [list(row) for row in rows]
    den = math.lcm(*(d for row in rows for _, d in row))
    return ScaledMatrix(tuple(tuple(k * (den // d) for k, d in row) for row in rows), den)


def scaled(a: Matrix) -> ScaledMatrix:
    """The Fraction matrix a as a ScaledMatrix."""
    return over_common_denominator(((x.numerator, x.denominator) for x in row) for row in a)


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss's elimination: after
    step k every entry is a (k+1) x (k+1) minor, so each division by the
    previous pivot is exact."""
    rows = [list(r) for r in a]
    n = len(rows)
    sign, previous = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // previous
        previous = pivot
    return sign * rows[-1][-1] if rows else 1


def composes(a: ScaledMatrix, b: ScaledMatrix, c: ScaledMatrix) -> bool:
    """Whether a b = c as rational matrices: (A B) den_c = C den_a den_b in
    ints, entry by entry, stopping at the first difference."""
    cols = tuple(zip(*b.rows))
    left, right = c.den, a.den * b.den
    return all(
        sum(map(mul, row, col)) * left == z * right
        for row, c_row in zip(a.rows, c.rows)
        for col, z in zip(cols, c_row)
    )
