"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; everything is immutable and pure.
Sizes in this package are tiny (block matrices over small Galois groups), so
plain Gaussian elimination with exact pivoting is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


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


def is_invertible(a: Matrix) -> bool:
    return bool(a) and len(a) == len(a[0]) and rank(a) == len(a)

