"""Small exact-arithmetic utilities: fraction strings, factorization, square classes.

Rational scalars throughout the package are ``fractions.Fraction`` (always
reduced, positive denominator).  Square classes of nonzero rationals are
represented by their squarefree part, a squarefree integer carrying the sign.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import factorint, isprime


def parse_fraction(s: str | int) -> Fraction:
    """Parse "a/b" (or a bare integer) into a Fraction."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError(f"expected a fraction string or integer, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(s.strip())


def format_fraction(q: Fraction) -> str:
    """Canonical "a/b" form with b > 0, including "0/1" and "3/1"."""
    return f"{q.numerator}/{q.denominator}"


def factor_positive(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: multiplicity}."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if n == 1:
        return {}
    return dict(factorint(n))


def squarefree_part(q: Fraction | int) -> int:
    """The squarefree integer d with q = d * (rational square), sign included."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    d = 1 if q > 0 else -1
    for p, e in factor_positive(abs(q.numerator)).items():
        if e % 2:
            d *= p
    for p, e in factor_positive(q.denominator).items():
        if e % 2:
            d *= p
    return d


def is_rational_square(q: Fraction | int) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    if q == 0:
        return True
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def is_prime(n: int) -> bool:
    return bool(isprime(n))
