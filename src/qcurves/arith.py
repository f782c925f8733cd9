"""Small exact-arithmetic utilities: fraction strings, input sizes, factorization, square classes.

Rational scalars throughout the package are ``fractions.Fraction`` (always
reduced, positive denominator).  Square classes of nonzero rationals are
represented by their squarefree part, a squarefree integer carrying the sign.

Primality and factorization use the standard library only.

* ``is_prime`` reads n off a sieve below 2^16.  Above it, n is tested for a
  factor below 100 and then put to the strong probable-prime (Miller-Rabin)
  test.  That test proves compositeness at any size.  To the first k prime
  bases it also proves primality below the smallest odd n that is a strong
  pseudoprime to all of them (OEIS A014233), so each n runs through the
  shortest prefix of 2, 3, 5, ..., 41 that is exact at its size.  The 13
  bases 2, ..., 41 are exact below ``EXACT_PRIMALITY_BOUND`` =
  3317044064679887385961981, which is itself a strong pseudoprime to all
  13 (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
  bases", Math. Comp. 86 (2017)).  An n at or above the bound that passes
  all 13 bases cannot be proved prime here, so ``is_prime`` raises
  ``InputLimit`` instead of answering.
* ``factor_positive`` removes the primes below 1000 (one gcd against their
  product finds which divide n), then factors the cofactor.  A cofactor
  below 10^6 is prime.  A larger one is a strong probable prime (decided as
  above), an exact perfect power r^k (r is factored), or is split by
  Brent's rho (R. P. Brent, "An improved Monte Carlo factorization
  algorithm", BIT 20 (1980)).  Rho gets ``RHO_BUDGET`` = 2^20 iterations
  per cofactor: a semiprime of two 30-bit primes takes about 2^15.  A
  cofactor that rho cannot split within the budget raises ``InputLimit``.

Composites above the bound still factor: a Miller-Rabin witness proves
compositeness exactly at every size, and the perfect-power check and rho
split a composite into parts that are decided in turn.  Only a prime factor
at or above the bound, or a split past the rho budget, is a hard input.

The cost of finding that out still grows with n (each rho step and each
Miller-Rabin base is a multiplication modulo n), so the numbers a document
gives are bounded where they are parsed, before any factoring:
``check_size``, ``parse_fraction`` and ``parse_ratio`` raise ``InputLimit``
on an integer, numerator or denominator of more than ``INPUT_BITS`` = 512
bits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputLimit

EXACT_PRIMALITY_BOUND = 3317044064679887385961981
RHO_BUDGET = 1 << 20
INPUT_BITS = 512

_SIEVE_LIMIT = 1 << 16


def _sieve(n: int) -> bytearray:
    is_p = bytearray([1]) * n
    is_p[0] = is_p[1] = 0
    for p in range(2, math.isqrt(n - 1) + 1):
        if is_p[p]:
            is_p[p * p :: p] = bytes(len(range(p * p, n, p)))
    return is_p


_SIEVE = _sieve(_SIEVE_LIMIT)
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = [p for p in range(_TRIAL_BOUND) if _SIEVE[p]]
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
_FEW_PRIMES_PRODUCT = math.prod(p for p in _TRIAL_PRIMES if p < 100)

# (smallest odd strong pseudoprime to the first k prime bases, those bases)
# for k = 1, ..., 7, 9, 12, 13 (OEIS A014233); k = 8, 10 and 11 are left out,
# as their bounds equal those for k = 7, 9 and 9
_MR_BASES = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (EXACT_PRIMALITY_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]


def check_size(n: int) -> int:
    """n itself, when |n| has at most INPUT_BITS bits; InputLimit otherwise."""
    bits = n.bit_length()
    if bits > INPUT_BITS:
        raise InputLimit(f"a {bits}-bit integer is past the input limit of {INPUT_BITS} bits")
    return n


def parse_fraction(s: str | int) -> Fraction:
    """Parse "a/b" (or a bare integer) into a Fraction whose numerator and
    denominator have at most INPUT_BITS bits; InputLimit otherwise, and a
    ValueError naming s for a zero denominator."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError(f"expected a fraction string or integer, got {s!r}")
    if isinstance(s, str) and ("e" in s or "E" in s):
        # Fraction expands a decimal exponent e as 10^e: "1e10000000" alone
        # takes seconds, so an exponent past the bound is refused unexpanded
        exponent = s.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if exponent.isdecimal() and int(exponent) > INPUT_BITS:
            raise InputLimit(
                f"a decimal exponent of {exponent} is past the input limit of {INPUT_BITS} bits"
            )
    try:
        q = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    check_size(q.numerator)
    check_size(q.denominator)
    return q


# "a/b" as format_fraction writes it; 160 digits hold any 512-bit integer and
# stay far below the digit limit of int()
_RATIO = re.compile(r"-?[0-9]{1,160}/[0-9]{1,160}")


def parse_ratio(s: str | int) -> tuple[int, int]:
    """parse_fraction(s) as (numerator, denominator), read without building a
    Fraction when s is a JSON integer or an "a/b" string of decimal digits;
    any other input goes through parse_fraction, with its errors."""
    if type(s) is int:
        return check_size(s), 1
    if type(s) is str and _RATIO.fullmatch(s):
        num, _, den = s.partition("/")
        num, den = int(num), int(den)
        if den:
            g = math.gcd(num, den)
            return check_size(num // g), check_size(den // g)
    q = parse_fraction(s)
    return q.numerator, q.denominator


def format_fraction(q: Fraction) -> str:
    """Canonical "a/b" form with b > 0, including "0/1" and "3/1"."""
    return f"{q.numerator}/{q.denominator}"


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > a passes the Miller-Rabin test to the base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_odd_prime(n: int) -> bool:
    """Primality of an odd n >= 2^16 with no factor below 100: exact below
    the bound, InputLimit at or above it for a strong probable prime."""
    for bound, bases in _MR_BASES:
        if n < bound:
            break
    if not all(_strong_probable_prime(n, a) for a in bases):
        return False
    if n >= EXACT_PRIMALITY_BOUND:
        raise InputLimit(
            f"cannot prove {n} prime: it is a strong probable prime to the bases "
            f"2, ..., 41, which decide primality only below {EXACT_PRIMALITY_BOUND}"
        )
    return True


def is_prime(n: int) -> bool:
    """Whether the integer n is prime; raises InputLimit on a strong
    probable prime at or above EXACT_PRIMALITY_BOUND."""
    if n < _SIEVE_LIMIT:
        return n >= 2 and bool(_SIEVE[n])
    if math.gcd(n, _FEW_PRIMES_PRODUCT) != 1:
        return False
    return _is_odd_prime(n)


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with n = r^k and k prime, or (n, 1); n has no prime factor
    below _TRIAL_BOUND > 2^9, so k <= log_(2^9) n."""
    for k in range(2, min(n.bit_length() // 9, _SIEVE_LIMIT - 1) + 1):
        if not _SIEVE[k]:
            continue
        r = math.isqrt(n) if k == 2 else _integer_root(n, k)
        if r**k == n:
            return r, k
    return n, 1


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n, which is not a perfect power,
    by Brent's rho on x -> x^2 + c from x = 2, for c = 1, 2, ...; InputLimit
    before a round would take the iterations past RHO_BUDGET in all."""
    batch = 128
    spent = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if spent + 2 * r > RHO_BUDGET:
                raise InputLimit(
                    f"cannot factor {n}: Brent's rho found no factor within its "
                    f"budget of 2^{RHO_BUDGET.bit_length() - 1} iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            spent += r + min(k, r)
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g < n:
            return g


def _factor_cofactor(n: int, k: int, factors: dict[int, int]) -> None:
    """Add the factorization of n^k to factors; n > 1 has no prime factor
    below _TRIAL_BOUND."""
    if n < _TRIAL_BOUND * _TRIAL_BOUND or _is_odd_prime(n):
        factors[n] = factors.get(n, 0) + k
        return
    r, e = _perfect_power(n)
    if e > 1:
        _factor_cofactor(r, k * e, factors)
        return
    d = _rho_factor(n)
    _factor_cofactor(d, k, factors)
    _factor_cofactor(n // d, k, factors)


def factor_positive(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: multiplicity},
    in ascending prime order; raises InputLimit on a hard input (see the
    module docstring)."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = {}
    small = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if small == 1:
            break
        if small % p == 0:
            small //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        _factor_cofactor(n, 1, factors)
    return dict(sorted(factors.items()))


def square_class(q: Fraction | int) -> frozenset[int]:
    """The square class of a nonzero rational as its index support: -1 for a
    negative sign and the primes of odd exponent, from one factorization of
    each of its (coprime) numerator and denominator other than 1."""
    if q == 0:
        raise ValueError("0 has no square class")
    support = {-1} if q < 0 else set()
    for n in (abs(q.numerator), q.denominator):
        if n > 1:
            support.update(p for p, e in factor_positive(n).items() if e % 2)
    return frozenset(support)


def squarefree_part(q: Fraction | int) -> int:
    """The squarefree integer d with q = d * (rational square), sign included:
    the product of the square class's support."""
    return math.prod(square_class(q))


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
