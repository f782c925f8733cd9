"""The multiplicative group of radicals: roots of unity times rational prime powers.

An element is e^(2*pi*i*t) * prod_p p^(r_p) with t a rational in [0, 1) and
finitely many nonzero rational exponents r_p at primes p.  Each p^(r_p) is the
positive real power, so the complex value of an element is well defined.  The
group law is addition of torsion (mod 1) and of exponents; -1 is pure torsion
t = 1/2, never a sign bit.  The group is divisible: n-th roots exist for every
n, and the canonical root divides the torsion representative and every
exponent by n.

Rationals embed via their prime factorization (sign into torsion); an element
is rational iff its torsion lies in {0, 1/2} and all exponents are integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import factor_positive, is_prime
from .errors import UnsupportedDegree

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class RadicalElement:
    """Immutable element of the radical value group."""

    __slots__ = ("_torsion", "_exponents")

    def __init__(self, torsion=0, exponents=None):
        t = Fraction(torsion) % 1
        items = []
        if exponents:
            for p, r in exponents.items():
                r = Fraction(r)
                if r == 0:
                    continue
                if p < 2 or not is_prime(p):
                    raise ValueError(f"exponent index {p} is not a prime")
                items.append((int(p), r))
        items.sort()
        object.__setattr__(self, "_torsion", t)
        object.__setattr__(self, "_exponents", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("RadicalElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "RadicalElement":
        return cls()

    @classmethod
    def minus_one(cls) -> "RadicalElement":
        return cls(_HALF)

    @classmethod
    def root_of_unity(cls, torsion) -> "RadicalElement":
        """e^(2*pi*i*torsion), torsion taken mod 1."""
        return cls(Fraction(torsion))

    @classmethod
    def from_rational(cls, q) -> "RadicalElement":
        q = Fraction(q)
        if q == 0:
            raise ValueError("0 is not in the radical group")
        torsion = _ZERO if q > 0 else _HALF
        exps: dict[int, Fraction] = {}
        for p, e in factor_positive(abs(q.numerator)).items():
            exps[p] = Fraction(e)
        for p, e in factor_positive(q.denominator).items():
            exps[p] = exps.get(p, _ZERO) - e
        return cls(torsion, exps)

    @classmethod
    def prime_power(cls, p: int, r) -> "RadicalElement":
        return cls(_ZERO, {p: Fraction(r)})

    # -- accessors -----------------------------------------------------

    @property
    def torsion(self) -> Fraction:
        return self._torsion

    @property
    def exponents(self) -> dict[int, Fraction]:
        return dict(self._exponents)

    # -- group law -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, RadicalElement):
            return NotImplemented
        exps = dict(self._exponents)
        for p, r in other._exponents:
            exps[p] = exps.get(p, _ZERO) + r
        return RadicalElement(self._torsion + other._torsion, exps)

    def inverse(self) -> "RadicalElement":
        return RadicalElement(-self._torsion, {p: -r for p, r in self._exponents})

    def __truediv__(self, other):
        if not isinstance(other, RadicalElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return RadicalElement(self._torsion * n, {p: r * n for p, r in self._exponents})

    def nth_root(self, n: int) -> "RadicalElement":
        """Canonical n-th root: torsion representative and exponents divided by n."""
        if n < 1:
            raise ValueError("root index must be >= 1")
        return RadicalElement(self._torsion / n, {p: r / n for p, r in self._exponents})

    # -- predicates and conversions -------------------------------------

    @property
    def is_one(self) -> bool:
        return self._torsion == 0 and not self._exponents

    @property
    def is_root_of_unity(self) -> bool:
        return not self._exponents

    @property
    def is_rational(self) -> bool:
        return self._torsion in (_ZERO, _HALF) and all(
            r.denominator == 1 for _, r in self._exponents
        )

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        q = Fraction(-1 if self._torsion == _HALF else 1)
        for p, r in self._exponents:
            q *= Fraction(p) ** int(r)
        return q

    def as_sqrt_multiple(self):
        """Write the element as q * sqrt(d) with q rational and d squarefree.

        Only defined in the multiquadratic regime: torsion a multiple of 1/4
        and all exponent denominators dividing 2.  sqrt(d) for negative d means
        i * sqrt(|d|).  Raises UnsupportedDegree otherwise.
        """
        if self._torsion.denominator not in (1, 2, 4) or any(
            r.denominator > 2 for _, r in self._exponents
        ):
            raise UnsupportedDegree(f"{self!r} is not multiquadratic")
        q = Fraction(1)
        d = 1
        for p, r in self._exponents:
            m, f = divmod(r, 1)
            q *= Fraction(p) ** int(m)
            if f:
                d *= p
        t = self._torsion
        if t == _HALF:
            q = -q
        elif t == Fraction(1, 4):
            d = -d
        elif t == Fraction(3, 4):
            q, d = -q, -d
        return q, d

    # -- canonical identity ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RadicalElement):
            return NotImplemented
        return self._torsion == other._torsion and self._exponents == other._exponents

    def __hash__(self):
        return hash((self._torsion, self._exponents))

    def __repr__(self):
        parts = []
        if self._torsion:
            parts.append(f"e(2pi*i*{self._torsion})")
        parts.extend(f"{p}^({r})" for p, r in self._exponents)
        return "Rad[" + ("1" if not parts else "*".join(parts)) + "]"


def log_coordinates(values: list[RadicalElement]) -> tuple[list[int], frozenset[int]]:
    """Exact integer log coordinates of a finite family of radicals.

    Let D be the lcm of every torsion and exponent denominator in the family,
    p_1 < ... < p_s its prime support, and m the largest of D and every
    |r_p * D|.  The element e(t) * prod p_i^(r_i) maps to

        x = (t * D mod D) + sum_i (r_i * D) * B^i,   B the least power of 2 > 4m,

    one Python int with the torsion numerator in the lowest slot.  Returns
    the coordinates in the order given and the set Z = {-D, 0, D}.

    For v1, v2, v3, v4 in the family, v1 v2 = v3 v4 exactly when
    x1 + x2 - x3 - x4 lies in Z.  Each exponent slot of that sum is at most
    4m < B in absolute value, so the slots cannot carry: the lowest nonzero
    one is not a multiple of B, and the sum's exponent part E * B vanishes
    only when every slot does.  Otherwise |E * B| >= B > 4D exceeds the
    torsion slot, which lies strictly between -2D and 2D, by more than D.
    In that range the multiples of D are exactly Z.  The bound is what makes
    the map injective on such sums, so one comparison decides the identity.
    """
    family = list({id(v): v for v in values}.values())  # shared values are mapped once
    exponents = [r for v in family for _, r in v._exponents]
    den = math.lcm(*(v._torsion.denominator for v in family), *(r.denominator for r in exponents))
    base = 1 << (4 * max([den, *(int(abs(r) * den) for r in exponents)])).bit_length()
    primes = sorted({p for v in family for p, _ in v._exponents})
    weight = {p: base ** (i + 1) for i, p in enumerate(primes)}
    coordinate = {
        id(v): int(v._torsion * den) + sum(int(r * den) * weight[p] for p, r in v._exponents)
        for v in family
    }
    return [coordinate[id(v)] for v in values], frozenset((-den, 0, den))
