"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from qcurves import (
    AlgebraElement,
    AlgebraHom,
    DirichletCharacterData,
    FactorProduct,
    FiniteAbelianGroup,
    GroupCharacter,
    OneCochain,
    QCurveDatum,
    QuadraticElement,
    TraceEntry,
    TwistedGroupAlgebra,
    TwoCocycle,
)
from qcurves.arith import squarefree_part
from qcurves.cohomology import CommutatorPairing, SplitResult, _canonical_cochain, split_cocycle
from qcurves.descent import (
    BlockMap,
    DescentDatum,
    DescentReport,
    build_restriction,
    compatibility_violation,
)
from qcurves.errors import CompatibilityRequired, InvalidCocycle, ValueOutsideField
from qcurves.linalg import (
    Matrix,
    Vector,
    identity,
    is_invertible,
    mat_mul,
    matrix,
    rank,
    rref,
    solve,
)
from qcurves.radicals import RadicalElement

PRIMES = (2, 3, 5)


def counting(monkeypatch, cls, name):
    """Count calls of a method."""
    counter = {"n": 0}
    original = getattr(cls, name)

    def wrapper(self, *args):
        counter["n"] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return counter


def counting_function(monkeypatch, original):
    """Count calls of a module-level function through every binding of it in
    the package."""
    counter = {"n": 0}

    def wrapper(*args):
        counter["n"] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "qcurves" or name.startswith("qcurves."):
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, wrapper)
    return counter


def complex_value(x: RadicalElement) -> complex:
    """Floating-point value of a radical, to test exact arithmetic against."""
    z = cmath.exp(2j * cmath.pi * float(x.torsion))
    for p, r in x.exponents.items():
        z *= math.pow(p, float(r))
    return z


def random_radical(
    rng: random.Random,
    torsion_dens=(1, 2, 4, 8),
    exponent_dens=(1, 2, 3, 4),
    primes=PRIMES,
) -> RadicalElement:
    den = rng.choice(torsion_dens)
    torsion = Fraction(rng.randrange(den), den)
    exps = {}
    for p in primes:
        if rng.random() < 0.5:
            d = rng.choice(exponent_dens)
            num = rng.randint(-2 * d, 2 * d)
            if num:
                exps[p] = Fraction(num, d)
    return RadicalElement(torsion, exps)


def random_cochain(rng: random.Random, group: FiniteAbelianGroup, **kw) -> OneCochain:
    values = {g: random_radical(rng, **kw) for g in group.elements()}
    values[group.identity] = RadicalElement.one()
    return OneCochain(group, values)


def klein_alternating_cocycle() -> TwoCocycle:
    """The nonsplit cocycle (g, h) -> (-1)^(g1 * h2) on Z/2 x Z/2."""
    group = FiniteAbelianGroup((2, 2))
    values = {}
    for g in group.elements():
        for h in group.elements():
            sign = RadicalElement.minus_one() if (g[0] * h[1]) % 2 else RadicalElement.one()
            values[(g, h)] = sign
    return TwoCocycle(group, values)


def pairing_is_alternating(pairing: CommutatorPairing) -> bool:
    return all(pairing(g, g).is_one for g in pairing.group.elements())


def pairing_is_bimultiplicative(pairing: CommutatorPairing) -> bool:
    els = pairing.group.elements()
    add = pairing.group.add
    return all(
        pairing(add(g1, g2), h) == pairing(g1, h) * pairing(g2, h)
        and pairing(h, add(g1, g2)) == pairing(h, g1) * pairing(h, g2)
        for g1 in els
        for g2 in els
        for h in els
    )


def brute_force_splittable(c: TwoCocycle, value_pool) -> bool:
    """Exhaustive search for a splitting cochain with values in a finite pool."""
    group = c.group
    free = [g for g in group.elements() if g != group.identity]
    for combo in itertools.product(value_pool, repeat=len(free)):
        values = dict(zip(free, combo))
        values[group.identity] = RadicalElement.one()
        if OneCochain(group, values).coboundary() == c:
            return True
    return False


def mu8_sqrt2_pool() -> list[RadicalElement]:
    """The 16 radicals mu_8 * {1, sqrt 2}."""
    pool = []
    for k in range(8):
        for j in (0, 1):
            pool.append(
                RadicalElement(Fraction(k, 8), {2: Fraction(j, 2)} if j else {})
            )
    return pool


# ---------------------------------------------------------------------------
# Cocycle oracles: the identity scan by radical arithmetic, and the split
# without the symmetry test
# ---------------------------------------------------------------------------


def radical_scan(c: TwoCocycle):
    """First triple (g, h, k), in lexicographic order, with
    c(g,h) c(gh,k) != c(h,k) c(g,hk) as radicals, or None."""
    elements = c.group.elements()
    add = c.group.add
    for g in elements:
        for h in elements:
            gh = add(g, h)
            for k in elements:
                if c(g, h) * c(gh, k) != c(h, k) * c(g, add(h, k)):
                    return (g, h, k)
    return None


def split_oracle(c: TwoCocycle) -> SplitResult:
    """split_cocycle without the symmetry test: the canonical cochain is
    built and checked on every table, and the obstruction is the pairing by
    one radical division for each of the |G|^2 pairs."""
    cochain = _canonical_cochain(c)
    if cochain.splits(c):
        return SplitResult(cochain, None)
    violation = c.violation()
    if violation is not None:
        raise InvalidCocycle(f"cocycle identity fails at {violation}")
    pairing = CommutatorPairing(c.group, {(g, h): c(g, h) / c(h, g) for g, h in c.values()})
    if pairing.is_trivial:
        raise InvalidCocycle("symmetric cocycle failed to split (internal error)")
    return SplitResult(None, pairing)


# ---------------------------------------------------------------------------
# Characters of finite abelian groups, and the search over character twists
# ---------------------------------------------------------------------------


def character(group: FiniteAbelianGroup, index) -> GroupCharacter:
    """The character g -> e(sum_j index_j * g_j / n_j); indices modulo the orders."""
    values = {
        g: RadicalElement.root_of_unity(
            sum((Fraction(k * a, n) for k, a, n in zip(index, g, group.cyclic_orders)), Fraction(0))
        )
        for g in group.elements()
    }
    return GroupCharacter(group, values)


def all_characters(group: FiniteAbelianGroup) -> list[GroupCharacter]:
    """The full dual group, enumerated in the canonical element order."""
    return [character(group, index) for index in group.elements()]


def twist(a: OneCochain, chi: GroupCharacter) -> OneCochain:
    return OneCochain(a.group, {g: v * chi(g) for g, v in a.values().items()})


def character_twists(a: OneCochain) -> list[OneCochain]:
    """All cochains with the same coboundary obtained by character twists."""
    return [twist(a, chi) for chi in all_characters(a.group)]


def power_splits_by_twists(c: TwoCocycle) -> bool:
    """Whether c splits rationally, by search: the exponents of the
    canonical splitting must be integers (twists adjust only torsion), and
    then one of its |G| character twists must be rational-valued."""
    if not c.is_rational_valued:
        raise ValueError("rational class order is defined for rational cocycles only")
    result = split_cocycle(c)
    if not result.split:
        return False
    a = result.cochain
    for v in a.values().values():
        if any(r.denominator != 1 for r in v.exponents.values()):
            return False
    return any(t.is_rational_valued for t in character_twists(a))


# ---------------------------------------------------------------------------
# Character oracles: the full pair scan by radical arithmetic
# ---------------------------------------------------------------------------


def group_character_oracle(group: FiniteAbelianGroup, values: dict):
    """The ValueError message GroupCharacter raises on this table, or None
    when it accepts it, from the O(|G|^2) scan over every pair of elements
    with radical products."""
    for g in group.elements():
        v = values.get(g)
        if v is None:
            return f"character table missing value at {g}"
        if not v.is_root_of_unity:
            return f"character value {v!r} at {g} is not a root of unity"
    if not values[group.identity].is_one:
        return "character must send the identity to 1"
    for g in group.elements():
        for h in group.elements():
            if values[group.add(g, h)] != values[g] * values[h]:
                return f"character table not multiplicative at ({g}, {h})"
    return None


def character_check_oracle(modulus: int, values: dict, value_at_minus_one=None):
    """The ValueError message DirichletCharacterData raises on this table, or
    None when it accepts it, from the O(phi(N)^2) scan over every pair of
    units with validated radical products."""
    if modulus < 1:
        return "modulus must be a positive integer"
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    for r in units:
        v = values.get(r)
        if v is None:
            return f"character table missing residue {r}"
        if not v.is_root_of_unity:
            return f"character value at {r} is not a root of unity"
    if not values[1 % modulus].is_one:
        return "character must take the value 1 at the class of 1"
    for r in units:
        for s in units:
            if values[(r * s) % modulus] != values[r] * values[s]:
                return f"character not multiplicative at ({r}, {s})"
    if value_at_minus_one is not None and value_at_minus_one != values[(-1) % modulus]:
        return "declared value at -1 disagrees with the table"
    return None


# ---------------------------------------------------------------------------
# Exact linear algebra used only by the oracles
# ---------------------------------------------------------------------------


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel."""
    if not a:
        return []
    reduced, pivots = rref(a)
    m = len(a[0])
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def mat_scale(a: Matrix, s) -> Matrix:
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    augmented = tuple(row + ident_row for row, ident_row in zip(a, identity(n)))
    reduced, pivots = rref(augmented)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


# ---------------------------------------------------------------------------
# Projector oracle: the idempotent by exact linear algebra
# ---------------------------------------------------------------------------


def coordinate_rows(hom: AlgebraHom) -> tuple[list[int], list[tuple]]:
    """Square classes and the matrix of the hom in class coordinates.

    Row k gives, for each basis symbol (in canonical element order), its
    contribution to the coefficient of sqrt(classes[k]).
    """
    elements = hom.algebra.group.elements()
    classes = sorted({d for _, d in hom.coordinates.values()}, key=abs)
    rows = [
        tuple(
            hom.coordinates[g][0] if hom.coordinates[g][1] == d else Fraction(0)
            for g in elements
        )
        for d in classes
    ]
    return classes, rows


def kernel_basis(hom: AlgebraHom) -> list[AlgebraElement]:
    """Basis of the kernel, by linear algebra on square-class coordinates."""
    elements = hom.algebra.group.elements()
    _, rows = coordinate_rows(hom)
    return [
        AlgebraElement(hom.algebra, dict(zip(elements, v))) for v in nullspace(tuple(rows))
    ]


def maps_to_one(hom: AlgebraHom, x: AlgebraElement) -> bool:
    """Whether the hom sends x to 1, summed in square-class coordinates."""
    coords: dict[int, Fraction] = {}
    for g, coeff in x.coefficients.items():
        q, d = hom.coordinates[g]
        coords[d] = coords.get(d, Fraction(0)) + coeff * q
    return {d: q for d, q in coords.items() if q} == {1: Fraction(1)}


def left_multiplication_matrix(algebra: TwistedGroupAlgebra, x: AlgebraElement) -> Matrix:
    """Matrix of y -> x*y in the group-element basis (canonical order)."""
    elements = algebra.group.elements()
    index = {g: i for i, g in enumerate(elements)}
    cols = []
    for h in elements:
        col = [Fraction(0)] * len(elements)
        for g, coeff in x.coefficients.items():
            col[index[algebra.group.add(g, h)]] += coeff * algebra.structure_constant(g, h)
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(len(elements))) for i in range(len(elements)))


def linear_projector(algebra: TwistedGroupAlgebra, hom: AlgebraHom):
    """The element mapping to 1 under the hom and annihilating its kernel, or
    None when that linear system has no solution."""
    classes, class_rows = coordinate_rows(hom)
    rows: list[tuple] = list(class_rows)
    rhs: list[Fraction] = [Fraction(1) if d == 1 else Fraction(0) for d in classes]
    for k in kernel_basis(hom):
        for row in left_multiplication_matrix(algebra, k):
            rows.append(row)
            rhs.append(Fraction(0))
    solution = solve(tuple(rows), tuple(rhs))
    if solution is None:
        return None
    return AlgebraElement(algebra, dict(zip(algebra.group.elements(), solution)))


# ---------------------------------------------------------------------------
# Descent data
# ---------------------------------------------------------------------------

ORDER_SEEDS = {
    # rational matrices of exact multiplicative order n, by (n, size)
    (2, 1): [[[-1]]],
    (2, 2): [[[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, -1]]],
    (2, 3): [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, -1]]],
    (3, 2): [[[0, -1], [1, -1]]],
    (3, 3): [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, -1, 0], [1, -1, 0], [0, 0, 1]]],
    (4, 2): [[[0, -1], [1, 0]]],
    (4, 3): [[[0, -1, 0], [1, 0, 0], [0, 0, -1]]],
    (6, 2): [[[1, -1], [1, 0]]],
    (6, 3): [[[1, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, -1, 0], [1, 0, 0], [0, 0, -1]]],
}


def random_invertible(rng: random.Random, n: int):
    while True:
        m = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if is_invertible(m):
            return m


def random_descent_datum(rng: random.Random, cyclic_orders, block_rank: int) -> DescentDatum:
    """Compatible datum on the product of Z/m over ``cyclic_orders``.

    The generator images commute and the i-th has order dividing m_i.  In a
    fifth of the draws they are all the identity.  Otherwise, when every m_i
    is even, two times in five they are random diagonal signs, each with at
    least one -1.  The rest are powers B^j of one seed B of exact order d,
    with d sharing a factor with every m_i (with some m_i, if no seed does)
    and 1 <= j < d, d | j m_i; so the image of a factor is the identity only
    when no rational seed of size ``block_rank`` has an order sharing a
    factor with m_i (an odd m_i at size 1).  All images are conjugated by one
    random invertible P.
    """
    group = FiniteAbelianGroup(tuple(cyclic_orders))
    orders = group.cyclic_orders
    n = block_rank
    if rng.random() < 0.2:
        images = [identity(n) for _ in orders]
    elif all(m % 2 == 0 for m in orders) and rng.random() < 0.4:
        images = []
        for _ in orders:
            signs = [rng.choice((1, -1)) for _ in range(n)]
            if -1 not in signs:
                signs[rng.randrange(n)] = -1
            images.append(matrix([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    else:
        sizes = sorted({d for d, size in ORDER_SEEDS if size == n})
        fits = [d for d in sizes if all(math.gcd(d, m) > 1 for m in orders)]
        fits = fits or [d for d in sizes if any(math.gcd(d, m) > 1 for m in orders)]
        if not fits:
            images = [identity(n) for _ in orders]
        else:
            d = rng.choice(fits)
            seed = matrix(rng.choice(ORDER_SEEDS[(d, n)]))
            powers = [identity(n)]
            for _ in range(d - 1):
                powers.append(mat_mul(powers[-1], seed))
            images = [
                powers[rng.choice([j for j in range(1, d) if j * m % d == 0] or [0])]
                for m in orders
            ]
    p = random_invertible(rng, n)
    p_inv = inverse(p)
    images = [mat_mul(mat_mul(p, a), p_inv) for a in images]
    mu = {}
    for g in group.elements():
        m = identity(n)
        for image, k in zip(images, g):
            for _ in range(k):
                m = mat_mul(m, image)
        mu[g] = m
    return DescentDatum(group, n, mu)


def scale_block_map(m: BlockMap, s) -> BlockMap:
    return BlockMap(m.source, m.target, {key: mat_scale(b, s) for key, b in m.blocks.items()})


def dense(m: BlockMap) -> Matrix:
    """Full matrix in slot-major order (target rows, source columns)."""
    n = m.source.block_rank
    rows = []
    for t_label in m.target.labels:
        for i in range(n):
            row = []
            for s_label in m.source.labels:
                block = m.blocks.get((t_label, s_label))
                row.extend(block[i] if block else (Fraction(0),) * n)
            rows.append(tuple(row))
    return tuple(rows)


def compatibility_pair_scan(datum: DescentDatum):
    """First pair (s, t), in lexicographic order, with mu(s) mu(t) != mu(st),
    or None: the identity on all |G|^2 pairs."""
    elements = datum.group.elements()
    for s in elements:
        for t in elements:
            if mat_mul(datum.mu[s], datum.mu[t]) != datum.mu[datum.group.add(s, t)]:
                return (s, t)
    return None


def eta_oracle(datum: DescentDatum) -> DescentReport:
    """The descent report by block algebra on a compatible datum: eta as the
    sum of the operators, fixed by composing with each, idempotency of
    eta/|G| by composition, and ranks of the dense matrix and its slices."""
    operators = build_restriction(datum)
    group = datum.group
    product = datum.product()
    blocks = {key: block for op in operators.values() for key, block in op.blocks.items()}
    eta = BlockMap(product, product, blocks)
    fixed = all(
        operators[g].compose(eta) == eta and eta.compose(operators[g]) == eta
        for g in group.elements()
    )
    average = scale_block_map(eta, Fraction(1, group.order))
    idempotent_ok = average.compose(average) == average
    matrix_ = dense(eta)
    eta_rank = rank(matrix_)
    n = datum.block_rank
    diagonal_ok = eta_rank == n and all(
        rank(matrix_[i * n : (i + 1) * n]) == n for i in range(group.order)
    )
    return DescentReport(
        eta=eta,
        idempotent_ok=idempotent_ok,
        rank=eta_rank,
        fixed_by_all=fixed,
        diagonal_image_ok=diagonal_ok,
    )


def product_action(datum: QCurveDatum) -> dict:
    """The twisted action on the plain product: slot s goes to slot g*s with
    coefficient c(g, s) against the identity isogeny."""
    product = FactorProduct.of_group(datum.group, 1)
    action = {}
    for g in datum.group.elements():
        blocks = {}
        for s in product.labels:
            coeff = datum.cocycle.rational_value(g, s)
            blocks[(datum.group.add(g, s), s)] = ((coeff,),)
        action[g] = BlockMap(product, product, blocks)
    return action


def iota_by_closures(datum, iota_scale=None):
    """iota_equivariance_violation by comparing both ways around the square
    at every (g, s): scaled blocks of mu for a compatible descent datum, and
    cocycle coefficients against the canonical basis for a Q-curve datum."""
    group = datum.group
    scale = {s: Fraction(1) for s in group.elements()}
    if iota_scale:
        for s, q in iota_scale.items():
            scale[group.check_element(s)] = Fraction(q)

    if isinstance(datum, DescentDatum):
        violation = compatibility_violation(datum)
        if violation is not None:
            raise CompatibilityRequired(f"compatibility fails at {violation}")

        def transported(g, s):
            # iota after the permutation action: slot s -> slot g*s -> factor (g*s)^-1
            gs = group.add(g, s)
            return mat_scale(datum.mu[gs], scale[gs])

        def structural(g, s):
            # the [g] operator after iota: factor s^-1 -> factor (g*s)^-1
            return mat_scale(mat_mul(datum.mu[g], datum.mu[s]), scale[s])

    else:

        def transported(g, s):
            gs = group.add(g, s)
            return datum.cocycle.rational_value(g, s) * scale[gs]

        def structural(g, s):
            return datum.cocycle.rational_value(g, s) * scale[s]

    for g in group.elements():
        for s in group.elements():
            if transported(g, s) != structural(g, s):
                return (g, s)
    return None


# ---------------------------------------------------------------------------
# Trace tables
# ---------------------------------------------------------------------------


def chi_mod4() -> DirichletCharacterData:
    """The odd quadratic character of conductor 4."""
    return DirichletCharacterData(
        4, {1: RadicalElement.one(), 3: RadicalElement.minus_one()}
    )


def chi_mod8() -> DirichletCharacterData:
    """The even quadratic character of conductor 8 (fixed field Q(sqrt 2))."""
    one, m1 = RadicalElement.one(), RadicalElement.minus_one()
    return DirichletCharacterData(8, {1: one, 3: m1, 5: m1, 7: one})


def chi_mod5() -> DirichletCharacterData:
    """The even quadratic character mod 5."""
    one, m1 = RadicalElement.one(), RadicalElement.minus_one()
    return DirichletCharacterData(5, {1: one, 2: m1, 3: m1, 4: one})


def chi_mod16_order4() -> DirichletCharacterData:
    """An even order-4 character mod 16 (value i on the class of 3)."""
    i = RadicalElement.root_of_unity(Fraction(1, 4))
    values = {1: RadicalElement.one()}
    # (Z/16)* = <15> x <3>, with 3 of order 4; send 15 -> 1 and 3 -> i
    current = 1
    power = RadicalElement.one()
    for _ in range(4):
        values[current] = power
        values[(15 * current) % 16] = power
        current = (3 * current) % 16
        power = power * i
    return DirichletCharacterData(16, values)


def compliant_trace_value(rng, field_real: bool, d: int, eps_value: QuadraticElement):
    """Solve a = involution(a) * eps for a in Q(sqrt(d)), at a random scale.

    On a totally real field (or for entries in a real quadratic subfield) the
    involution is the identity, so nonzero solutions need eps = 1.  On an
    imaginary subfield the involution is conjugation: eps = s + t*sqrt(d)
    forces the rational ray (s = 1), the purely irrational ray (s = -1, t = 0),
    or the ray spanned by (1 + s) + t*sqrt(d).
    """
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
    s, t = eps_value.a, eps_value.b
    if field_real or d > 0:
        if t != 0 or s != 1:
            return QuadraticElement.from_rational(0)  # only the zero trace complies
        if d == 1:
            return QuadraticElement.from_rational(scale)
        return QuadraticElement(scale, Fraction(rng.randint(1, 5)), d)
    if t == 0:
        if s == 1:
            return QuadraticElement.from_rational(scale)
        return QuadraticElement(Fraction(0), scale, d)
    if eps_value.d != d:
        raise ValueError("character value must lie in the same quadratic field")
    return QuadraticElement(scale * (1 + s), scale * t, d)


def compliant_table_entries(
    rng: random.Random, field_real: bool, d: int, eps: DirichletCharacterData, primes
) -> list[TraceEntry]:
    from qcurves.fields import root_of_unity_as_quadratic

    entries = []
    for p in primes:
        value = eps(p)
        if value is None:
            continue
        u = root_of_unity_as_quadratic(value)
        entries.append(TraceEntry(p, compliant_trace_value(rng, field_real, d, u)))
    return entries


# ---------------------------------------------------------------------------
# Quadratic elements as a pair of Fractions (oracle for fields.QuadraticElement)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionQuadratic:
    """a + b*sqrt(d) with Fraction coordinates and squarefree d (d = 1 forces
    b = 0): the rational-pair element that QuadraticElement's integer
    coordinates replaced, with the same join rule and error types."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b == 0:
            object.__setattr__(self, "d", 1)
        elif self.d == 1:
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))
        elif self.d == 0 or squarefree_part(self.d) != self.d:
            raise ValueError(f"{self.d} is not a squarefree class")

    @classmethod
    def of(cls, x: QuadraticElement) -> "FractionQuadratic":
        return cls(x.a, x.b, x.d)

    def _join(self, other: "FractionQuadratic") -> int:
        if self.d == other.d or other.b == 0:
            return self.d
        if self.b == 0:
            return other.d
        raise ValueOutsideField(
            f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
        )

    def __add__(self, other):
        return FractionQuadratic(self.a + other.a, self.b + other.b, self._join(other))

    def __sub__(self, other):
        return FractionQuadratic(self.a - other.a, self.b - other.b, self._join(other))

    def __neg__(self):
        return FractionQuadratic(-self.a, -self.b, self.d)

    def __mul__(self, other):
        d = self._join(other)
        return FractionQuadratic(
            self.a * other.a + self.b * other.b * d, self.a * other.b + self.b * other.a, d
        )

    def __truediv__(self, other):
        if other.a == 0 and other.b == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        norm = other.a * other.a - other.b * other.b * other.d
        return self * FractionQuadratic(other.a / norm, -other.b / norm, other.d)

    def conjugate(self):
        return FractionQuadratic(self.a, -self.b, self.d)


def weil_bound_oracle(x: FractionQuadratic, p: int) -> bool:
    """|sigma(x)| <= 2 sqrt(p) under both embeddings, in 3000-digit decimals.

    The exact bound is met only on a boundary, where both sides agree to far
    more than the tolerance; off it, 512-bit coordinates keep the two sides
    apart by far more than the tolerance.
    """
    with localcontext() as ctx:
        ctx.prec = 3000
        a = Decimal(x.a.numerator) / x.a.denominator
        b = Decimal(x.b.numerator) / x.b.denominator
        bound = 2 * Decimal(p).sqrt() * (1 + Decimal(10) ** -2000)
        if x.d < 0:
            moduli = [(a * a + b * b * -x.d).sqrt()]
        else:
            root = Decimal(x.d).sqrt()
            moduli = [abs(a + b * root), abs(a - b * root)]
        return all(m <= bound for m in moduli)
