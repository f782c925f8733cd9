"""Seeded document generators and closed-form expected answers.

Plain Python ints and Fractions only: nothing here imports qcurves, so every
expected answer is independent of the code under test.  Each workload is a
fixed cyclic mix of size rungs; a block is one pass over the mix, and block b
of seed s is a pure function of (workload, s, b).  Documents within a run are
distinct (fresh primes, matrices, witnesses per document), so a cross-call
result cache cannot show a gain a real caller would not see.

An item is a dict with the CLI subcommand, the JSON document, a rung label,
and the expectation: the exit code and the exact value of every checked
top-level report field.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

# -- small number theory ---------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


PRIMES = primes_upto(20000)
# one size band, so that factoring and primality costs do not hinge on the
# seed, and 1061 primes, so that a cyclic group's documents stay distinct in
# a run of a program several times faster than the one the mixes were set on
LADDER_PRIMES = [p for p in PRIMES if 1000 <= p < 10000]


class PoolExhausted(Exception):
    """A run asked for more distinct documents than the generator can make."""


def frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def elements(orders) -> list[tuple]:
    """Group elements in the lexicographic product order."""
    return [tuple(g) for g in itertools.product(*(range(n) for n in orders))]


def add(orders, g, h) -> tuple:
    return tuple((a + b) % n for a, b, n in zip(g, h, orders))


def squarefree(n: int) -> bool:
    return n != 0 and all(n % (p * p) for p in PRIMES if p * p <= abs(n))


def primitive_root(q: int) -> int:
    factors = [p for p in PRIMES if p <= q - 1 and (q - 1) % p == 0]
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return g
    raise ValueError(q)


# -- cocycles with rational values -------------------------------------------


def ladder_cocycle(orders, primes) -> dict:
    """c = delta a for a(g) = prod p_i^(g_i/2): c(g, h) = prod p_i^(n_i/2 * carry_i)."""
    c = {}
    for g in elements(orders):
        for h in elements(orders):
            v = 1
            for a, b, n, p in zip(g, h, orders, primes):
                if a + b >= n:
                    v *= p ** (n // 2)
            c[(g, h)] = Fraction(v)
    return c


def sign_bicharacter(orders) -> dict:
    """(g, h) -> (-1)^(g_0 h_1); bimultiplicative when n_0 and n_1 are even."""
    return {
        (g, h): Fraction(-1 if (g[0] * h[1]) % 2 else 1)
        for g in elements(orders)
        for h in elements(orders)
    }


def normalized(orders, c: dict) -> dict:
    ident = (0,) * len(orders)
    scale = c[(ident, ident)]
    return {k: v / scale for k, v in c.items()}


def first_cocycle_violation(orders, c: dict):
    """First (g, h, k) in lexicographic order breaking the cocycle identity,
    with its 0-based index among all |G|^3 triples; (None, |G|^3) if valid."""
    els = elements(orders)
    c = normalized(orders, c)
    index = 0
    for g in els:
        for h in els:
            gh = add(orders, g, h)
            for k in els:
                if c[(g, h)] * c[(gh, k)] != c[(h, k)] * c[(g, add(orders, h, k))]:
                    return (g, h, k), index
                index += 1
    return None, index


def first_degree_violation(orders, c: dict, deg: dict):
    els = elements(orders)
    for g in els:
        for h in els:
            if c[(g, h)] ** 2 != Fraction(deg[g] * deg[h], deg[add(orders, g, h)]):
                return (g, h)
    return None


def cocycle_json(c: dict) -> list:
    return [[list(g), list(h), frac(v)] for (g, h), v in sorted(c.items()) if v != 1]


def radical_json(torsion, exponents: dict) -> dict:
    return {
        "torsion": frac(torsion),
        "exponents": {str(p): frac(r) for p, r in sorted(exponents.items()) if r},
    }


FIELD_Q = {"square_classes": [], "degree": 1, "totally_real": True}

# -- construct_ladder ------------------------------------------------------------


def construct_item(orders, primes) -> dict:
    """A ladder datum and its full expected report (trivial epsilon, order 2)."""
    els = elements(orders)
    c = ladder_cocycle(orders, primes)
    deg = {g: math.prod(p**a for a, p in zip(g, primes)) for g in els}
    doc = {
        "cyclic_orders": list(orders),
        "degrees": [[list(g), deg[g]] for g in els],
        "cocycle": cocycle_json(c),
    }
    k = len(orders)
    order = len(els)
    alpha = [
        [list(g), radical_json(0, {p: Fraction(a, 2) for a, p in zip(g, primes)})]
        for g in els
    ]
    # coefficient of b_g: ([E:Q]/|G|) a(g)^-1 when a(g) is rational, else 0
    projector = [
        [list(g), frac(Fraction(2**k, order) / math.prod(p ** (a // 2) for a, p in zip(g, primes)))]
        for g in els
        if all(a % 2 == 0 for a in g)
    ]
    report = {
        "valid": True,
        "constructed": True,
        "dimension": 2**k,
        "E": {"square_classes": sorted(primes), "degree": 2**k, "totally_real": True},
        "F": FIELD_Q,
        "alpha": alpha,
        "epsilon": [[list(g), "0/1"] for g in els],
        "epsilon_order": 1,
        "epsilon_inversion_ambiguous": False,
        "projector": projector,
        "checks": {"alpha_epsilon_congruence": True, "brauer_order": 2},
    }
    return {"command": "construct", "doc": doc, "expect": {"exit": 0, "report": report}}


# -- reject_mix -----------------------------------------------------------------


def obstructed_split_item(orders, primes) -> dict:
    """Sign bicharacter times a ladder coboundary: valid, not split."""
    els = elements(orders)
    base = ladder_cocycle(orders, primes)
    sign = sign_bicharacter(orders)
    c = {key: base[key] * sign[key] for key in base}
    obstruction = [
        [list(g), list(h), radical_json(Fraction(1, 2), {})]
        for g in els
        for h in els
        if (g[0] * h[1] + h[0] * g[1]) % 2
    ]
    report = {"valid": True, "split": False, "cochain": None, "obstruction": obstruction}
    doc = {"cyclic_orders": list(orders), "values": cocycle_json(c)}
    return {"command": "split", "doc": doc, "expect": {"exit": 1, "report": report}}


def invalid_cocycle_item(rng, orders, primes, scale_prime, command) -> dict:
    """Ladder cocycle with the value at one seeded pair off the identity scaled."""
    els = elements(orders)[1:]
    c = ladder_cocycle(orders, primes)
    c[(rng.choice(els), rng.choice(els))] *= scale_prime
    triple, _ = first_cocycle_violation(orders, c)
    if command == "validate-cocycle":
        doc = {"cyclic_orders": list(orders), "values": cocycle_json(c)}
        report = {
            "cyclic_orders": list(orders),
            "valid": False,
            "violation": [list(x) for x in triple],
        }
    else:
        doc = {
            "cyclic_orders": list(orders),
            "degrees": [
                [list(g), math.prod(p**a for a, p in zip(g, primes))] for g in elements(orders)
            ],
            "cocycle": cocycle_json(c),
        }
        g, h, k = triple
        report = {
            "valid": False,
            "violation": {"kind": "CocycleViolation", "g": list(g), "h": list(h), "k": list(k)},
        }
    return {"command": command, "doc": doc, "expect": {"exit": 1, "report": report}}


def degree_violation_item(rng, orders, primes, scale_prime) -> dict:
    """Valid ladder cocycle with the degree at one seeded element scaled."""
    els = elements(orders)
    c = ladder_cocycle(orders, primes)
    deg = {g: math.prod(p**a for a, p in zip(g, primes)) for g in els}
    deg[rng.choice(els[1:])] *= scale_prime
    g, h = first_degree_violation(orders, c, deg)
    doc = {
        "cyclic_orders": list(orders),
        "degrees": [[list(x), deg[x]] for x in els],
        "cocycle": cocycle_json(c),
    }
    report = {
        "valid": False,
        "violation": {"kind": "DegreeIdentityViolation", "g": list(g), "h": list(h)},
    }
    return {"command": "construct", "doc": doc, "expect": {"exit": 1, "report": report}}


# -- descent_ladder ---------------------------------------------------------------


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_inverse(a):
    n = len(a)
    rows = [list(r) + list(e) for r, e in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def signed_permutation(rng, r):
    perm = list(range(r))
    rng.shuffle(perm)
    return tuple(
        tuple(Fraction(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(r))
        for i in range(r)
    )


def matrix_order(m, limit=16):
    eye = mat_identity(len(m))
    acc = m
    for k in range(1, limit + 1):
        if acc == eye:
            return k
        acc = mat_mul(acc, m)
    return None


DESCENT_PRIMES = [p for p in PRIMES if 11 <= p <= 97]


def signed_involution(rng, r):
    """A signed permutation matrix swapping two random coordinates with one
    sign, and fixing the others up to random signs: its own inverse."""
    i, j = rng.sample(range(r), 2)
    s = rng.choice((-1, 1))
    image = {i: (j, s), j: (i, s)}
    for a in range(r):
        image.setdefault(a, (a, rng.choice((-1, 1))))
    return tuple(
        tuple(Fraction(image[a][1] if image[a][0] == b else 0) for b in range(r)) for a in range(r)
    )


def descent_mu(rng, orders, r):
    """A homomorphism G -> GL_r(Q), r >= 2, conjugated by P = U D.

    The image is generated by signed permutation matrices, each moving some
    coordinate or equal to -I, in fixed proportions, so conjugation never
    cancels on a seed-dependent share of elements.  U is a fixed unitriangular
    integer matrix and D a diagonal of distinct primes from 11 to 97, so the
    entries are true fractions of one size whatever the seed.
    """
    eye = mat_identity(r)
    minus = tuple(tuple(-x for x in row) for row in eye)
    if len(orders) == 1:
        n = orders[0]
        while True:
            m = signed_permutation(rng, r)
            order = matrix_order(m)
            moves = any(m[i][i] == 0 for i in range(r))
            if order and order > 1 and n % order == 0 and moves:
                break
        gens = [m]
    else:
        sign = lambda m: m if rng.random() < 0.5 else tuple(tuple(-x for x in row) for row in m)
        t = signed_involution(rng, r)
        gens = [sign(t) if i % 2 == 0 else minus for i in range(len(orders))]
    diag = rng.sample(DESCENT_PRIMES, r)
    u = tuple(tuple(Fraction(int(j >= i)) for j in range(r)) for i in range(r))
    p = mat_mul(u, tuple(tuple(Fraction(diag[i] if i == j else 0) for j in range(r)) for i in range(r)))
    p_inv = mat_inverse(p)
    mu = {}
    for g in elements(orders):
        acc = eye
        for gen, a in zip(gens, g):
            for _ in range(a):
                acc = mat_mul(acc, gen)
        mu[g] = mat_mul(mat_mul(p, acc), p_inv)
    return mu


def first_incompatible_pair(orders, mu):
    els = elements(orders)
    for s in els:
        for t in els:
            if mat_mul(mu[s], mu[t]) != mu[add(orders, s, t)]:
                return (s, t)
    return None


def descent_item(rng, orders, r, perturb: bool) -> dict:
    mu = descent_mu(rng, orders, r)
    if perturb:
        g = rng.choice(elements(orders)[1:])
        mu[g] = tuple(tuple(2 * x for x in row) for row in mu[g])
        s, t = first_incompatible_pair(orders, mu)
        expect = {"exit": 1, "report": {"compatible": False, "violation": [list(s), list(t)]}}
    else:
        report = {
            "compatible": True,
            "eta": {"rank": r, "idempotent": True, "fixed_by_all": True, "diagonal_image_ok": True},
            "iota_equivariant": True,
        }
        expect = {"exit": 0, "report": report}
    doc = {
        "cyclic_orders": list(orders),
        "block_rank": r,
        "mu": [[list(g), [[frac(x) for x in row] for row in m]] for g, m in mu.items()],
    }
    return {"command": "descent", "doc": doc, "expect": expect}


# -- trace_tables -------------------------------------------------------------------

# roots of unity of order 1, 2, 3, 4, 6 as (a, b, d) meaning a + b sqrt(d)
TORSION_COORDS = {
    Fraction(0): (Fraction(1), Fraction(0), 1),
    Fraction(1, 2): (Fraction(-1), Fraction(0), 1),
    Fraction(1, 4): (Fraction(0), Fraction(1), -1),
    Fraction(3, 4): (Fraction(0), Fraction(-1), -1),
    Fraction(1, 3): (Fraction(-1, 2), Fraction(1, 2), -3),
    Fraction(2, 3): (Fraction(-1, 2), Fraction(-1, 2), -3),
    Fraction(1, 6): (Fraction(1, 2), Fraction(1, 2), -3),
    Fraction(5, 6): (Fraction(1, 2), Fraction(-1, 2), -3),
}


def q_json(x, d) -> dict:
    out = {"a": frac(x[0])}
    if x[1]:
        out["b"] = frac(x[1])
        out["d"] = d
    return out


def character_table(modulus, q, order):
    """Units r mod N -> torsion of e(ind_q(r) / order), a character through (Z/q)*."""
    table = {}
    if order == 1:
        return {r: Fraction(0) for r in range(modulus) if math.gcd(r, modulus) == 1}
    g = primitive_root(q)
    ind = {}
    x = 1
    for k in range(q - 1):
        ind[x] = k
        x = x * g % q
    for r in range(modulus):
        if math.gcd(r, modulus) == 1:
            table[r] = Fraction(ind[r % q] % order, order)
    return table


def trace_item(rng, d, modulus, q, order, n_entries, perturb: bool) -> dict:
    """A conjugation-compliant table over Q(sqrt d), optionally with one bad entry.

    Compliant a_p: x (1 + eps(p)) when eps(p) != -1 and x sqrt(d) otherwise;
    over a real field the involution is trivial, so eps(p) = -1 forces 0.
    """
    eps = character_table(modulus, q, order)
    ps = [p for p in PRIMES if modulus % p][:n_entries]
    real = d > 0
    a_ps = []
    for p in ps:
        t = eps[p % modulus]
        x = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
        if real:
            if t == Fraction(1, 2):
                a_ps.append((Fraction(0), Fraction(0)))
            else:
                # the first eps(p) = 1 entry has a, b != 0, so F = Q(sqrt d)
                first = not any(y[1] for y in a_ps)
                b = x if first else Fraction(rng.randint(-2, 2))
                a_ps.append((Fraction(rng.choice((-1, 1, 2))), b))
        elif t == Fraction(1, 2):
            a_ps.append((Fraction(0), x))
        else:
            a, b, _ = TORSION_COORDS[t]
            a_ps.append((x * (1 + a), x * b))
    bad = None
    if perturb:
        # w = 1 breaks the identity where eps(p) != 1, w = sqrt(d) where eps(p) = 1
        candidates = [i for i, p in enumerate(ps) if eps[p % modulus] != 0 or not real]
        bad = rng.choice(candidates)
        w = (Fraction(1), Fraction(0)) if eps[ps[bad] % modulus] != 0 else (Fraction(0), Fraction(1))
        a_ps[bad] = (a_ps[bad][0] + w[0], a_ps[bad][1] + w[1])
    entries = [{"p": p, "a_p": q_json(x, d)} for p, x in zip(ps, a_ps)]
    doc = {
        "E_generators": [d],
        "epsilon": {
            "modulus": modulus,
            "values": {str(r): frac(t) for r, t in eps.items()},
            "at_minus_one": frac(eps[modulus - 1]),
        },
        "entries": entries,
        "bad_primes": [],
    }
    generated = any(x[1] for x in a_ps)
    charpoly = []
    for p, x in zip(ps, a_ps):
        a, b, d_eps = TORSION_COORDS[eps[p % modulus]]
        charpoly.append({"p": p, "trace": q_json(x, d), "det": q_json((a * p, b * p), d_eps)})
    report = {
        "entries": [{"p": p, "conjugation_ok": i != bad} for i, p in enumerate(ps)],
        "generated_E": {"square_classes": [d], "degree": 2, "totally_real": real}
        if generated
        else FIELD_Q,
        "epsilon_even": True,
    }
    if not perturb:
        report["warnings"] = []
        report["F"] = {"square_classes": [d], "degree": 2, "totally_real": True} if real else FIELD_Q
        report["f_totally_real"] = True
        report["containment_ok"] = True
    report["charpoly"] = charpoly
    return {"command": "traces", "doc": doc, "expect": {"exit": 1 if perturb else 0, "report": report}}


# -- workload mixes -----------------------------------------------------------------
#
# Each block is one pass over a fixed mix.  Per-document times swing by about
# a tenth with the machine alone, so the median and the 90th percentile must
# each fall in the middle of a cluster of documents of one shape and cost,
# never on the edge between two clusters, or they jump between them from run
# to run.  The blocks below are ordered by cost cluster; the comments give
# the percentile range each cluster occupies.


GROUPS_16 = [(4, 4), (8, 2), (2, 2, 2, 2), (4, 2, 2)]


class Workload:
    """Seeded, deterministic stream of blocks for one workload."""

    TRIES = 1000

    def __init__(self, name: str, seed: int):
        if name not in MIXES:
            raise KeyError(name)
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self._seen: set = set()
        self.blocks = 0

    def block(self) -> list[dict]:
        return MIXES[self.name](self)

    def primes(self, orders) -> list[int]:
        """Ladder primes for a group that this run has not drawn for it yet."""
        for _ in range(self.TRIES):
            primes = self.rng.sample(LADDER_PRIMES, len(orders))
            key = (tuple(orders), tuple(primes))
            if key not in self._seen:
                self._seen.add(key)
                return primes
        raise PoolExhausted(f"no unused ladder primes left for the group {orders}")

    def fresh(self, make) -> dict:
        """An item from ``make`` whose document this run has not seen yet."""
        for _ in range(self.TRIES):
            item = make()
            key = hashlib.sha256(json.dumps(item["doc"], sort_keys=True).encode()).digest()
            if key not in self._seen:
                self._seen.add(key)
                return item
        raise PoolExhausted(f"no unused {self.name} document left")

    def scale_prime(self, primes) -> int:
        return self.rng.choice([p for p in LADDER_PRIMES if p not in primes])


def construct_block(w: Workload) -> list[dict]:
    """40 documents: 10 on Z/2 (0-25%); 22 on Z/4 and Z/2 x Z/2 (25-80%, the
    median); 4 on (Z/2)^3 and 3 on Z/4 x Z/2, which cost about the same
    (80-97.5%, the 90th percentile in their middle); and one at |G| = 16,
    Z/16 and Z/4 x Z/4 in turn, which takes about a third of the block's
    time."""
    top = (16,) if w.blocks % 2 == 0 else (4, 4)
    w.blocks += 1
    shapes = [(2,)] * 10 + [(4,), (2, 2)] * 11 + [(2, 2, 2), (4, 2)] * 3 + [(2, 2, 2), top]
    rungs = ["G=2"] * 10 + ["G=4"] * 22 + ["G=8"] * 7 + ["G=16"]
    return [construct_item(o, w.primes(o)) | {"rung": r} for o, r in zip(shapes, rungs)]


def reject_block(w: Workload) -> list[dict]:
    """20 documents at |G| = 16: 6 early-exit invalid cocycles through
    validate-cocycle and construct (0-30%); 8 degree-identity violations on
    Z/4 x Z/4 and Z/8 x Z/2, each after a full clean scan (30-70%, the
    median), and 2 more on (Z/2)^4 and Z/4 x Z/2 x Z/2 (70-80%); 4 obstructed
    splits on (Z/2)^4: two clean scans, a split and the commutator pairing
    (80-100%, the 90th percentile)."""
    items = []
    for i, o in enumerate(GROUPS_16 + GROUPS_16[:2]):
        primes = w.primes(o)
        command = "validate-cocycle" if i % 2 else "construct"
        items.append(invalid_cocycle_item(w.rng, o, primes, w.scale_prime(primes), command))
    for o in [(4, 4), (8, 2)] * 4 + [(2, 2, 2, 2), (4, 2, 2)]:
        primes = w.primes(o)
        items.append(degree_violation_item(w.rng, o, primes, w.scale_prime(primes)))
    for o in [(2, 2, 2, 2)] * 4:
        items.append(obstructed_split_item(o, w.primes(o)))
    rungs = ["invalid"] * 6 + ["degree"] * 10 + ["obstructed"] * 4
    return [item | {"rung": r} for item, r in zip(items, rungs)]


def descent_block(w: Workload) -> list[dict]:
    """40 documents of rank 2-3 (rank 1 leaves only the matrices +-1, so its
    documents could not be distinct): 6 perturbed and 4 small at rank 2
    (0-25%), 20 at |G| = 4 rank 3 (25-75%, the median), 9 on Z/8 rank 2
    (75-97.5%, the 90th percentile in their middle) and one on (Z/2)^4
    rank 2, which takes about a third of the block's time."""
    perturbed = [((8,), 2), ((2, 2, 2), 2), ((16,), 2)] * 2
    shapes = (
        [((4,), 2), ((2, 2), 2)] * 2
        + [((4,), 3), ((2, 2), 3)] * 10
        + [((8,), 2)] * 9
        + [((2, 2, 2, 2), 2)]
    )
    items = [w.fresh(lambda: descent_item(w.rng, o, r, True)) for o, r in perturbed]
    items += [w.fresh(lambda: descent_item(w.rng, o, r, False)) for o, r in shapes]
    rungs = ["small"] * 10 + ["mid"] * 20 + ["large"] * 9 + ["G=16"]
    return [item | {"rung": r} for item, r in zip(items, rungs)]


# (d, q, order): E = Q(sqrt d) and an even character of that order through
# (Z/q)*, chosen so that every compliant table passes every check.
REAL_DESIGNS = [(5, 2), (13, 2), (17, 2), (29, 2), (None, 1)]
IMAGINARY_DESIGNS = {-1: [(17, 4), (41, 4), (5, 2), (13, 2)], -3: [(7, 3), (13, 3), (13, 6), (37, 6), (19, 3)]}
REAL_CLASSES = [d for d in range(2, 40) if squarefree(d)]


def phi(n: int) -> int:
    result, rest = n, n
    for p in PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
    return result - result // rest if rest > 1 else result


def trace_doc(w: Workload, kind: int, entries: int, moduli: range, perturb: bool, phi_range=None):
    if kind == 0:
        d = w.rng.choice(REAL_CLASSES)
        designs = [x for x in REAL_DESIGNS if x[1] > 1] if perturb else REAL_DESIGNS
    else:
        d = -1 if kind == 1 else -3
        designs = IMAGINARY_DESIGNS[d]
    options = []
    for q, order in designs:
        step = q or 1
        candidates = [
            n
            for n in moduli
            if n % step == 0
            and n >= 3
            and (q is None or math.gcd(n // q, q) == 1)
            and (phi_range is None or phi(n) in phi_range)
        ]
        if candidates:
            options.append((q, order, candidates))
    q, order, candidates = w.rng.choice(options)
    modulus = w.rng.choice(candidates)
    return w.fresh(lambda: trace_item(w.rng, d, modulus, q or 1, order, entries, perturb))


def traces_block(w: Workload) -> list[dict]:
    """20 tables, a quarter of them perturbed: 6 with 30-100 entries over
    real and imaginary fields (0-30%), 8 with 200 over Q(i) and a quartic
    character modulo 51 (30-70%, the median: one design, so one cost), 2
    with 1000 over Q(i) (70-80%), and 4 with 100 entries modulo
    some N near 1000 with phi(N) = 192, where the O(phi(N)^2) character
    check dominates (80-100%, the 90th percentile)."""
    items = [trace_doc(w, i % 3, w.rng.randint(30, 100), range(3, 61), i % 3 == 1) for i in range(6)]
    items += [trace_doc(w, 1, 200, range(51, 52), i % 4 == 1) for i in range(8)]
    items += [trace_doc(w, 1, 1000, range(40, 61), i == 1) for i in range(2)]
    items += [trace_doc(w, i % 3, 100, range(700, 1100), False, range(192, 193)) for i in range(4)]
    rungs = ["small"] * 6 + ["mid"] * 8 + ["1000"] * 2 + ["phi192"] * 4
    return [item | {"rung": r} for item, r in zip(items, rungs)]


MIXES = {
    "construct_ladder": construct_block,
    "reject_mix": reject_block,
    "descent_ladder": descent_block,
    "trace_tables": traces_block,
}
