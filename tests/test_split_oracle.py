"""split_cocycle against the route that builds a cochain for every table.

``split_cocycle`` tests symmetry first, so a non-symmetric table never
builds a cochain, and its pairing divides once per distinct pair of value
objects.  ``helpers.split_oracle`` builds and checks the canonical cochain on
every table and divides for every pair.  On every shape of order at most 16
both give the same split flag, cochain and obstruction table, or the same
InvalidCocycle message.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcurves.cohomology import TwoCocycle, split_cocycle
from qcurves.errors import InvalidCocycle
from qcurves.groups import FiniteAbelianGroup
from qcurves.radicals import RadicalElement

from helpers import random_cochain, random_radical, split_oracle


def shapes(limit: int, prefix=()) -> list[tuple[int, ...]]:
    """Every tuple of cyclic orders >= 2 whose product is at most limit."""
    out = []
    for n in range(2, limit + 1):
        out.append(prefix + (n,))
        out.extend(shapes(limit // n, prefix + (n,)))
    return out


SHAPES = shapes(16)
KINDS = ["coboundary", "bicharacter", "perturbed", "scaled"]


def bicharacter(group: FiniteAbelianGroup, i: int, j: int) -> dict:
    """(g, h) -> e(g_i h_j / d), d = gcd(n_i, n_j): the sign (-1)^(g_i h_j) when
    d = 2.  It is a cocycle, symmetric when i = j, and obstructed when i != j
    and d > 1."""
    d = math.gcd(group.cyclic_orders[i], group.cyclic_orders[j])
    return {
        (g, h): RadicalElement.root_of_unity(Fraction(g[i] * h[j], d))
        for g in group.elements()
        for h in group.elements()
    }


def nontrivial_radical(rng: random.Random) -> RadicalElement:
    while True:
        r = random_radical(rng)
        if not r.is_one:
            return r


def table(rng: random.Random, group: FiniteAbelianGroup, kind: str) -> dict:
    """A coboundary, or a coboundary times a bicharacter; "perturbed" then
    changes one entry, and "scaled" multiplies every entry by one radical so
    that c(1, 1) != 1 and normalization gives every value a fresh object.
    The other kinds share one object per distinct value, as parsed tables do;
    for some tables the cochain takes few values, or roots of unity only, so
    that many pairs share their values."""
    few = {"torsion_dens": (1, 2), "exponent_dens": (1,), "primes": (2,)}
    cochain = random_cochain(rng, group, **rng.choice([{}, few, {"primes": ()}]))
    values = cochain.coboundary().values()
    if kind != "coboundary" and (kind == "bicharacter" or rng.random() < 0.5):
        n = len(group.cyclic_orders)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        b = bicharacter(group, i, j)
        values = {key: v * b[key] for key, v in values.items()}
    if kind == "perturbed":
        key = rng.choice(sorted(values))
        values[key] = values[key] * nontrivial_radical(rng)
    if kind == "scaled":
        s = nontrivial_radical(rng)
        return {key: v * s for key, v in values.items()}
    shared: dict = {}
    return {key: shared.setdefault(v, v) for key, v in values.items()}


def outcome(split, group: FiniteAbelianGroup, values: dict):
    try:
        return split(TwoCocycle(group, values))
    except InvalidCocycle as exc:
        return str(exc)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(KINDS), rng=st.randoms(use_true_random=False))
def test_split_matches_the_cochain_first_oracle(shape, kind, rng):
    group = FiniteAbelianGroup(shape)
    values = table(rng, group, kind)
    assert outcome(split_cocycle, group, values) == outcome(split_oracle, group, values)


def test_every_verdict_occurs():
    rng = random.Random(11)
    seen = set()
    for shape in ((2, 2), (4, 2), (4, 4), (2, 2, 2)):
        group = FiniteAbelianGroup(shape)
        for kind in KINDS:
            for _ in range(4):
                result = outcome(split_cocycle, group, table(rng, group, kind))
                seen.add(result if isinstance(result, str) else result.split)
    assert True in seen and False in seen
    assert any(isinstance(v, str) and v.startswith("cocycle identity fails") for v in seen)
