"""The Dirichlet character check on generators, against the full pair scan.

``DirichletCharacterData`` checks multiplicativity on greedy generators of
(Z/N)^* with integer torsion numerators, and scans every pair of units only
after that check fails.  ``helpers.character_check_oracle`` scans every pair
with radical products.  Both must give the same verdict and, on a failing
table, the same message with the same first pair.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from qcurves import traces
from qcurves.radicals import RadicalElement
from qcurves.traces import DirichletCharacterData

from helpers import character_check_oracle

SMALL_MODULI = [1, 2, 4, 8, 16, 3, 9, 27, 81, 243, 5, 25, 125, 7, 49, 11, 121, 13, 169, 17, 289]


def multiplicative_order(g: int, q: int) -> int:
    n, x = 1, g % q
    while x != 1 % q:
        x, n = x * g % q, n + 1
    return n


def unit_group_basis(modulus: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """For each prime power q || N, independent generators of (Z/q)^* with their
    orders: a primitive root for odd q and for q = 2, 4; -1 and 5 for q = 2^k, k >= 3."""
    basis = []
    for p, e in sorted(factorint(modulus).items()):
        q = p**e
        if p == 2 and e >= 3:
            basis.append((q, [(q - 1, 2), (5, q // 4)]))
        else:
            n = q - q // p
            units = (g for g in range(1, q + 1) if math.gcd(g, q) == 1)
            g = next(g for g in units if multiplicative_order(g, q) == n)
            basis.append((q, [(g, n)]))
    return basis


def character_values(modulus: int, indices: list[list[int]]) -> dict[int, RadicalElement]:
    """The character sending the j-th generator of the q-component to e(index / order)."""
    torsion = {r: Fraction(0) for r in range(modulus) if math.gcd(r, modulus) == 1}
    for (q, gens), component in zip(unit_group_basis(modulus), indices):
        logs = {1 % q: Fraction(0)}  # unit mod q -> its torsion under this component
        for (g, n), j in zip(gens, component):
            step = Fraction(j, n)
            logs = {x * pow(g, a, q) % q: t + a * step for x, t in logs.items() for a in range(n)}
        for r in torsion:
            torsion[r] += logs[r % q]
    return {r: RadicalElement.root_of_unity(t) for r, t in torsion.items()}


def verdict(modulus, values, at_minus_one=None):
    try:
        DirichletCharacterData(modulus, values, at_minus_one)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def character_tables(draw):
    """A character from random generator values, with 0-3 perturbations: one
    residue's value changed, dropped or made irrational, or a whole coset
    c<u> of the subgroup spanned by one of the smallest units u scaled by a
    root of unity, which keeps chi(r u) = chi(r) chi(u) for every r."""
    modulus = draw(st.one_of(st.sampled_from(SMALL_MODULI), st.integers(1, 300)))
    indices = [
        [draw(st.integers(0, n - 1)) for _, n in gens] for _, gens in unit_group_basis(modulus)
    ]
    values = character_values(modulus, indices)
    units = sorted(values)
    for _ in range(draw(st.integers(0, 3))):
        r = units[draw(st.integers(0, len(units) - 1))]
        kind = draw(st.sampled_from(["torsion"] * 3 + ["coset"] * 2 + ["missing", "irrational"]))
        if r not in values:
            continue
        if kind == "coset" and len(units) <= 2:
            kind = "torsion"
        if kind == "coset":
            u = units[draw(st.integers(1, min(3, len(units) - 1)))]
            coset, x = set(), r
            while x not in coset:
                coset.add(x)
                x = x * u % modulus
            scale = RadicalElement.root_of_unity(Fraction(1, draw(st.integers(2, 6))))
            for x in coset & values.keys():
                values[x] = values[x] * scale
        elif kind == "torsion":
            den = draw(st.integers(2, 12))
            shift = Fraction(draw(st.integers(1, den - 1)), den)
            values[r] = RadicalElement.root_of_unity(values[r].torsion + shift)
        elif kind == "missing":
            del values[r]
        else:
            values[r] = RadicalElement.prime_power(2, Fraction(1, 2))
    declared = draw(st.sampled_from([None, "table", "other"]))
    at_minus_one = None
    if declared is not None and (-1) % modulus in values:
        at_minus_one = values[(-1) % modulus]
        if declared == "other":
            at_minus_one = at_minus_one * RadicalElement.root_of_unity(Fraction(1, 3))
    return modulus, values, at_minus_one


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(character_tables())
@example((1, {0: RadicalElement.one()}, None))
@example((8, character_values(8, [[1, 2]]), None))
def test_generator_check_matches_the_pair_scan(table):
    modulus, values, at_minus_one = table
    expected = character_check_oracle(modulus, values, at_minus_one)
    assert verdict(modulus, values, at_minus_one) == expected


@pytest.mark.parametrize("modulus", SMALL_MODULI + [12, 15, 24, 60, 105, 240, 255, 280])
def test_greedy_generators_span_the_unit_group(modulus):
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    span = {1 % modulus}
    for g in traces._greedy_generators(modulus, units):
        assert g not in span  # each generator is new when it is taken
        while True:
            grown = span | {s * g % modulus for s in span}
            if grown == span:
                break
            span = grown
    assert span == set(units)


@pytest.mark.parametrize("modulus", [1, 2, 4, 8, 9, 25, 27, 49, 105, 240, 780])
def test_valid_characters_never_run_the_pair_scan(modulus, monkeypatch):
    check = traces.first_failing_pair

    def generators_only(table, generators, op):
        # the generator check applies op once per (unit, generator); the pair
        # scan would apply it again, at least once
        calls = []

        def counting(r, s):
            calls.append((r, s))
            return op(r, s)

        assert check(table, generators, counting) is None
        assert len(calls) == len(table) * len(generators)

    monkeypatch.setattr(traces, "first_failing_pair", generators_only)
    for indices in (
        [[0] * len(gens) for _, gens in unit_group_basis(modulus)],
        [[1] * len(gens) for _, gens in unit_group_basis(modulus)],
        [[n - 1 for _, n in gens] for _, gens in unit_group_basis(modulus)],
    ):
        DirichletCharacterData(modulus, character_values(modulus, indices))


def test_missing_residue_is_found_without_listing_the_units(monkeypatch):
    residues = []

    def gcd(r, n):
        residues.append(r)
        return math.gcd(r, n)

    monkeypatch.setattr(traces, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    with pytest.raises(ValueError, match=r"^character table missing residue 3$"):
        DirichletCharacterData(10**6, {1: RadicalElement.one()})
    assert residues == [0, 1, 2, 3]
