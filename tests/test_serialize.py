"""Round trips and strictness of the JSON document formats."""

import contextlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurves import serialize
from qcurves.arith import INPUT_BITS
from qcurves.cohomology import OneCochain, TwoCocycle
from qcurves.errors import InputLimit
from qcurves.fields import QuadraticElement
from qcurves.groups import FiniteAbelianGroup
from qcurves.radicals import RadicalElement
from qcurves.serialize import ParseError
from qcurves.traces import DirichletCharacterData

from helpers import random_cochain, random_radical

Z2 = FiniteAbelianGroup((2,))


def test_radical_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        x = random_radical(rng)
        assert serialize.radical_from_json(serialize.radical_to_json(x)) == x


def test_radical_accepts_bare_rationals():
    assert serialize.radical_from_json(-6) == RadicalElement.from_rational(-6)
    assert serialize.radical_from_json("3/2") == RadicalElement.from_rational(Fraction(3, 2))


def test_radical_canonical_fraction_strings():
    doc = serialize.radical_to_json(RadicalElement.prime_power(2, Fraction(1, 2)))
    assert doc == {"torsion": "0/1", "exponents": {"2": "1/2"}}


def test_radical_rejects_garbage():
    with pytest.raises(ParseError):
        serialize.radical_from_json({"torsion": "x"})
    with pytest.raises(ParseError):
        serialize.radical_from_json([1, 2])
    with pytest.raises(ParseError):
        serialize.radical_from_json({"exponents": {"4": "1/2"}})  # 4 is not prime


def test_cochain_and_cocycle_round_trip():
    rng = random.Random(2)
    group = FiniteAbelianGroup((2, 2))
    a = random_cochain(rng, group)
    assert serialize.cochain_from_json(serialize.cochain_to_json(a), group) == a
    c = a.coboundary()
    assert serialize.cocycle_from_json(serialize.cocycle_to_json(c), group) == c


def test_cocycle_missing_pairs_default_to_one():
    c = serialize.cocycle_from_json([], Z2)
    assert all(v.is_one for v in c.values().values())


def test_qcurve_datum_round_trip():
    doc = {
        "cyclic_orders": [2],
        "degrees": [[[1], 2]],
        "cocycle": [[[1], [1], {"torsion": "1/2", "exponents": {"2": "1/1"}}]],
    }
    datum = serialize.qcurve_datum_from_json(doc)
    assert datum.degrees[(1,)] == 2
    assert datum.cocycle((1,), (1,)) == RadicalElement.from_rational(-2)
    assert datum.violation() is None


def test_datum_rejects_malformed():
    with pytest.raises(ParseError):
        serialize.qcurve_datum_from_json({"cyclic_orders": [2], "degrees": "no"})
    with pytest.raises(ParseError):
        serialize.qcurve_datum_from_json(
            {"cyclic_orders": [2], "degrees": [[[5], 1]], "cocycle": []}
        )


def test_descent_datum_round_trip():
    doc = {
        "cyclic_orders": [2],
        "block_rank": 2,
        "mu": [
            [[0], [["1/1", "0/1"], ["0/1", "1/1"]]],
            [[1], [["-1/1", "0/1"], ["0/1", "1/1"]]],
        ],
    }
    datum = serialize.descent_datum_from_json(doc)
    assert datum.mu[(1,)][0][0] == Fraction(-1)


def test_descent_datum_shape_errors():
    with pytest.raises(ParseError):
        serialize.descent_datum_from_json(
            {"cyclic_orders": [2], "block_rank": 2, "mu": [[[0], [[1, 0]]]]}
        )


# -- size limits, each tested at its boundary only ----------------------------------


@pytest.mark.parametrize("orders", [[256], [2] * 8, [4, 4, 16], [16, 16]], ids=str)
def test_group_at_the_order_limit_is_accepted(orders):
    assert serialize.group_from_json(orders).order == serialize.MAX_GROUP_ORDER


@pytest.mark.parametrize(
    "orders", [[257], [2] * 9, [2] * 10**5, [129, 2], [10**12], [2, 10**4000]], ids=str
)
def test_group_past_the_order_limit_is_refused_unenumerated(orders, monkeypatch):
    def enumerate_elements(self):
        raise AssertionError("elements enumerated")

    monkeypatch.setattr(FiniteAbelianGroup, "elements", enumerate_elements)
    with pytest.raises(InputLimit, match="past the input limit of 256"):
        serialize.group_from_json(orders)


def test_block_rank_at_the_limit_is_accepted():
    eye = [[int(i == j) for j in range(16)] for i in range(16)]
    doc = {"cyclic_orders": [], "block_rank": 16, "mu": [[[], eye]]}
    assert serialize.descent_datum_from_json(doc).block_rank == serialize.MAX_BLOCK_RANK


@pytest.mark.parametrize("block_rank", [17, 10**12])
def test_block_rank_past_the_limit_is_refused_before_the_matrices(block_rank):
    # "mu" would be refused too, but the rank is checked before it is read
    doc = {"cyclic_orders": [2], "block_rank": block_rank, "mu": "unread"}
    with pytest.raises(InputLimit, match="the block rank is past the input limit of 16"):
        serialize.descent_datum_from_json(doc)


def test_quadratic_element_round_trip():
    x = QuadraticElement(Fraction(1, 2), Fraction(-3), -7)
    assert serialize.quadratic_from_json(serialize.quadratic_to_json(x)) == x
    assert serialize.quadratic_from_json("5/3") == QuadraticElement.from_rational(Fraction(5, 3))
    radical_doc = {"torsion": "0/1", "exponents": {"2": "1/2"}}
    assert serialize.quadratic_from_json(radical_doc) == QuadraticElement(0, 1, 2)


def test_character_round_trip():
    from helpers import chi_mod8

    chi = chi_mod8()
    doc = serialize.character_to_json(chi)
    assert doc["at_minus_one"] == "0/1"
    parsed = serialize.character_from_json(doc)
    assert parsed.modulus == 8
    assert parsed(3) == RadicalElement.minus_one()


def test_trace_table_round_trip():
    doc = {
        "E_generators": [-1],
        "epsilon": {"modulus": 4, "values": {"1": "0/1", "3": "1/2"}},
        "entries": [
            {"p": 5, "a_p": "2/1"},
            {"p": 3, "a_p": {"a": "0/1", "b": "1/1", "d": -1}},
            {"p": 7, "a_p": "0/1", "good": False},
        ],
        "bad_primes": [11],
    }
    table = serialize.trace_table_from_json(doc)
    assert table.bad_primes == frozenset({7, 11})
    assert [e.p for e in table.entries] == [3, 5, 7]
    assert table.epsilon(3) == RadicalElement.minus_one()


def test_trace_table_strictness():
    with pytest.raises(ParseError):
        serialize.trace_table_from_json({"entries": "x"})
    with pytest.raises(ParseError):
        serialize.trace_table_from_json(
            {"E_generators": ["2"], "entries": []}
        )


# -- size bound -------------------------------------------------------------------------

LIMIT = 2**INPUT_BITS  # the least magnitude past the bound

SIZED = {
    "degree": lambda n: serialize.qcurve_datum_from_json(
        {"cyclic_orders": [2], "degrees": [[[1], n]]}
    ),
    "trace_p": lambda n: serialize.trace_table_from_json({"entries": [{"p": n, "a_p": "1/1"}]}),
    "frobenius_p": lambda n: serialize.frobenius_assignment_from_json([{"p": n, "class": [1]}], Z2),
    "e_generator": lambda n: serialize.trace_table_from_json({"E_generators": [n], "entries": []}),
    "quadratic_d": lambda n: serialize.quadratic_from_json({"a": "0/1", "b": "1/1", "d": n}),
    "exponent_prime": lambda n: serialize.radical_from_json({"exponents": {str(n): "1/2"}}),
    "cocycle_value": lambda n: serialize.cocycle_from_json([[[1], [1], str(n)]], Z2),
}


@pytest.mark.parametrize("case", sorted(SIZED))
def test_numbers_are_bounded_where_they_enter(case):
    # 2^511 has 512 bits: it passes the bound, though a later check of the
    # value itself (prime, squarefree) may refuse it
    with contextlib.suppress(ParseError):
        SIZED[case](LIMIT // 2)
    with pytest.raises(InputLimit, match="input limit of 512 bits"):
        SIZED[case](LIMIT)


# -- round-trip properties ------------------------------------------------------------------

SHAPES = [(2,), (3,), (4,), (2, 2), (2, 3)]
# 2^61 - 1 is a Mersenne prime below the exact primality bound
radicals = st.builds(
    RadicalElement,
    st.fractions(0, 1, max_denominator=24),
    st.dictionaries(
        st.sampled_from((2, 3, 5, 7, 2**61 - 1)),
        st.fractions(-(10**6), 10**6, max_denominator=12),
        max_size=3,
    ),
)


def through_json(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=100, deadline=None)
@given(radicals)
def test_radical_round_trip_property(x):
    assert serialize.radical_from_json(through_json(serialize.radical_to_json(x))) == x


@st.composite
def cocycles(draw):
    group = FiniteAbelianGroup(draw(st.sampled_from(SHAPES)))
    elements = group.elements()
    return TwoCocycle(group, {(g, h): draw(radicals) for g in elements for h in elements})


@settings(max_examples=40, deadline=None)
@given(cocycles())
def test_cocycle_round_trip_property(c):
    doc = through_json(serialize.cocycle_to_json(c))
    assert serialize.cocycle_from_json(doc, c.group) == c


@st.composite
def cochains(draw):
    group = FiniteAbelianGroup(draw(st.sampled_from(SHAPES)))
    values = {g: draw(radicals) for g in group.elements()}
    values[group.identity] = RadicalElement.one()
    return OneCochain(group, values)


@settings(max_examples=60, deadline=None)
@given(cochains())
def test_cochain_round_trip_property(a):
    doc = through_json(serialize.cochain_to_json(a))
    assert serialize.cochain_from_json(doc, a.group) == a


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
    st.sampled_from((1, -1, 2, -2, 3, -3, 5, 6, -7, 10, -15, 2 * 3 * 5 * 7 * 11 * 13)),
)
def test_quadratic_round_trip_property(a, b, d):
    x = QuadraticElement(a, b, d)
    assert serialize.quadratic_from_json(through_json(serialize.quadratic_to_json(x))) == x


@st.composite
def dirichlet_characters(draw):
    """A character mod N, for N = 1 or 4 times up to two odd primes: the
    product of characters of the cyclic factors of (Z/N)^*, each given by
    chi(g^k) = e(j k / n) on a generator g of order n."""
    parts = [(4, 3, 2)] if draw(st.booleans()) else []
    for p in sorted(draw(st.sets(st.sampled_from((3, 5, 7, 11, 13)), max_size=2))):
        g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        parts.append((p, g, p - 1))
    modulus = math.prod(m for m, _, _ in parts)
    logs = []
    for m, g, n in parts:
        j = draw(st.integers(0, n - 1))
        logs.append((m, {pow(g, k, m): Fraction(j * k, n) for k in range(n)}))
    values = {
        r: RadicalElement.root_of_unity(sum((t[r % m] for m, t in logs), Fraction(0)))
        for r in range(modulus)
        if math.gcd(r, modulus) == 1
    }
    return DirichletCharacterData(modulus, values)


@settings(max_examples=60, deadline=None)
@given(dirichlet_characters())
def test_character_round_trip_property(chi):
    parsed = serialize.character_from_json(through_json(serialize.character_to_json(chi)))
    assert (parsed.modulus, parsed.values, parsed.value_at_minus_one) == (
        chi.modulus,
        chi.values,
        chi.value_at_minus_one,
    )
