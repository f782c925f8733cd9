"""The O(|G|^3) cocycle-identity scan runs once per cocycle, and only where needed.

A ``TwoCocycle`` keeps the result of its first scan.  ``split_cocycle``
tests symmetry first: a symmetric table gets the canonical splitting and is
scanned only when that fails, and a non-symmetric one, which can never
split, is scanned without building a cochain.  Its pairing divides once per
distinct pair of values, and parsing reads each distinct spelling of a value
once.  Invalid input is still rejected by every public entry point with the
same exception and the same first failing triple.
"""

import json
import random
from pathlib import Path

import pytest

from qcurves import cohomology, serialize
from qcurves.algebra import TwistedGroupAlgebra
from qcurves.cli import main
from qcurves.cohomology import TwoCocycle, split_cocycle
from qcurves.errors import InvalidCocycle
from qcurves.groups import FiniteAbelianGroup
from qcurves.pipeline import QCurveDatum, brauer_order, construct_gl2_type
from qcurves.radicals import RadicalElement

from helpers import counting, counting_function, klein_alternating_cocycle, random_cochain

GOLDEN = Path(__file__).parent / "golden"
Z4 = FiniteAbelianGroup((4,))


@pytest.fixture
def scans(monkeypatch):
    """Count the full identity scans of every TwoCocycle."""
    return counting(monkeypatch, TwoCocycle, "_scan")


def invalid_cocycle() -> TwoCocycle:
    """A Z/4 table whose identity first fails at a triple past the first few."""
    three = RadicalElement.from_rational(3)
    values = {((g,), (h,)): three for g in range(4) for h in range(4) if g + h >= 4}
    values[((2,), (3,))] = RadicalElement.from_rational(5)
    return TwoCocycle(Z4, values)


@pytest.mark.parametrize(
    "case", ["construct_z4", "construct_z2_cubed", "construct_z4_z2", "construct_obstructed"]
)
def test_construct_cli_scans_once(case, scans, capsys):
    main(["construct", str(GOLDEN / f"{case}.json")])
    capsys.readouterr()
    assert scans["n"] == 1


@pytest.mark.parametrize(
    "command, case", [("split", "split_obstructed"), ("algebra", "algebra_imaginary")]
)
def test_split_and_algebra_cli_scan_once(command, case, scans, capsys):
    main([command, str(GOLDEN / f"{case}.json")])
    capsys.readouterr()
    assert scans["n"] == 1


def test_split_of_a_valid_splittable_cocycle_does_not_scan(scans, monkeypatch):
    builds = counting_function(monkeypatch, cohomology._canonical_cochain)
    rng = random.Random(5)
    for orders in ((2,), (4,), (2, 2), (4, 2)):
        c = random_cochain(rng, FiniteAbelianGroup(orders)).coboundary()
        assert split_cocycle(c).split
    assert scans["n"] == 0
    assert builds["n"] == 4


def test_split_of_an_obstructed_cocycle_scans_once(scans, monkeypatch):
    builds = counting_function(monkeypatch, cohomology._canonical_cochain)
    result = split_cocycle(klein_alternating_cocycle())
    assert not result.split
    assert scans["n"] == 1
    assert builds["n"] == 0


def test_obstructed_split_cli_builds_no_cochain(scans, monkeypatch, capsys):
    builds = counting_function(monkeypatch, cohomology._canonical_cochain)
    assert main(["split", str(GOLDEN / "split_obstructed.json")]) == 1
    capsys.readouterr()
    assert (scans["n"], builds["n"]) == (1, 0)


def sign_document(orders) -> dict:
    """The cocycle (g, h) -> (-1)^(g_0 h_1), written with "-1" entries only:
    |G|^2 / 2 pairs with c(g, h) != c(h, g), and two distinct value pairs."""
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    values = [[list(g), list(h), "-1"] for g in elements for h in elements if g[0] * h[1] % 2]
    return {"cyclic_orders": list(orders), "values": values}


@pytest.mark.parametrize(
    "doc",
    [json.loads((GOLDEN / "split_obstructed.json").read_text()), sign_document((2, 2, 2, 2))],
    ids=["split_obstructed", "sign_2x2x2x2"],
)
def test_pairing_divides_once_per_distinct_value_pair(doc, monkeypatch):
    group = serialize.group_from_json(doc["cyclic_orders"])
    c = serialize.cocycle_from_json(doc, group)
    pairs = {(c(g, h), c(h, g)) for g, h in c.values()}
    divisions = counting(monkeypatch, RadicalElement, "__truediv__")
    result = split_cocycle(c)
    assert not result.split
    assert 0 < divisions["n"] <= len({(v, w) for v, w in pairs if v != w})


def scaled_sign_document(orders) -> dict:
    """The sign cocycle of ``sign_document`` times 2 on every pair, written
    with "2" and "-2" entries only, so c(1, 1) = 2 and every value divides."""
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    values = [
        [list(g), list(h), "-2" if g[0] * h[1] % 2 else "2"] for g in elements for h in elements
    ]
    return {"cyclic_orders": list(orders), "values": values}


def test_normalization_divides_once_per_distinct_value(monkeypatch):
    doc = scaled_sign_document((2, 2, 2, 2))
    group = serialize.group_from_json(doc["cyclic_orders"])
    divisions = counting(monkeypatch, RadicalElement, "__truediv__")
    c = serialize.cocycle_from_json(doc, group)
    assert divisions["n"] == 2
    assert c == serialize.cocycle_from_json(sign_document((2, 2, 2, 2)), group)
    # the quotients are shared like the parsed values, so the pairing of the
    # obstructed split divides once per distinct value pair as well
    divisions["n"] = 0
    assert not split_cocycle(c).split
    assert divisions["n"] == 2


@pytest.mark.parametrize(
    "spellings", [["3/1"], ["3/1", 3, "3", "6/2"], ["-1/1", "2", 5, "7/3", "1/1"]]
)
def test_cocycle_parses_each_spelling_once(spellings, monkeypatch):
    group = FiniteAbelianGroup((4, 2))
    elements = group.elements()
    triples = [
        [list(g), list(h), spellings[i % len(spellings)]]
        for i, (g, h) in enumerate((g, h) for g in elements for h in elements)
    ]
    parses = counting_function(monkeypatch, serialize.parse_fraction)
    serialize.cocycle_from_json(triples, group)
    assert parses["n"] == len(spellings)


def test_repeated_violation_calls_scan_once(scans):
    c = invalid_cocycle()
    first = c.violation()
    assert first is not None
    assert c.violation() == first
    assert scans["n"] == 1


def test_invalid_cocycle_rejected_with_its_first_triple():
    triple = invalid_cocycle().violation()
    message = f"cocycle identity fails at {triple}"
    with pytest.raises(InvalidCocycle) as err:
        split_cocycle(invalid_cocycle())
    assert str(err.value) == message
    with pytest.raises(InvalidCocycle) as err:
        TwistedGroupAlgebra(Z4, invalid_cocycle())
    assert str(err.value) == message


def test_invalid_datum_rejected_by_construct_and_brauer_order():
    datum = QCurveDatum(Z4, {(g,): 1 for g in range(4)}, invalid_cocycle())
    violation = datum.violation()
    assert violation is not None
    for entry in (construct_gl2_type, brauer_order):
        with pytest.raises(ValueError) as err:
            entry(datum)
        assert str(err.value) == f"invalid datum: {violation}"
