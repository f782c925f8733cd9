"""The O(|G|^3) cocycle-identity scan runs once per cocycle, and only where needed.

A ``TwoCocycle`` keeps the result of its first scan; ``split_cocycle`` tries
the canonical splitting first and scans only when it fails.  Invalid input
is still rejected by every public entry point with the same exception and
the same first failing triple.
"""

import random
from pathlib import Path

import pytest

from qcurves.algebra import TwistedGroupAlgebra
from qcurves.cli import main
from qcurves.cohomology import TwoCocycle, split_cocycle
from qcurves.errors import InvalidCocycle
from qcurves.groups import FiniteAbelianGroup
from qcurves.pipeline import QCurveDatum, brauer_order, construct_gl2_type
from qcurves.radicals import RadicalElement

from helpers import klein_alternating_cocycle, random_cochain

GOLDEN = Path(__file__).parent / "golden"
Z4 = FiniteAbelianGroup((4,))


@pytest.fixture
def scans(monkeypatch):
    """Count the full identity scans of every TwoCocycle."""
    counter = {"n": 0}
    original = TwoCocycle._scan

    def counting(self):
        counter["n"] += 1
        return original(self)

    monkeypatch.setattr(TwoCocycle, "_scan", counting)
    return counter


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


def test_split_of_a_valid_splittable_cocycle_does_not_scan(scans):
    rng = random.Random(5)
    for orders in ((2,), (4,), (2, 2), (4, 2)):
        c = random_cochain(rng, FiniteAbelianGroup(orders)).coboundary()
        assert split_cocycle(c).split
    assert scans["n"] == 0


def test_split_of_an_obstructed_cocycle_scans_once(scans):
    result = split_cocycle(klein_alternating_cocycle())
    assert not result.split
    assert scans["n"] == 1


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
