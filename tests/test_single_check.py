"""The datum, the splitting and descent compatibility are each checked once.

A ``QCurveDatum`` keeps the result of its first ``violation()`` call, a
``TwoCocycle`` its first splitting attempt, and a ``DescentDatum`` its first
compatibility scan, so the guards of every downstream entry point reuse them.  Invalid input is still rejected with the
same exception types and messages.  A compatible descent checks the identity
on generators only and runs no block algebra.
"""

import json
import random
from pathlib import Path

import pytest

from qcurves import cohomology, fields, groups, linalg, serialize
from qcurves.algebra import AlgebraHom, TwistedGroupAlgebra, hom_from_splitting
from qcurves.cli import main
from qcurves.cohomology import OneCochain
from qcurves.descent import (
    BlockMap,
    DescentDatum,
    build_restriction,
    compatibility_violation,
    eta_descent,
    iota_equivariance_violation,
)
from qcurves.errors import CompatibilityRequired
from qcurves.pipeline import QCurveDatum
from qcurves.radicals import RadicalElement

from helpers import counting, counting_function, eta_oracle, random_descent_datum

GOLDEN = Path(__file__).parent / "golden"


def golden_doc(case):
    return json.loads((GOLDEN / f"{case}.json").read_text())


@pytest.mark.parametrize("case", ["construct_z4", "construct_z2_cubed", "construct_z4_z2"])
def test_construct_cli_checks_the_datum_once(case, monkeypatch, capsys):
    checks = counting(monkeypatch, QCurveDatum, "_check")
    assert main(["construct", str(GOLDEN / f"{case}.json")]) == 0
    capsys.readouterr()
    assert checks["n"] == 1


@pytest.mark.parametrize("case", ["construct_z4", "construct_z2_cubed", "construct_z4_z2"])
def test_construct_cli_builds_each_value_once(case, monkeypatch, capsys):
    builds = counting_function(monkeypatch, cohomology._canonical_cochain)
    splits = counting(monkeypatch, OneCochain, "splits")
    fields_e = counting_function(monkeypatch, fields.field_of_radicals)
    characters = counting(monkeypatch, groups.GroupCharacter, "__init__")
    # a search over the character twists would build |G| more cochains and
    # characters; the canonical splitting is the one cochain built
    cochains = counting(monkeypatch, OneCochain, "__init__")
    assert main(["construct", str(GOLDEN / f"{case}.json")]) == 0
    capsys.readouterr()
    assert (builds["n"], splits["n"], fields_e["n"], characters["n"]) == (1, 1, 1, 1)
    assert cochains["n"] == 1


def test_hom_from_splitting_is_the_one_splitting_check(monkeypatch):
    doc = golden_doc("algebra_imaginary")
    group = serialize.group_from_json(doc["cyclic_orders"])
    algebra = TwistedGroupAlgebra(group, serialize.cocycle_from_json(doc["cocycle"], group))
    cochain = serialize.cochain_from_json(doc["splitting"], group)
    checks = counting(monkeypatch, OneCochain, "splits")
    products = {"n": 0}
    original = RadicalElement.__mul__

    def mul(self, other):
        products["n"] += 1
        return original(self, other)

    monkeypatch.setattr(RadicalElement, "__mul__", mul)
    AlgebraHom(algebra, cochain.values())
    assert products["n"] == 0
    hom_from_splitting(algebra, cochain)
    assert checks["n"] == 1


@pytest.mark.parametrize("case", ["descent_z4_rank2", "descent_incompatible"])
def test_descent_cli_scans_compatibility_once(case, monkeypatch, capsys):
    scans = counting(monkeypatch, DescentDatum, "_scan")
    main(["descent", str(GOLDEN / f"{case}.json")])
    capsys.readouterr()
    assert scans["n"] == 1


def test_build_restriction_composes_nothing(monkeypatch):
    calls = {"n": 0}
    original = BlockMap.compose

    def compose(self, other):
        calls["n"] += 1
        return original(self, other)

    monkeypatch.setattr(BlockMap, "compose", compose)
    build_restriction(serialize.descent_datum_from_json(golden_doc("descent_z4_rank2")))
    assert calls["n"] == 0


@pytest.mark.parametrize("entry", [build_restriction, eta_descent, iota_equivariance_violation])
def test_incompatible_datum_rejected_with_its_first_pair(entry):
    datum = serialize.descent_datum_from_json(golden_doc("descent_incompatible"))
    with pytest.raises(CompatibilityRequired) as err:
        entry(datum)
    assert str(err.value) == "compatibility fails at ((1,), (2,))"


def test_compatible_descent_cli_runs_no_block_algebra(monkeypatch, capsys):
    block_products = counting(monkeypatch, BlockMap, "compose")
    rrefs = counting(monkeypatch, linalg, "rref")
    fraction_products = counting(monkeypatch, linalg, "mat_mul")
    determinants = counting(monkeypatch, linalg, "determinant")
    products = counting(monkeypatch, linalg, "composes")
    additions = counting(monkeypatch, groups.FiniteAbelianGroup, "add")
    fraction_matrices = counting(monkeypatch, linalg.ScaledMatrix, "fractions")
    assert main(["descent", str(GOLDEN / "descent_z4_rank2.json")]) == 0
    capsys.readouterr()
    order, generators = 4, 1
    assert block_products["n"] == 0
    # the report reads eta's rank and flags only, so eta is never built
    assert additions["n"] == fraction_matrices["n"] == 0
    # invertibility and the identity are decided on integer matrices only
    assert rrefs["n"] == fraction_products["n"] == 0
    # one determinant per matrix, for the invertibility check at construction
    assert determinants["n"] == order
    assert products["n"] <= order * generators


def test_eta_is_built_on_first_read_only(monkeypatch):
    datum = random_descent_datum(random.Random(7), (4, 2), 2)
    additions = counting(monkeypatch, groups.FiniteAbelianGroup, "add")
    report = eta_descent(datum)
    assert additions["n"] == 0
    eta = report.eta
    assert additions["n"] == datum.group.order**2
    assert report.eta is eta
    assert additions["n"] == datum.group.order**2
    assert eta == eta_oracle(datum).eta


@pytest.mark.parametrize("shape", [(8,), (2, 2), (4, 2), (2, 2, 2), (2, 2, 2, 2)])
def test_compatibility_is_checked_on_generators(shape, monkeypatch):
    datum = random_descent_datum(random.Random(sum(shape)), shape, 2)
    products = counting(monkeypatch, linalg, "composes")
    assert compatibility_violation(datum) is None
    assert products["n"] <= datum.group.order * len(shape)


def test_incompatible_descent_cli_names_its_first_pair(capsys):
    assert main(["descent", str(GOLDEN / "descent_incompatible.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"compatible": False, "violation": [[1], [2]]}
    datum = serialize.descent_datum_from_json(golden_doc("descent_incompatible"))
    assert compatibility_violation(datum) == ((1,), (2,))
