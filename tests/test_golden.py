"""Byte-exact CLI reports on fixed documents.

Each ``golden/<case>.json`` is a CLI input document; ``golden/<case>.out`` is
the exact standard output it produces, report or error line.  The command is
named by the file stem's first word.  Any change to what the CLI prints for
these documents, including key order, spacing or number formatting, fails
here.
"""

from pathlib import Path

import pytest

from qcurves.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "construct": "construct",
    "algebra": "algebra",
    "split": "split",
    "validate": "validate-cocycle",
    "descent": "descent",
    "traces": "traces",
}

EXIT_CODES = {
    "construct_z4": 0,
    "construct_z2_cubed": 0,
    "construct_z4_z2": 0,
    # ladder data on the |G| = 16 groups; on Z/16 the cocycle values are
    # 9973^8, about 10^32, which factor above the exact primality bound
    "construct_z16_ladder": 0,
    "construct_z4_z4_ladder": 0,
    "construct_obstructed": 1,
    "construct_invalid_cocycle": 1,
    "algebra_imaginary": 0,
    "algebra_not_a_splitting": 1,
    "split_obstructed": 1,
    "validate_invalid": 1,
    "descent_z4_rank2": 0,
    "descent_incompatible": 1,
    "traces_real": 0,
    "traces_imaginary_perturbed": 1,
    "traces_phi192": 0,
    "traces_not_multiplicative": 2,
    "traces_quintic_character": 1,
}


def test_every_golden_document_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(EXIT_CODES)


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_report_bytes_and_exit_code(case, capsys):
    command = COMMANDS[case.split("_")[0]]
    code = main([command, str(GOLDEN / f"{case}.json")])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case}.out").read_text()
    assert code == EXIT_CODES[case]
