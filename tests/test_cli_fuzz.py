"""Mutated golden documents: the command line exits 0, 1 or 2, never raises.

A fixed seed mutates the five trace and two descent golden documents: a
value swapped for one of another JSON type, a rational given a zero
denominator, an object key deleted, a list truncated.  Every case must end
in an exit code of 0, 1 or 2 from ``cli.main``, with no exception.
"""

import json
import random
from pathlib import Path

import pytest

from qcurves.cli import main

GOLDEN = Path(__file__).parent / "golden"
DOCUMENTS = {
    "traces": [
        "traces_imaginary_perturbed",
        "traces_not_multiplicative",
        "traces_phi192",
        "traces_quintic_character",
        "traces_real",
    ],
    "descent": ["descent_incompatible", "descent_z4_rank2"],
}
CASES = 196  # 28 per document
SWAPS = [0, 1, -1, 2**40, "0/1", "1/2", "x", 1.5, True, False, None, [], [1], {}, {"a": "1"}]


def nodes(value, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, path + (i,))


def replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return doc


def mutate(doc, rng: random.Random):
    """One mutation of a deep copy of doc, chosen from what it contains."""
    doc = json.loads(json.dumps(doc))
    found = list(nodes(doc))
    fractions = [(p, v) for p, v in found if isinstance(v, str) and "/" in v]
    containers = [(p, v) for p, v in found if isinstance(v, dict) and v]
    lists = [(p, v) for p, v in found if isinstance(v, list) and v]
    kind = rng.choice(["swap", "zero", "delete", "truncate"])
    if kind == "zero" and fractions:
        path, value = rng.choice(fractions)
        return replace(doc, path, value.partition("/")[0] + "/0")
    if kind == "delete" and containers:
        path, value = rng.choice(containers)
        del value[rng.choice(list(value))]
        return doc
    if kind == "truncate" and lists:
        path, value = rng.choice(lists)
        del value[rng.randrange(len(value)) :]
        return doc
    path, _ = rng.choice(found)
    return replace(doc, path, rng.choice(SWAPS))


def cases():
    rng = random.Random(20261019)
    documents = [
        (command, json.loads((GOLDEN / f"{name}.json").read_text()))
        for command, names in DOCUMENTS.items()
        for name in names
    ]
    return [
        (command, mutate(doc, rng))
        for i in range(CASES // len(documents))
        for command, doc in documents
    ]


def test_mutated_golden_documents_exit_with_a_code(tmp_path, capsys):
    path = tmp_path / "doc.json"
    codes = []
    for command, doc in cases():
        path.write_text(json.dumps(doc))
        codes.append(main([command, str(path)]))
        capsys.readouterr()
    assert len(codes) == CASES
    assert set(codes) <= {0, 1, 2}
    assert set(codes) >= {1, 2}  # the mutations reach past the parser
