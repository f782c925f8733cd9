"""Trace-table checks on integer coordinates, once per distinct input.

``conjugation_symmetry_report`` and ``generated_field_f`` decide each
distinct (a_p, eps(p)) pair once, on the integer coordinates of the two
elements; ``helpers.conjugation_oracle`` and ``helpers.inner_field_oracle``
multiply every entry out through ``QuadraticElement`` and factor every
rational t_p.  Both must give the same reports, or the same exception with
the same message at the same first entry.  Parsing reads each distinct a_p
spelling, character value spelling and class d once.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurves import fields, serialize
from qcurves.arith import squarefree_part
from qcurves.cli import main
from qcurves.errors import NotTotallyReal, ValueOutsideField
from qcurves.fields import MultiquadraticField, QuadraticElement, root_of_unity_as_quadratic
from qcurves.radicals import RadicalElement
from qcurves.traces import (
    DirichletCharacterData,
    TraceEntry,
    TraceTable,
    conjugation_symmetry_report,
    generated_field_f,
)

from helpers import (
    chi_mod4,
    chi_mod8,
    chi_mod16_order4,
    compliant_table_entries,
    compliant_trace_value,
    conjugation_oracle,
    counting_function,
    inner_field_oracle,
)

PRIMES = (3, 5, 7, 11, 17, 19, 23, 29, 31, 37, 41, 43)


def power_character(q: int, order: int) -> DirichletCharacterData:
    """The character of the given order (dividing q - 1) modulo the prime q
    (11 or 13) that sends the primitive root 2 to e(1 / order)."""
    values, r = {}, 1
    for k in range(q - 1):
        values[r] = RadicalElement.root_of_unity(Fraction(k % order, order))
        r = r * 2 % q
    return DirichletCharacterData(q, values)


# orders 1, 2, 3, 4 and 6, even and odd, and order 5, whose values are not
# quadratic: both checks raise at the first entry that reads one
CHARACTERS = [
    DirichletCharacterData.trivial(),
    chi_mod4(),
    chi_mod8(),
    chi_mod16_order4(),
    *(power_character(13, order) for order in (1, 2, 3, 4, 6)),
    power_character(11, 5),
]
# real and imaginary quadratic E, and biquadratic E whose subfields meet the
# fields of the character values only in part, for the mixed-class raise
FIELDS = [(2,), (5,), (-1,), (-3,), (-7,), (2, -1), (2, -3), (-1, -3), (3, 5)]


def subfield_classes(basis) -> list[int]:
    """The classes of the quadratic subfields of Q(sqrt(d) for d in basis)."""
    return sorted(
        {
            squarefree_part(math.prod(subset))
            for k in range(1, len(basis) + 1)
            for subset in itertools.combinations(basis, k)
        }
    )


small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def elements(draw, classes):
    d = draw(st.sampled_from(classes))
    return QuadraticElement(draw(small), draw(st.one_of(st.just(0), small)), d)


@st.composite
def tables(draw):
    """A table over a random E and character: entries drawn from a small pool
    (so values repeat), compliant values, zeros and perturbed compliant
    values, a few of them flagged bad."""
    eps = draw(st.sampled_from(CHARACTERS))
    basis = draw(st.sampled_from(FIELDS))
    field_e = MultiquadraticField.from_square_classes(basis)
    classes = subfield_classes(basis)
    pool = draw(st.lists(elements(classes), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    primes = [p for p in PRIMES if eps(p) is not None][: draw(st.integers(0, 10))]
    entries = []
    for p in primes:
        kind = draw(st.sampled_from(["pool", "pool", "compliant", "zero", "perturbed"]))
        a_p = draw(st.sampled_from(pool))
        if kind == "zero":
            a_p = QuadraticElement.from_rational(0)
        elif kind in ("compliant", "perturbed"):
            d = draw(st.sampled_from(classes))
            # kept from the pool when eps(p) lies in no quadratic field, or
            # in one other than Q(sqrt d)
            try:
                a_p = compliant_trace_value(
                    rng, field_e.totally_real, d, root_of_unity_as_quadratic(eps(p))
                )
            except (ValueError, ValueOutsideField):
                pass
            if kind == "perturbed":  # by 1 or sqrt(d), in the field of a_p
                w = draw(st.sampled_from([QuadraticElement(1, 0, 1), QuadraticElement(0, 1, d)]))
                a_p = a_p + (w if a_p.d in (1, d) else 1)
        entries.append(TraceEntry(p, a_p, good=draw(st.integers(0, 5)) > 0))
    return field_e, eps, entries


def outcome(check, table):
    try:
        return check(table)
    except (ValueOutsideField, NotTotallyReal) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_integer_checks_match_the_quadratic_oracles(data):
    """On every prefix of the sorted entries, so that a raise comes at the
    same first entry as the oracle's."""
    field_e, eps, entries = data
    entries = sorted(entries, key=lambda e: e.p)
    for n in range(len(entries) + 1):
        table = TraceTable(field_e, eps, entries[:n])
        assert outcome(conjugation_symmetry_report, table) == outcome(conjugation_oracle, table)
        assert outcome(generated_field_f, table) == outcome(inner_field_oracle, table)


def test_a_mixed_class_table_raises_like_the_oracle_at_its_first_entry():
    """Over Q(sqrt 2, i) with a quartic character, a_19 = 1 + sqrt 2 meets
    eps(19) = i, after entries that combine: a_3 = 1 + i beside eps(3) = i,
    a rational a_5, and a_17 = sqrt 2 beside eps(17) = 1."""
    field_e = MultiquadraticField.from_square_classes([2, -1])
    entries = [
        TraceEntry(3, QuadraticElement(1, 1, -1)),
        TraceEntry(5, QuadraticElement.from_rational(2)),
        TraceEntry(17, QuadraticElement(0, 1, 2)),
        TraceEntry(19, QuadraticElement(1, 1, 2)),
        TraceEntry(29, QuadraticElement(0, 1, 2)),  # eps(29) = i as well
    ]
    raised = (ValueOutsideField, "cannot combine elements of Q(sqrt(2)) and Q(sqrt(-1))")
    for n in range(len(entries) + 1):
        table = TraceTable(field_e, chi_mod16_order4(), entries[:n])
        for check, oracle in (
            (conjugation_symmetry_report, conjugation_oracle),
            (generated_field_f, inner_field_oracle),
        ):
            assert outcome(check, table) == outcome(oracle, table)
            assert (outcome(check, table) == raised) is (n >= 4)


# -- work done once per distinct input -------------------------------------------------


def trace_doc(spellings, n_entries, generators=(2, 3)):
    """A table over the trivial character, its a_p cycling through spellings."""
    primes = [p for p in range(3, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    return {
        "E_generators": list(generators),
        "entries": [
            {"p": p, "a_p": spellings[i % len(spellings)]}
            for i, p in enumerate(primes[:n_entries])
        ],
    }


def test_each_spelling_and_class_is_read_once(monkeypatch):
    parses = counting_function(monkeypatch, serialize.quadratic_from_json)
    checks = counting_function(monkeypatch, fields.squarefree_part)
    spellings = [
        {"a": "1", "b": "1", "d": 2},
        {"a": "0", "b": "1", "d": 3},
        {"a": "1/2", "b": "3", "d": 6},
    ]
    table = serialize.trace_table_from_json(trace_doc(spellings, 90))
    assert len(table.entries) == 90
    assert parses["n"] == 3 and checks["n"] == 3
    # two more spellings in classes already checked: parsed, not checked again
    parses["n"] = checks["n"] = 0
    more = spellings + [{"a": 2, "b": 1, "d": 2}, {"b": "1", "a": "0", "d": 3}]
    serialize.trace_table_from_json(trace_doc(more, 90))
    assert parses["n"] == 5 and checks["n"] == 3


def test_each_character_spelling_is_parsed_once(monkeypatch):
    parses = counting_function(monkeypatch, serialize.parse_fraction)
    chi = power_character(13, 4)
    spelled = {0: ["0/1", 0], 1: ["1/4"], 2: ["1/2", "2/4"], 3: ["3/4"]}
    values = {}
    for r, v in sorted(chi.values.items()):  # each value's spellings in turn
        choices = spelled[int(v.torsion * 4)]
        values[str(r)] = choices.pop(0)
        choices.append(values[str(r)])
    doc = {"modulus": 13, "values": values, "at_minus_one": "1/2"}  # a spelling read above
    parsed = serialize.character_from_json(doc)
    assert parsed.values == chi.values
    assert parses["n"] == len({(type(v), v) for v in values.values()}) == 6


def test_a_compliant_table_with_a_quartic_character_factors_no_rational_t(monkeypatch):
    """Q(i) lies in Q(mu_8) already, so no t_p is needed for containment."""
    entries = compliant_table_entries(random.Random(4), False, -1, chi_mod16_order4(), PRIMES)
    table = TraceTable(MultiquadraticField.from_square_classes([-1]), chi_mod16_order4(), entries)
    factored = []
    square_class = fields.square_class
    monkeypatch.setattr(fields, "square_class", lambda q: factored.append(q) or square_class(q))
    oracle = inner_field_oracle(table)
    assert any(isinstance(q, Fraction) for q in factored)  # the oracle factors rational t_p
    factored.clear()
    assert generated_field_f(table) == oracle and oracle.containment_ok
    assert not any(isinstance(q, Fraction) for q in factored)


def test_containment_adds_rational_t_until_e_is_inside():
    """Over Q(sqrt 5) with the trivial character, t_p = a_p^2 is rational for
    a_p = sqrt 5 and a_p = 2: the first gives the class 5, the second adds
    nothing, and only sqrt 5 puts E inside the span."""
    field_e = MultiquadraticField.from_square_classes([5])
    trivial = DirichletCharacterData.trivial()
    for values in ([2, (0, 1, 5)], [(0, 1, 5), 2], [2, 3]):
        a_ps = [
            QuadraticElement(*v) if isinstance(v, tuple) else QuadraticElement.from_rational(v)
            for v in values
        ]
        table = TraceTable(field_e, trivial, [TraceEntry(p, a) for p, a in zip(PRIMES, a_ps)])
        assert generated_field_f(table) == inner_field_oracle(table)
        assert generated_field_f(table).containment_ok is any(not a.is_rational for a in a_ps)


# -- the spelling key --------------------------------------------------------------------


def run(capsys, tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code = main(["traces", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("first, second", [(1, True), (True, 1)])
def test_true_beside_one_is_refused_in_either_order(first, second, tmp_path, capsys):
    code, out = run(capsys, tmp_path, trace_doc([{"a": first}, {"a": second}], 4, generators=[]))
    assert code == 2
    assert "bad field element {'a': True}" in json.loads(out)["error"]


def test_every_spelling_of_a_trace_reports_alike(tmp_path, capsys):
    outputs = set()
    two = [{"a": "2"}, {"a": 2}, {"a": "4/2"}]
    for spellings in ([two[0]], [two[1]], [two[2]], two):
        code, out = run(capsys, tmp_path, trace_doc(spellings, 6, generators=[]))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
