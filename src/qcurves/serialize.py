"""JSON-facing encoders and parsers for every file format the CLI accepts.

All rationals travel as reduced "a/b" strings with positive denominator
(bare integers are accepted on input).  Group elements are lists of
integers.  Radicals are objects with a "torsion" fraction and an "exponents"
object keyed by decimal prime strings; quadratic field elements are objects
{"a", "b", "d"} meaning a + b*sqrt(d).  An object key that names an integer
(a prime, a character residue) must be written in canonical decimal form.
A group has at most ``MAX_GROUP_ORDER`` = 256 elements and a descent matrix
at most ``MAX_BLOCK_RANK`` = 16 rows; a larger one raises ``InputLimit``
(exit 2), naming the limit, before any element is enumerated.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from .algebra import EndAlgebraDescriptor
from .arith import check_size, format_fraction, parse_fraction, parse_ratio
from .cohomology import OneCochain, TwoCocycle
from .errors import InputLimit
from .fields import MultiquadraticField, QuadraticElement
from .groups import Element, FiniteAbelianGroup
from .linalg import ScaledMatrix, over_common_denominator
from .pipeline import FrobeniusAssignment, FrobeniusEntry, QCurveDatum
from .radicals import RadicalElement
from .traces import DirichletCharacterData, TraceEntry, TraceTable
from . import descent


# Documented size limits, checked before anything is enumerated or allocated;
# past either, parsing raises InputLimit.  Every golden and benchmark document
# lies far below them (|G| <= 32, block rank <= 3).
MAX_GROUP_ORDER = 256
MAX_BLOCK_RANK = 16


class ParseError(ValueError):
    """Malformed input document."""


def _is_int(x) -> bool:
    """A JSON integer: not a bool, which Python counts as an int, nor a float."""
    return isinstance(x, int) and not isinstance(x, bool)


def _prime(raw: dict) -> int:
    """The "p" field of a table entry."""
    p = raw["p"]
    if not _is_int(p):
        raise ParseError(f'"p" must be an integer, got {p!r}')
    return check_size(p)


def _good(raw: dict) -> bool:
    """The "good" flag of a table entry: a JSON bool, true when absent."""
    good = raw.get("good", True)
    if not isinstance(good, bool):
        raise ParseError(f'"good" must be true or false, got {good!r}')
    return good


_SPELLED = {int, str}


def _spelling(obj):
    """A key for a JSON value that is an int or a string, or an object whose
    values all are: the value itself, or the object's items.  The types are
    exact, so True, which equals 1 and hashes alike but is refused where 1 is
    read, never shares a key with 1, nor a string with a number.  None for
    any other value."""
    t = type(obj)
    if t is dict:
        return tuple(obj.items()) if {*map(type, obj.values())} <= _SPELLED else None
    return obj if t in _SPELLED else None


def _once_per_spelling(parse):
    """parse, run once per distinct spelling (``_spelling``) of its argument
    within one document; values with no spelling key are parsed each time."""
    parsed: dict = {}

    def parse_once(obj):
        key = _spelling(obj)
        value = parsed.get(key)
        if value is None:
            value = parse(obj)
            if key is not None:
                parsed[key] = value
        return value

    return parse_once


def _key(k: str) -> int:
    """An object key naming an integer, in canonical decimal form only: "3",
    never " 3", "03", "+3" or "3_0", so that two keys never name one integer."""
    n = int(k)
    if str(n) != k:
        raise ParseError(f"object key {k!r} is not a canonical decimal integer")
    return n


# -- radicals ---------------------------------------------------------------


def radical_to_json(x: RadicalElement) -> dict:
    return {
        "torsion": format_fraction(x.torsion),
        "exponents": {str(p): format_fraction(r) for p, r in sorted(x.exponents.items())},
    }


def radical_from_json(obj: Any) -> RadicalElement:
    if isinstance(obj, (int, str)):
        return RadicalElement.from_rational(parse_fraction(obj))
    if not isinstance(obj, dict):
        raise ParseError(f"expected a radical object, got {obj!r}")
    raw_exponents = obj.get("exponents") or {}
    if not isinstance(raw_exponents, dict):
        raise ParseError(f'bad radical {obj!r}: "exponents" must be an object')
    try:
        torsion = parse_fraction(obj.get("torsion", "0/1"))
        exponents = {check_size(_key(p)): parse_fraction(r) for p, r in raw_exponents.items()}
        return RadicalElement(torsion, exponents)
    except InputLimit:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad radical {obj!r}: {exc}") from None


# -- groups and tables --------------------------------------------------------


def element_from_json(obj: Any, group: FiniteAbelianGroup) -> Element:
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"expected a group element (list of ints), got {obj!r}")
    if not {*map(type, obj)} <= {int}:  # JSON integers only: no floats, strings or bools
        raise ParseError(f"group element entries must be integers, got {obj!r}")
    g = tuple(obj)
    if g not in group.element_set:
        raise ParseError(f"{g} is not an element of {group}")
    return g


def element_to_json(g: Element) -> list[int]:
    return list(g)


def group_from_json(obj: Any) -> FiniteAbelianGroup:
    if not isinstance(obj, list) or not all(_is_int(n) for n in obj):
        raise ParseError('"cyclic_orders" must be a list of integers')
    try:
        group = FiniteAbelianGroup(tuple(obj))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # every order is at least 2, so the product passes the limit within
    # log2(MAX_GROUP_ORDER) + 1 factors, however long the list
    order = 1
    for n in group.cyclic_orders:
        order *= n
        if order > MAX_GROUP_ORDER:
            raise InputLimit(f"the group order is past the input limit of {MAX_GROUP_ORDER}")
    return group


def cocycle_from_json(obj: Any, group: FiniteAbelianGroup) -> TwoCocycle:
    """Cocycle values as a list of [g, h, radical] triples; missing pairs are 1."""
    if isinstance(obj, dict):
        obj = obj.get("values", [])
    if not isinstance(obj, list):
        raise ParseError('"cocycle" must be a list of [g, h, value] triples')
    table = {}
    # each distinct rational value is factored once per document, and each
    # distinct spelling parsed once; the type is part of the spelling's key,
    # since True == 1 and hashes alike but is refused where 1 is read
    rationals: dict = {}
    spellings: dict = {}
    for triple in obj:
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise ParseError(f"bad cocycle triple {triple!r}")
        g = element_from_json(triple[0], group)
        h = element_from_json(triple[1], group)
        raw = triple[2]
        if isinstance(raw, (int, str)):
            spelling = (type(raw), raw)
            value = spellings.get(spelling)
            if value is None:
                q = parse_fraction(raw)
                if q not in rationals:
                    rationals[q] = RadicalElement.from_rational(q)
                value = spellings[spelling] = rationals[q]
            table[(g, h)] = value
        else:
            table[(g, h)] = radical_from_json(raw)
    return TwoCocycle(group, table)


def cocycle_to_json(c: TwoCocycle) -> list:
    return [
        [element_to_json(g), element_to_json(h), radical_to_json(v)]
        for (g, h), v in sorted(c.values().items())
        if not v.is_one
    ]


def cochain_from_json(obj: Any, group: FiniteAbelianGroup) -> OneCochain:
    if not isinstance(obj, list):
        raise ParseError("cochain must be a list of [g, value] pairs")
    table = {group.identity: RadicalElement.one()}
    for pair in obj:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"bad cochain pair {pair!r}")
        g = element_from_json(pair[0], group)
        table[g] = radical_from_json(pair[1])
    try:
        return OneCochain(group, table)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def cochain_to_json(a: OneCochain) -> list:
    return [
        [element_to_json(g), radical_to_json(v)] for g, v in sorted(a.values().items())
    ]


def pairing_to_json(pairing) -> list:
    return [
        [element_to_json(g), element_to_json(h), radical_to_json(v)]
        for (g, h), v in pairing.table
        if not v.is_one
    ]


def algebra_element_to_json(x) -> list:
    return [
        [element_to_json(g), format_fraction(q)] for g, q in sorted(x.coefficients.items())
    ]


def field_to_json(f: MultiquadraticField) -> dict:
    return {
        "square_classes": list(f.basis),
        "degree": f.degree,
        "totally_real": f.totally_real,
    }


# -- pipeline documents -------------------------------------------------------


def descriptor_from_json(obj: Any) -> EndAlgebraDescriptor:
    """An endomorphism-algebra descriptor: an object of five JSON integers."""
    if not isinstance(obj, dict):
        raise ParseError('"descriptor" must be an object')
    values = {}
    for name in (f.name for f in dataclasses.fields(EndAlgebraDescriptor)):
        if name not in obj:
            raise ParseError(f"bad descriptor: {name!r}")
        if not _is_int(obj[name]):
            raise ParseError(f"bad descriptor: {name!r} must be an integer, got {obj[name]!r}")
        values[name] = obj[name]
    return EndAlgebraDescriptor(**values)


def qcurve_datum_from_json(obj: Any) -> QCurveDatum:
    if not isinstance(obj, dict):
        raise ParseError("datum document must be an object")
    group = group_from_json(obj.get("cyclic_orders"))
    raw_degrees = obj.get("degrees")
    if not isinstance(raw_degrees, list):
        raise ParseError('"degrees" must be a list of [g, integer] pairs')
    degrees = {}
    for pair in raw_degrees:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"bad degree pair {pair!r}")
        g = element_from_json(pair[0], group)
        if not _is_int(pair[1]):
            raise ParseError(f"degree at {pair[0]} must be an integer")
        degrees[g] = check_size(pair[1])
    degrees.setdefault(group.identity, 1)
    cocycle = cocycle_from_json(obj.get("cocycle", []), group)
    try:
        return QCurveDatum(group, degrees, cocycle)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def frobenius_assignment_from_json(obj: Any, group: FiniteAbelianGroup) -> FrobeniusAssignment:
    if not isinstance(obj, list):
        raise ParseError('"frobenius" must be a list of entry objects')
    entries = []
    for raw in obj:
        if not isinstance(raw, dict) or "p" not in raw or "class" not in raw:
            raise ParseError(f"bad Frobenius entry {raw!r}")
        a_p = raw.get("a_p")
        entries.append(
            FrobeniusEntry(
                p=_prime(raw),
                frobenius_class=element_from_json(raw["class"], group),
                a_p=None if a_p is None else radical_from_json(a_p),
                good_reduction=_good(raw),
            )
        )
    return FrobeniusAssignment(tuple(entries))


# -- descent documents --------------------------------------------------------


def matrix_from_json(obj: Any, n: int) -> ScaledMatrix:
    """An n x n rational matrix as integer rows over one common denominator,
    each entry read by ``parse_ratio``; no Fraction is built."""
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"expected an {n} x {n} matrix")
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"expected an {n} x {n} matrix")
        try:
            rows.append([parse_ratio(x) for x in row])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return over_common_denominator(rows)


def descent_datum_from_json(obj: Any) -> descent.DescentDatum:
    if not isinstance(obj, dict):
        raise ParseError("descent document must be an object")
    group = group_from_json(obj.get("cyclic_orders"))
    block_rank = obj.get("block_rank")
    if not _is_int(block_rank) or block_rank < 1:
        raise ParseError('"block_rank" must be a positive integer')
    if block_rank > MAX_BLOCK_RANK:
        raise InputLimit(f"the block rank is past the input limit of {MAX_BLOCK_RANK}")
    raw_mu = obj.get("mu")
    if not isinstance(raw_mu, list):
        raise ParseError('"mu" must be a list of [g, matrix] pairs')
    mu = {}
    for pair in raw_mu:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"bad mu pair {pair!r}")
        g = element_from_json(pair[0], group)
        mu[g] = matrix_from_json(pair[1], block_rank)
    try:
        return descent.DescentDatum(group, block_rank, mu)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# -- trace documents ----------------------------------------------------------


def quadratic_from_json(obj: Any, classes: set[int] | None = None) -> QuadraticElement:
    """A field element.  ``classes`` holds the classes already found
    squarefree, shared across one document so that each class is checked
    once; each class read here is added to it."""
    if isinstance(obj, (int, str)):
        return QuadraticElement.from_rational(parse_fraction(obj))
    if isinstance(obj, dict) and "torsion" in obj:
        return QuadraticElement.from_radical(radical_from_json(obj))
    if not isinstance(obj, dict) or "a" not in obj:
        raise ParseError(f"bad field element {obj!r}")
    d = obj.get("d", 1)
    if not _is_int(d):
        raise ParseError(f'bad field element {obj!r}: "d" must be an integer')
    try:
        a_num, a_den = parse_ratio(obj["a"])
        b_num, b_den = parse_ratio(obj.get("b", 0))
        n = math.lcm(a_den, b_den)
        x, y = a_num * (n // a_den), b_num * (n // b_den)
        if classes is None:
            classes = set()
        element = QuadraticElement.from_coordinates(x, y, n, check_size(d), classes)
        classes.add(element.d)
        return element
    except InputLimit:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad field element {obj!r}: {exc}") from None


def quadratic_to_json(x: QuadraticElement) -> dict:
    out = {"a": _ratio(x.x, x.n)}
    if x.y:
        out["b"] = _ratio(x.y, x.n)
        out["d"] = x.d
    return out


def _ratio(k: int, n: int) -> str:
    """k/n (n > 0) in lowest terms, as format_fraction writes it."""
    g = math.gcd(k, n)
    return f"{k // g}/{n // g}"


def character_from_json(obj: Any) -> DirichletCharacterData:
    if not isinstance(obj, dict) or "modulus" not in obj:
        raise ParseError('"epsilon" must be an object with "modulus" and "values"')
    modulus = obj["modulus"]
    if not _is_int(modulus) or modulus < 1:
        raise ParseError('"modulus" must be a positive integer')
    raw_values = obj.get("values") or {}
    if not isinstance(raw_values, dict):
        raise ParseError('"values" must be an object keyed by residue')
    # a character of order k takes at most k values, each parsed once
    root = _once_per_spelling(lambda t: RadicalElement.root_of_unity(parse_fraction(t)))
    values = {_key(r): root(t) for r, t in raw_values.items()}
    if modulus == 1:
        values.setdefault(0, RadicalElement.one())
    at_m1 = obj.get("at_minus_one")
    try:
        return DirichletCharacterData(modulus, values, None if at_m1 is None else root(at_m1))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def character_to_json(eps: DirichletCharacterData) -> dict:
    return {
        "modulus": eps.modulus,
        "values": {str(r): format_fraction(v.torsion) for r, v in sorted(eps.values.items())},
        "at_minus_one": format_fraction(eps.value_at_minus_one.torsion),
    }


def trace_table_from_json(obj: Any) -> TraceTable:
    if not isinstance(obj, dict):
        raise ParseError("trace-table document must be an object")
    raw_gens = obj.get("E_generators", [])
    if not isinstance(raw_gens, list) or not all(_is_int(d) for d in raw_gens):
        raise ParseError('"E_generators" must be a list of squarefree integers')
    for d in raw_gens:
        check_size(d)
    try:
        field_e = MultiquadraticField.from_square_classes(raw_gens)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    epsilon = character_from_json(obj.get("epsilon", {"modulus": 1, "values": {}}))
    raw_entries = obj.get("entries")
    if not isinstance(raw_entries, list):
        raise ParseError('"entries" must be a list')
    # a table repeats few values: each distinct a_p spelling is parsed once,
    # and each distinct class d checked squarefree once
    classes: set[int] = set()
    trace = _once_per_spelling(lambda a_p: quadratic_from_json(a_p, classes))
    entries = []
    for raw in raw_entries:
        if not isinstance(raw, dict) or "p" not in raw or "a_p" not in raw:
            raise ParseError(f"bad trace entry {raw!r}")
        entries.append(TraceEntry(p=_prime(raw), a_p=trace(raw["a_p"]), good=_good(raw)))
    bad = obj.get("bad_primes", [])
    if not isinstance(bad, list) or not all(_is_int(p) for p in bad):
        raise ParseError('"bad_primes" must be a list of integers')
    try:
        return TraceTable(field_e, epsilon, entries, set(bad))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
