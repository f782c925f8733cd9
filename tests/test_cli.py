"""Exit-code contract and report determinism of the command-line front end."""

import json

import pytest

from qcurves import cli
from qcurves.cli import build_parser, main
from qcurves.serialize import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- quadratic ------------------------------------------------------------------


def test_quadratic_positive(capsys):
    code, report = run(capsys, "quadratic", "-m", "2", "--k-signature", "imaginary")
    assert code == 0
    assert report["theta"] == "trivial"
    assert report["e_signature"] == "real"


def test_quadratic_violation_exits_one(capsys):
    code, report = run(capsys, "quadratic", "-m", "-3", "--k-signature", "imaginary")
    assert code == 1
    assert report["signature_constraint_ok"] is False


def test_quadratic_zero_is_bad_input(capsys):
    code, report = run(capsys, "quadratic", "-m", "0", "--k-signature", "real")
    assert code == 2
    assert "error" in report


def test_quadratic_m_is_bounded(capsys):
    code, report = run(capsys, "quadratic", "-m", str(2**512), "--k-signature", "real")
    assert code == 2
    assert report == {"error": "a 513-bit integer is past the input limit of 512 bits"}
    code, report = run(capsys, "quadratic", "-m", str(2**511), "--k-signature", "real")
    assert code == 0
    assert report["algebra"]["field_class"] == 2


def test_main_builds_the_parser_once(monkeypatch, capsys):
    builds = {"n": 0}
    original = cli.build_parser

    def build():
        builds["n"] += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        for m, expected in (("2", 0), ("-3", 1)):
            code, _ = run(capsys, "quadratic", "-m", m, "--k-signature", "imaginary")
            assert code == expected
        with pytest.raises(SystemExit) as usage_error:
            main(["descent"])
        assert usage_error.value.code == 2
        assert "usage: qcurves descent" in capsys.readouterr().err
        assert builds["n"] == 1
    finally:
        cli._parser.cache_clear()


# -- cocycle validation -----------------------------------------------------------


def test_validate_cocycle_good(tmp_path, capsys):
    path = write(
        tmp_path,
        "c.json",
        {"cyclic_orders": [2], "values": [[[1], [1], "2/1"]]},
    )
    code, report = run(capsys, "validate-cocycle", path)
    assert code == 0
    assert report["valid"] is True


def test_validate_cocycle_violation(tmp_path, capsys):
    path = write(
        tmp_path,
        "c.json",
        {"cyclic_orders": [2], "values": [[[0], [1], "2/1"]]},
    )
    code, report = run(capsys, "validate-cocycle", path)
    assert code == 1
    assert report["valid"] is False
    assert report["violation"] is not None


def test_unparseable_input_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report = run(capsys, "validate-cocycle", str(path))
    assert code == 2
    assert "error" in report


def test_missing_file_exits_two(capsys):
    code, report = run(capsys, "validate-cocycle", "/nonexistent/x.json")
    assert code == 2


# -- split --------------------------------------------------------------------------


def test_split_reports_cochain(tmp_path, capsys):
    path = write(
        tmp_path, "c.json", {"cyclic_orders": [2], "values": [[[1], [1], "2/1"]]}
    )
    code, report = run(capsys, "split", path)
    assert code == 0
    assert report["split"] is True
    cochain = dict((tuple(g), v) for g, v in report["cochain"])
    assert cochain[(1,)]["exponents"] == {"2": "1/2"}


def test_split_obstructed(tmp_path, capsys):
    values = []
    for g in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for h in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            if (g[0] * h[1]) % 2:
                values.append([list(g), list(h), "-1/1"])
    path = write(tmp_path, "klein.json", {"cyclic_orders": [2, 2], "values": values})
    code, report = run(capsys, "split", path)
    assert code == 1
    assert report["split"] is False
    assert report["obstruction"]


@pytest.mark.parametrize("first, second", [(1, True), (True, 1)])
def test_split_refuses_true_beside_one(first, second, tmp_path, capsys):
    """True == 1 and both hash alike: a value read once per spelling must
    still refuse true, whichever of the two comes first."""
    doc = {"cyclic_orders": [2, 2], "values": [[[0, 1], [1, 0], first], [[1, 0], [0, 1], second]]}
    code, report = run(capsys, "split", write(tmp_path, "c.json", doc))
    assert code == 2
    assert list(report) == ["error"]


def test_split_reads_every_spelling_of_a_value_alike(tmp_path, capsys):
    """The coboundary of a(g) = 2 (g != 0) on Z/2 x Z/2: c(g, h) = 2 for
    distinct nonzero g, h and 4 on the diagonal."""
    nonzero = [[0, 1], [1, 0], [1, 1]]
    pairs = [(g, h) for g in nonzero for h in nonzero if g != h]

    def report(spellings):
        values = [[g, h, q] for (g, h), q in zip(pairs, spellings)]
        values += [[g, g, "4/1"] for g in nonzero]
        main(["split", write(tmp_path, "c.json", {"cyclic_orders": [2, 2], "values": values})])
        return capsys.readouterr().out

    mixed = report([2, "2", "2/1", "4/2", "2/1", "2/1"])
    assert mixed == report(["2/1"] * 6)
    assert json.loads(mixed)["split"] is True


# -- algebra -----------------------------------------------------------------------


def test_algebra_with_splitting(tmp_path, capsys):
    doc = {
        "cyclic_orders": [2],
        "cocycle": [[[1], [1], "2/1"]],
        "splitting": [[[1], {"torsion": "0/1", "exponents": {"2": "1/2"}}]],
    }
    code, report = run(capsys, "algebra", write(tmp_path, "a.json", doc))
    assert code == 0
    assert report["dimension"] == 2
    assert report["commutative"] is True
    assert report["quotient"]["field"]["square_classes"] == [2]
    assert report["quotient"]["projector_idempotent"] is True


def test_algebra_classification(tmp_path, capsys):
    doc = {
        "descriptor": {
            "n": 2,
            "division_degree": 1,
            "center_degree": 1,
            "maximal_field_degree": 2,
            "abelian_variety_dim": 2,
        }
    }
    code, report = run(capsys, "algebra", write(tmp_path, "d.json", doc))
    assert code == 0
    assert report["classification"]["primitivity"] == "non_primitive(2)"
    assert report["classification"]["kind"] == "matrix_over_field"


def test_algebra_inconsistent_descriptor(tmp_path, capsys):
    doc = {
        "descriptor": {
            "n": 1,
            "division_degree": 2,
            "center_degree": 1,
            "maximal_field_degree": 1,
            "abelian_variety_dim": 1,
        }
    }
    code, report = run(capsys, "algebra", write(tmp_path, "d.json", doc))
    assert code == 1
    assert report["kind"] == "InconsistentDescriptor"


# -- construct ----------------------------------------------------------------------


def construct_doc(m, deg):
    return {
        "cyclic_orders": [2],
        "degrees": [[[1], deg]],
        "cocycle": [[[1], [1], f"{m}/1"]],
    }


def test_construct_real_case(tmp_path, capsys):
    code, report = run(capsys, "construct", write(tmp_path, "d.json", construct_doc(2, 2)))
    assert code == 0
    assert report["dimension"] == 2
    assert report["E"]["square_classes"] == [2]
    assert report["epsilon_order"] == 1
    assert report["checks"]["brauer_order"] == 2
    assert report["checks"]["alpha_epsilon_congruence"] is True


def test_construct_invalid_datum(tmp_path, capsys):
    code, report = run(capsys, "construct", write(tmp_path, "d.json", construct_doc(3, 2)))
    assert code == 1
    assert report["valid"] is False


def test_construct_with_frobenius(tmp_path, capsys):
    doc = construct_doc(2, 2)
    doc["frobenius"] = [
        {"p": 7, "class": [1], "a_p": {"torsion": "0/1", "exponents": {"2": "1/2"}}},
        {"p": 11, "class": [1], "a_p": None},
    ]
    code, report = run(capsys, "construct", write(tmp_path, "d.json", doc))
    assert code == 0
    assert report["frobenius"] == [{"p": 7, "status": "ok"}, {"p": 11, "status": "skipped"}]


def test_construct_frobenius_failure_exits_one(tmp_path, capsys):
    doc = construct_doc(2, 2)
    doc["frobenius"] = [
        {"p": 7, "class": [1], "a_p": {"torsion": "1/4", "exponents": {"2": "1/2"}}}
    ]
    code, report = run(capsys, "construct", write(tmp_path, "d.json", doc))
    assert code == 1
    assert report["frobenius"] == [{"p": 7, "status": "fail"}]


def test_construct_obstructed(tmp_path, capsys):
    values = []
    for g in [(0, 1), (1, 0), (1, 1)]:
        for h in [(0, 1), (1, 0), (1, 1)]:
            if (g[0] * h[1]) % 2:
                values.append([list(g), list(h), "-1/1"])
    doc = {
        "cyclic_orders": [2, 2],
        "degrees": [[[0, 1], 1], [[1, 0], 1], [[1, 1], 1]],
        "cocycle": values,
    }
    code, report = run(capsys, "construct", write(tmp_path, "d.json", doc))
    assert code == 1
    assert report["error"] == "splitting_obstructed"


# -- descent ---------------------------------------------------------------------------


def test_descent_ok(tmp_path, capsys):
    doc = {
        "cyclic_orders": [3],
        "block_rank": 1,
        "mu": [[[0], [["1/1"]]], [[1], [["1/1"]]], [[2], [["1/1"]]]],
    }
    code, report = run(capsys, "descent", write(tmp_path, "d.json", doc))
    assert code == 0
    assert report["eta"]["rank"] == 1
    assert report["iota_equivariant"] is True


def test_descent_violation(tmp_path, capsys):
    doc = {
        "cyclic_orders": [2],
        "block_rank": 1,
        "mu": [[[0], [["1/1"]]], [[1], [["2/1"]]]],
    }
    code, report = run(capsys, "descent", write(tmp_path, "d.json", doc))
    assert code == 1
    assert report["compatible"] is False
    assert report["violation"] == [[1], [1]]


# -- traces ------------------------------------------------------------------------------


def traces_doc():
    return {
        "E_generators": [-1],
        "epsilon": {
            "modulus": 8,
            "values": {"1": "0/1", "3": "1/2", "5": "1/2", "7": "0/1"},
        },
        "entries": [
            {"p": 5, "a_p": {"a": "0/1", "b": "2/1", "d": -1}},
            {"p": 7, "a_p": "3/1"},
        ],
        "bad_primes": [2],
    }


def test_traces_ok(tmp_path, capsys):
    code, report = run(capsys, "traces", write(tmp_path, "t.json", traces_doc()))
    assert code == 0
    assert report["entries"] == [
        {"p": 5, "conjugation_ok": True},
        {"p": 7, "conjugation_ok": True},
    ]
    assert report["epsilon_even"] is True
    assert report["containment_ok"] is True
    assert report["F"]["totally_real"] is True


def test_weil_bound_at_the_input_limit(tmp_path, capsys):
    """A trace with 512-bit coordinates, the largest a document may give, far
    past 2 sqrt(p): its float moduli overflowed."""
    big = 2**512 - 1
    doc = {"E_generators": [-1], "entries": [{"p": 5, "a_p": {"a": big, "b": big, "d": -1}}]}
    code, report = run(capsys, "traces", write(tmp_path, "t.json", doc))
    assert code == 1
    assert report["entries"] == [{"p": 5, "conjugation_ok": False}]
    assert [c["weil_bound_ok"] for c in report["charpoly"]] == [False]
    assert report["charpoly"][0]["trace"] == {"a": f"{big}/1", "b": f"{big}/1", "d": -1}


def test_traces_failure_exits_one(tmp_path, capsys):
    doc = traces_doc()
    doc["entries"][0]["a_p"] = {"a": "1/1", "b": "2/1", "d": -1}
    code, report = run(capsys, "traces", write(tmp_path, "t.json", doc))
    assert code == 1
    assert report["entries"][0]["conjugation_ok"] is False


# -- malformed input -------------------------------------------------------------------------


def epsilon_values_as_list():
    doc = traces_doc()
    doc["epsilon"]["values"] = ["0/1", "1/2", "1/2", "0/1"]
    return "traces", doc


def radical_exponents_as_list():
    doc = construct_doc(2, 2)
    doc["cocycle"][0][2] = {"torsion": "0/1", "exponents": [[2, "1/1"]]}
    return "construct", doc


def trace_prime(p):
    doc = traces_doc()
    doc["entries"][1]["p"] = p
    return "traces", doc


def frobenius_prime(p):
    doc = construct_doc(2, 2)
    doc["frobenius"] = [{"p": p, "class": [1], "a_p": None}]
    return "construct", doc


def trace_d(d):
    doc = traces_doc()
    doc["entries"][0]["a_p"]["d"] = d
    return "traces", doc


def trace_good(flag):
    doc = traces_doc()
    doc["entries"][0]["good"] = flag
    return "traces", doc


def frobenius_good(flag):
    doc = construct_doc(2, 2)
    doc["frobenius"] = [{"p": 7, "class": [1], "a_p": None, "good": flag}]
    return "construct", doc


def descent_block_rank_bool():
    doc = {"cyclic_orders": [2], "block_rank": True, "mu": [[[0], [["1/1"]]], [[1], [["1/1"]]]]}
    return "descent", doc


def bad_primes_bool():
    doc = traces_doc()
    doc["bad_primes"] = [True]
    return "traces", doc


def epsilon_modulus_bool():
    doc = traces_doc()
    doc["epsilon"] = {"modulus": True, "values": {}}
    return "traces", doc


def e_generators_bool():
    doc = traces_doc()
    doc["E_generators"] = [True]
    return "traces", doc


def degree(value):
    return "construct", construct_doc(1, value)


def descriptor(**fields):
    values = dict.fromkeys(
        ("n", "division_degree", "center_degree", "maximal_field_degree", "abelian_variety_dim"), 1
    )
    return "algebra", {"descriptor": {**values, **fields}}


def group_element(entry):
    doc = {"cyclic_orders": [4], "values": [[[entry], [1], "1/1"]]}
    return "validate-cocycle", doc


def epsilon_key_twice():
    """Two keys that int() reads as 3: the last one used to win, leaving the
    trivial character modulo 4."""
    doc = traces_doc()
    doc["epsilon"] = {"modulus": 4, "values": {"1": "0/1", "3": "1/2", " 3": "0/1"}}
    return "traces", doc


def radical_key_twice():
    """Two keys that int() reads as 3: the last one used to win, giving 3^1."""
    doc = construct_doc(2, 2)
    doc["cocycle"][0][2] = {"torsion": "0/1", "exponents": {"3": "1/2", " 3": "1/1"}}
    return "construct", doc


MALFORMED = {
    "epsilon_values_list": epsilon_values_as_list,
    "radical_exponents_list": radical_exponents_as_list,
    "trace_p_null": lambda: trace_prime(None),
    "frobenius_p_null": lambda: frobenius_prime(None),
    "trace_p_float": lambda: trace_prime(7.9),
    "frobenius_p_float": lambda: frobenius_prime(7.9),
    "trace_p_bool": lambda: trace_prime(True),
    "trace_good_string": lambda: trace_good("false"),
    "frobenius_good_string": lambda: frobenius_good("false"),
    "frobenius_good_int": lambda: frobenius_good(0),
    "descent_block_rank_bool": descent_block_rank_bool,
    "bad_primes_bool": bad_primes_bool,
    "epsilon_modulus_bool": epsilon_modulus_bool,
    "e_generators_bool": e_generators_bool,
    "element_float": lambda: group_element(1.9),
    "element_string": lambda: group_element("2"),
    "element_bool": lambda: group_element(True),
    "degree_bool": lambda: degree(True),
    "trace_d_float": lambda: trace_d(-1.0),
    "trace_d_bool": lambda: trace_d(True),
    "trace_d_string": lambda: trace_d("-1"),
    "descriptor_n_float": lambda: descriptor(n=1.9),
    "descriptor_n_bool": lambda: descriptor(n=True),
    "descriptor_n_string": lambda: descriptor(n="1"),
    "descriptor_dimension_float": lambda: descriptor(abelian_variety_dim=1.0),
    "epsilon_key_twice": epsilon_key_twice,
    "radical_key_twice": radical_key_twice,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_a_parse_error(case, tmp_path, capsys):
    command, doc = MALFORMED[case]()
    path = write(tmp_path, "doc.json", doc)
    args = build_parser().parse_args([command, path])
    with pytest.raises(ParseError):
        args.func(args)
    code, report = run(capsys, command, path)
    assert code == 2
    assert list(report) == ["error"]


# (command, document with one key twice, that key, the document with the
# repeat removed, its exit code)
REPEATED_KEYS = {
    # read as plain json, the second "3" wins and leaves the trivial
    # character modulo 4, where the first makes it odd
    "epsilon_value": (
        "traces",
        '{"E_generators": [-1], "entries": [], "epsilon": {"modulus": 4,'
        ' "values": {"1": "0/1", "3": "1/2", "3": "0/1"}}}',
        "3",
        '{"E_generators": [-1], "entries": [], "epsilon": {"modulus": 4,'
        ' "values": {"1": "0/1", "3": "1/2"}}}',
        1,
    ),
    "top_level": (
        "descent",
        '{"cyclic_orders": [2], "block_rank": 2, "block_rank": 1,'
        ' "mu": [[[0], [[1]]], [[1], [[-1]]]]}',
        "block_rank",
        '{"cyclic_orders": [2], "block_rank": 1, "mu": [[[0], [[1]]], [[1], [[-1]]]]}',
        0,
    ),
    "radical_exponent": (
        "validate-cocycle",
        '{"cyclic_orders": [2], "values": [[[1], [1],'
        ' {"torsion": "0/1", "exponents": {"2": "1/2", "2": "1/1"}}]]}',
        "2",
        '{"cyclic_orders": [2], "values": [[[1], [1],'
        ' {"torsion": "0/1", "exponents": {"2": "1/2"}}]]}',
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_object_key_is_refused(case, tmp_path, capsys):
    command, text, key, single, single_code = REPEATED_KEYS[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    args = build_parser().parse_args([command, str(path)])
    with pytest.raises(ParseError):
        args.func(args)
    code, report = run(capsys, command, str(path))
    assert code == 2
    assert report == {"error": f"object key {key!r} is repeated"}
    path.write_text(single)
    assert run(capsys, command, str(path))[0] == single_code


@pytest.mark.parametrize("orders", [[10**12], [257], [2] * 9])
def test_group_past_the_order_limit_exits_2(orders, tmp_path, capsys):
    path = write(tmp_path, "doc.json", {"cyclic_orders": orders, "values": []})
    code, report = run(capsys, "validate-cocycle", path)
    assert code == 2
    assert report == {"error": "the group order is past the input limit of 256"}


@pytest.mark.parametrize("element", [[7], [-1], [1, 0], []])
def test_out_of_range_element_keeps_its_message(element, tmp_path, capsys):
    doc = {"cyclic_orders": [4], "values": [[element, [1], "1/1"]]}
    code, report = run(capsys, "validate-cocycle", write(tmp_path, "doc.json", doc))
    assert code == 2
    assert report == {"error": f"{tuple(element)} is not an element of Z/4"}


# -- determinism ---------------------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "d.json", construct_doc(-2, 2))
    main(["construct", path])
    first = capsys.readouterr().out
    main(["construct", path])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["quadratic", "-m", "5", "--k-signature", "real", "-o", str(out), "--pretty"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["e_signature"] == "real"
    assert capsys.readouterr().out == ""
