"""Batch command-line front end: file in, structured report out.

Exit codes: 0 when every domain check passes, 1 on a domain verdict of
failure or violation (an invalid cocycle, an obstructed splitting, a
signature-constraint violation, a failed trace check), 2 on malformed input
or I/O problems.  Reports are JSON with sorted keys, so identical inputs
produce byte-identical output; --pretty only changes indentation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import descent as descent_mod
from . import serialize
from .algebra import (
    TwistedGroupAlgebra,
    classify_end_algebra,
    hom_from_splitting,
    kernel_projector,
)
from .arith import check_size, format_fraction
from .cohomology import split_cocycle
from .errors import NotTotallyReal, QCurvesError, SplittingObstructed
from .pipeline import (
    OK,
    SKIPPED,
    alpha_epsilon_congruent,
    brauer_order,
    construct_gl2_type,
    frobenius_congruences,
)
from .quadratic import IMAGINARY, ORDER_TWO, REAL, QuadraticQCurveInput, classify_quadratic
from .serialize import ParseError
from .traces import (
    conjugation_symmetry_report,
    frobenius_charpoly,
    generated_field_e,
    generated_field_f,
)

EXIT_OK = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_BAD_INPUT = 2


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it repeats a key: json keeps the last of
    two equal keys, which would silently drop the first value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"object key {key!r} is repeated")
            seen.add(key)
    return obj


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2 if args.pretty else None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _violation_json(v) -> Any:
    if v is None:
        return None
    if isinstance(v, tuple):
        return [list(x) for x in v]
    out = {"kind": type(v).__name__}
    for name in ("g", "h", "k"):
        if hasattr(v, name):
            out[name] = list(getattr(v, name))
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_validate_cocycle(args) -> int:
    doc = _load(args.input)
    group = serialize.group_from_json(doc.get("cyclic_orders"))
    cocycle = serialize.cocycle_from_json(doc, group)
    triple = cocycle.violation()
    report = {
        "cyclic_orders": list(group.cyclic_orders),
        "valid": triple is None,
        "violation": _violation_json(triple),
    }
    _emit(report, args)
    return EXIT_OK if triple is None else EXIT_DOMAIN_FAILURE


def cmd_split(args) -> int:
    doc = _load(args.input)
    group = serialize.group_from_json(doc.get("cyclic_orders"))
    cocycle = serialize.cocycle_from_json(doc, group)
    triple = cocycle.violation()
    if triple is not None:
        _emit({"valid": False, "violation": _violation_json(triple)}, args)
        return EXIT_DOMAIN_FAILURE
    result = split_cocycle(cocycle)
    report = {
        "valid": True,
        "split": result.split,
        "cochain": serialize.cochain_to_json(result.cochain) if result.split else None,
        "obstruction": None if result.split else serialize.pairing_to_json(result.obstruction),
    }
    _emit(report, args)
    return EXIT_OK if result.split else EXIT_DOMAIN_FAILURE


def cmd_algebra(args) -> int:
    doc = _load(args.input)
    report: dict[str, Any] = {}
    if "cyclic_orders" in doc:
        group = serialize.group_from_json(doc.get("cyclic_orders"))
        cocycle = serialize.cocycle_from_json(doc.get("cocycle", []), group)
        triple = cocycle.violation()
        if triple is not None:
            _emit({"valid": False, "violation": _violation_json(triple)}, args)
            return EXIT_DOMAIN_FAILURE
        algebra = TwistedGroupAlgebra(group, cocycle)
        report["dimension"] = algebra.dimension
        report["commutative"] = algebra.is_commutative
        if "splitting" in doc:
            cochain = serialize.cochain_from_json(doc["splitting"], group)
            hom = hom_from_splitting(algebra, cochain)
            projector = kernel_projector(algebra, hom)
            report["quotient"] = {
                "field": serialize.field_to_json(hom.field),
                "images": serialize.cochain_to_json(cochain),
                "projector": serialize.algebra_element_to_json(projector),
                # kernel_projector raises NoProjector on a non-idempotent element
                "projector_idempotent": True,
            }
    if "descriptor" in doc:
        classification = classify_end_algebra(serialize.descriptor_from_json(doc["descriptor"]))
        report["classification"] = {
            "primitivity": classification.primitivity,
            "kind": classification.kind,
            "n": classification.n,
        }
    if not report:
        raise ParseError('expected "cyclic_orders" or "descriptor" in the document')
    _emit(report, args)
    return EXIT_OK


def cmd_construct(args) -> int:
    doc = _load(args.input)
    datum = serialize.qcurve_datum_from_json(doc)
    violation = datum.violation()
    if violation is not None:
        _emit({"valid": False, "violation": _violation_json(violation)}, args)
        return EXIT_DOMAIN_FAILURE
    try:
        descriptor = construct_gl2_type(datum)
    except SplittingObstructed as exc:
        _emit(
            {
                "valid": True,
                "constructed": False,
                "error": "splitting_obstructed",
                "obstruction": serialize.pairing_to_json(exc.pairing),
            },
            args,
        )
        return EXIT_DOMAIN_FAILURE
    report = {
        "valid": True,
        "constructed": True,
        "dimension": descriptor.dimension,
        "E": serialize.field_to_json(descriptor.field_e),
        "F": serialize.field_to_json(descriptor.field_f),
        "alpha": serialize.cochain_to_json(descriptor.alpha),
        "epsilon": [
            [serialize.element_to_json(g), format_fraction(descriptor.epsilon(g).torsion)]
            for g in datum.group.elements()
        ],
        "epsilon_order": descriptor.epsilon.order,
        "epsilon_inversion_ambiguous": descriptor.epsilon_inversion_ambiguous,
        "projector": serialize.algebra_element_to_json(descriptor.projector),
        "checks": {
            "alpha_epsilon_congruence": alpha_epsilon_congruent(descriptor),
            "brauer_order": brauer_order(datum),
        },
    }
    exit_code = EXIT_OK
    if "frobenius" in doc:
        assignment = serialize.frobenius_assignment_from_json(doc["frobenius"], datum.group)
        entries = frobenius_congruences(descriptor, assignment)
        report["frobenius"] = [{"p": e.p, "status": e.status} for e in entries]
        if any(e.status not in (SKIPPED, OK) for e in entries):
            exit_code = EXIT_DOMAIN_FAILURE
    if not report["checks"]["alpha_epsilon_congruence"]:
        exit_code = EXIT_DOMAIN_FAILURE
    _emit(report, args)
    return exit_code


def cmd_quadratic(args) -> int:
    data = QuadraticQCurveInput(m=check_size(args.m), k_signature=args.k_signature)
    report_obj = classify_quadratic(data)
    report = {
        "m": report_obj.m,
        "k_signature": report_obj.k_signature,
        "algebra": {
            "splits_as_q_x_q": report_obj.splits_as_q_x_q,
            "field_class": report_obj.field_class,
        },
        "theta": "order_two" if report_obj.theta_order == ORDER_TWO else "trivial",
        "epsilon": "order_two" if report_obj.epsilon_order == ORDER_TWO else "trivial",
        "e_signature": report_obj.e_signature,
        "model_over_q": report_obj.model_over_q,
        "signature_constraint_ok": report_obj.signature_constraint_ok,
    }
    _emit(report, args)
    return EXIT_OK if report_obj.signature_constraint_ok else EXIT_DOMAIN_FAILURE


def cmd_descent(args) -> int:
    doc = _load(args.input)
    datum = serialize.descent_datum_from_json(doc)
    violation = descent_mod.compatibility_violation(datum)
    if violation is not None:
        _emit(
            {"compatible": False, "violation": [list(violation[0]), list(violation[1])]},
            args,
        )
        return EXIT_DOMAIN_FAILURE
    report_obj = descent_mod.eta_descent(datum)
    iota = descent_mod.iota_equivariance_violation(datum)
    report = {
        "compatible": True,
        "eta": {
            "rank": report_obj.rank,
            "idempotent": report_obj.idempotent_ok,
            "fixed_by_all": report_obj.fixed_by_all,
            "diagonal_image_ok": report_obj.diagonal_image_ok,
        },
        "iota_equivariant": iota is None,
    }
    _emit(report, args)
    ok = report_obj.ok and iota is None
    return EXIT_OK if ok else EXIT_DOMAIN_FAILURE


def cmd_traces(args) -> int:
    doc = _load(args.input)
    table = serialize.trace_table_from_json(doc)
    conjugation = conjugation_symmetry_report(table)
    field_e, warnings = generated_field_e(table)
    even = table.epsilon.is_even
    try:
        inner = generated_field_f(table)
        f_json = serialize.field_to_json(inner.field_f)
        f_real = inner.field_f.totally_real
        containment = inner.containment_ok
    except NotTotallyReal as exc:
        f_json, f_real, containment = None, False, False
        warnings = warnings + [str(exc)]
    charpolys = [frobenius_charpoly(e, table.epsilon) for e in table.good_entries()]
    report = {
        "entries": [{"p": r.p, "conjugation_ok": r.ok} for r in conjugation],
        "generated_E": serialize.field_to_json(field_e),
        "warnings": warnings,
        "F": f_json,
        "f_totally_real": f_real,
        "containment_ok": containment,
        "epsilon_even": even,
        "charpoly": [
            {
                "p": c.p,
                "trace": serialize.quadratic_to_json(c.trace),
                "det": serialize.quadratic_to_json(c.determinant),
                "weil_bound_ok": c.weil_bound_ok,
            }
            for c in charpolys
        ],
    }
    _emit(report, args)
    ok = all(r.ok for r in conjugation) and f_real and containment and even
    return EXIT_OK if ok else EXIT_DOMAIN_FAILURE


# -- driver ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurves",
        description="Exact checks and constructions for isogeny cocycle data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", help="write the report to this path instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent the report")

    p = sub.add_parser("validate-cocycle", help="check the 2-cocycle identity on a table")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_validate_cocycle)

    p = sub.add_parser("split", help="split a cocycle or report its obstruction pairing")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("algebra", help="twisted group algebra structure and classification")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("construct", help="run the full construction on an isogeny datum")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("quadratic", help="classify the quadratic-field case from m")
    p.add_argument("-m", type=int, required=True, help="the nonzero integer m")
    p.add_argument(
        "--k-signature",
        choices=[REAL, IMAGINARY],
        required=True,
        help="signature of the quadratic base field",
    )
    common(p)
    p.set_defaults(func=cmd_quadratic)

    p = sub.add_parser("descent", help="verify a descent datum and its eta projector")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("traces", help="verify a Frobenius-trace table")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_traces)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, OSError, ValueError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_BAD_INPUT
    except QCurvesError as exc:
        sys.stdout.write(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}, sort_keys=True) + "\n"
        )
        return EXIT_DOMAIN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
