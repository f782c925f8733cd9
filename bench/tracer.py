"""Outside-in tracer: spans and counters around qcurves' public functions.

The package itself is not modified.  Each traced function is wrapped, and
every binding of it is replaced: the defining module's attribute, names
imported into other qcurves modules (``from .cohomology import
split_cocycle``), and class attributes for methods.  A span records its name,
start, end and parent; a counter-only wrapper just counts calls, for hot
leaves where a span would cost more than the work it measures.

Spans are kept in memory per document and folded into per-name totals by
``self_times`` (a span's duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute path, kind); kind "span" records a span
# (calls and self time), "count" counts calls only.
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("cli.load", "cli", "_load", "span"),
    ("cli.emit", "cli", "_emit", "span"),
    ("serialize.parse", "serialize", "group_from_json", "span"),
    ("serialize.parse", "serialize", "cocycle_from_json", "span"),
    ("serialize.parse", "serialize", "qcurve_datum_from_json", "span"),
    ("serialize.parse", "serialize", "descent_datum_from_json", "span"),
    ("serialize.parse", "serialize", "trace_table_from_json", "span"),
    ("pipeline.datum_violation", "pipeline", "QCurveDatum.violation", "span"),
    ("pipeline.construct", "pipeline", "construct_gl2_type", "span"),
    ("pipeline.brauer_order", "pipeline", "brauer_order", "span"),
    ("cohomology.violation", "cohomology", "TwoCocycle.violation", "span"),
    ("cohomology.split_cocycle", "cohomology", "split_cocycle", "span"),
    ("cohomology.coboundary", "cohomology", "OneCochain.coboundary", "span"),
    ("cohomology.power_splits", "cohomology", "power_splits_over_rationals", "span"),
    ("cohomology.commutator_pairing", "cohomology", "TwoCocycle.commutator_pairing", "span"),
    ("groups.character_init", "groups", "GroupCharacter.__init__", "span"),
    ("fields.field_of_radicals", "fields", "field_of_radicals", "span"),
    ("algebra.tga_init", "algebra", "TwistedGroupAlgebra.__init__", "span"),
    ("algebra.hom_from_splitting", "algebra", "hom_from_splitting", "span"),
    ("algebra.kernel_projector", "algebra", "kernel_projector", "span"),
    ("linalg.solve", "linalg", "solve", "count"),
    ("linalg.rref", "linalg", "rref", "span"),
    ("linalg.mat_mul", "linalg", "mat_mul", "span"),
    ("descent.datum_init", "descent", "DescentDatum.__init__", "span"),
    ("descent.compatibility", "descent", "compatibility_violation", "span"),
    ("descent.build_restriction", "descent", "build_restriction", "span"),
    ("descent.compose", "descent", "BlockMap.compose", "span"),
    ("descent.eta", "descent", "eta_descent", "span"),
    ("descent.iota", "descent", "iota_equivariance_violation", "span"),
    ("traces.character_init", "traces", "DirichletCharacterData.__init__", "span"),
    ("traces.table_init", "traces", "TraceTable.__init__", "span"),
    ("traces.conjugation", "traces", "conjugation_symmetry_report", "span"),
    ("traces.field_e", "traces", "generated_field_e", "span"),
    ("traces.field_f", "traces", "generated_field_f", "span"),
    ("traces.charpoly", "traces", "frobenius_charpoly", "span"),
    ("radicals.mul", "radicals", "RadicalElement.__mul__", "count"),
    ("radicals.init", "radicals", "RadicalElement.__init__", "count"),
    ("radicals.nth_root", "radicals", "RadicalElement.nth_root", "count"),
    ("arith.is_prime", "arith", "is_prime", "count"),
    ("arith.factor", "arith", "factor_positive", "count"),
    ("groups.elements", "groups", "FiniteAbelianGroup.elements", "count"),
    ("groups.add", "groups", "FiniteAbelianGroup.add", "count"),
    ("fields.quadratic_mul", "fields", "QuadraticElement.__mul__", "count"),
]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of (name, start, end, parent) with parent the
    index of the enclosing span or -1.  Self time is the duration minus the
    part of the interval covered by direct children; children of one parent
    never overlap in a single-threaded run, so that part is their summed
    duration, clipped to the parent's interval.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            child[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            tracer.count(name + ".calls")
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def counting(self, name: str, fn, hook=None):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            if hook is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return wrapper

    def take_spans(self) -> list[tuple[str, float, float, int]]:
        """Hand over the finished spans of the last document and start afresh."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcurves" or name.startswith("qcurves."))
        }
        for metric, module, path, kind in TARGETS:
            owner = modules[f"qcurves.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            hook = HOOKS.get(metric)
            make = self.span if kind == "span" else self.counting
            wrapped = make(metric, original, hook)
            if cls_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- hooks: counts computed from a call's arguments and result ---------------


def _element_index(orders, g) -> int:
    index = 0
    for a, n in zip(g, orders):
        index = index * n + a
    return index


def _identity_evals(tracer: Tracer, args, result) -> None:
    """Cocycle-identity evaluations of one scan: |G|^3 when clean, else the
    lexicographic index of the returned triple plus one."""
    orders = args[0].group.cyclic_orders
    size = 1
    for n in orders:
        size *= n
    if result is None:
        evals = size**3
    else:
        g, h, k = (_element_index(orders, x) for x in result)
        evals = (g * size + h) * size + k + 1
    tracer.count("cohomology.identity_evals", evals)


def _rref_cells(tracer: Tracer, args, result) -> None:
    a = args[0]
    tracer.count("linalg.rref.cells", len(a) * (len(a[0]) if a else 0))


def _projector_system(tracer: Tracer, args, result) -> None:
    if tracer.current() == "algebra.kernel_projector":
        a = args[0]
        tracer.count("algebra.projector.system_rows", len(a))
        tracer.count("algebra.projector.system_cols", len(a[0]) if a else 0)


HOOKS = {
    "cohomology.violation": _identity_evals,
    "linalg.rref": _rref_cells,
    "linalg.solve": _projector_system,
}
