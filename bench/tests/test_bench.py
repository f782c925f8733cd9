"""Tests of the benchmark itself: generator, oracle, tracer and checker.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(gen.MIXES))
def test_generator_is_byte_stable_per_seed(name):
    def blocks(seed):
        w = gen.Workload(name, seed)
        return json.dumps([w.block() for _ in range(2)], sort_keys=True).encode()

    assert blocks(7) == blocks(7)
    assert blocks(7) != blocks(8)


# A 25 s run of the baseline program makes at most about 370 documents; one
# of a program three times faster, about 1100.
FAST_RUN_DOCS = 1100


@pytest.mark.parametrize("name", sorted(gen.MIXES))
def test_documents_within_a_run_are_distinct(name):
    w = gen.Workload(name, 3)
    docs = []
    while len(docs) < FAST_RUN_DOCS:
        docs += [json.dumps(item["doc"], sort_keys=True) for item in w.block()]
    assert len(set(docs)) == len(docs)


def test_an_exhausted_prime_pool_fails_loudly(monkeypatch):
    monkeypatch.setattr(gen, "LADDER_PRIMES", [1009, 1013])
    w = gen.Workload("construct_ladder", 1)
    assert sorted(w.primes((2,)) + w.primes((2,))) == [1009, 1013]
    with pytest.raises(gen.PoolExhausted):
        w.primes((2,))


# -- oracle: hand-worked cases ------------------------------------------------------


def test_readme_z2_datum():
    item = gen.construct_item((2,), [2])
    assert item["doc"] == {
        "cyclic_orders": [2],
        "degrees": [[[0], 1], [[1], 2]],
        "cocycle": [[[1], [1], "2/1"]],
    }
    expect = item["expect"]
    assert expect["exit"] == 0
    report = expect["report"]
    assert report["E"] == {"square_classes": [2], "degree": 2, "totally_real": True}
    assert report["dimension"] == 2
    assert report["checks"]["brauer_order"] == 2
    assert report["alpha"][1] == [[1], {"torsion": "0/1", "exponents": {"2": "1/2"}}]
    assert report["epsilon"] == [[[0], "0/1"], [[1], "0/1"]]
    assert report["projector"] == [[[0], "1/1"]]


def test_klein_alternating_cocycle_is_obstructed():
    # primes 1 make the ladder coboundary trivial: c = (-1)^(g_0 h_1) exactly
    item = gen.obstructed_split_item((2, 2), [1, 1])
    assert item["doc"]["values"] == [
        [[1, 0], [0, 1], "-1/1"],
        [[1, 0], [1, 1], "-1/1"],
        [[1, 1], [0, 1], "-1/1"],
        [[1, 1], [1, 1], "-1/1"],
    ]
    c = gen.sign_bicharacter((2, 2))
    assert gen.first_cocycle_violation((2, 2), c) == (None, 64)
    minus_one = {"torsion": "1/2", "exponents": {}}
    assert item["expect"] == {
        "exit": 1,
        "report": {
            "valid": True,
            "split": False,
            "cochain": None,
            "obstruction": [
                [[0, 1], [1, 0], minus_one],
                [[0, 1], [1, 1], minus_one],
                [[1, 0], [0, 1], minus_one],
                [[1, 0], [1, 1], minus_one],
                [[1, 1], [0, 1], minus_one],
                [[1, 1], [1, 0], minus_one],
            ],
        },
    }


def test_first_witness_on_klein_four():
    orders = (2, 2)
    c = {(g, h): Fraction(1) for g in gen.elements(orders) for h in gen.elements(orders)}
    c[((1, 0), (0, 1))] = Fraction(3)
    # by hand: every triple with g = (0, 0), and with g = (0, 1), h in
    # {(0, 0), (0, 1)}, holds; at ((0, 1), (1, 0), (0, 1)) the left side is
    # c((0,1),(1,0)) c((1,1),(0,1)) = 1 and the right c((1,0),(0,1)) c((0,1),(1,1)) = 3
    assert gen.first_cocycle_violation(orders, c) == (((0, 1), (1, 0), (0, 1)), 25)


def test_ladder_cocycle_is_the_coboundary_of_a():
    orders, primes = (4, 2), [3, 5]
    c = gen.ladder_cocycle(orders, primes)
    assert gen.first_cocycle_violation(orders, c)[0] is None
    # c((3, 0), (1, 0)) = a(3) a(1) / a(0) = 3^(3/2) 3^(1/2) = 9
    assert c[((3, 0), (1, 0))] == 9
    assert c[((1, 1), (0, 1))] == 5
    assert c[((1, 0), (2, 1))] == 1


def test_incompatible_pair_oracle():
    orders = (2,)
    minus = ((Fraction(-1),),)
    mu = {(0,): ((Fraction(1),),), (1,): minus}
    assert gen.first_incompatible_pair(orders, mu) is None
    mu[(1,)] = ((Fraction(-2),),)
    assert gen.first_incompatible_pair(orders, mu) == ((1,), (1,))


# -- tracer -----------------------------------------------------------------------


def test_self_time_on_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 6.0, 7.0, 3),
        ("a", 20.0, 22.0, -1),
    ]
    assert tracer.self_times(spans) == {"a": 3.0 + 2.0, "b": 2.0 + 1.0, "c": 1.0, "d": 3.0}


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.span("inner", lambda x: x + 1)
    outer = t.span("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    spans = t.take_spans()
    assert spans == [("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert tracer.self_times(spans) == {"outer": 3.0, "inner": 2.0}
    assert t.counters == {"outer.calls": 1, "inner.calls": 2}


def test_install_patches_every_binding_and_uninstall_restores():
    import qcurves.cli  # noqa: F401
    from qcurves import algebra, arith, cli, cohomology, pipeline, radicals, traces

    originals = {
        (pipeline, "split_cocycle"): cohomology.split_cocycle,
        (cli, "construct_gl2_type"): pipeline.construct_gl2_type,
        (cli, "brauer_order"): pipeline.brauer_order,
        (cli, "kernel_projector"): algebra.kernel_projector,
        (radicals, "is_prime"): arith.is_prime,
        (radicals, "factor_positive"): arith.factor_positive,
        (traces, "is_prime"): arith.is_prime,
    }
    t = tracer.Tracer()
    t.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
            assert getattr(module, name).__wrapped__ is original
    finally:
        t.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original


# -- checker and closed loop -----------------------------------------------------------


def test_matches_is_recursive_and_type_strict():
    assert run.matches({"a": [1, {"b": True}]}, {"a": [1, {"b": True, "c": 0}], "d": 1})
    assert not run.matches({"a": [1]}, {"a": [1, 2]})
    assert not run.matches({"b": True}, {"b": 1})
    assert not run.matches({"b": 1}, {})


def test_speed_factors_follow_a_sliding_median():
    nominal = run.REFERENCE_NOMINAL_S
    refs = [nominal] * 5 + [2 * nominal] * 20 + [50 * nominal]
    factors = run.speed_factors(refs)
    assert factors[0] == 1.0
    assert factors[12] == 2.0
    assert factors[-1] == 2.0  # one outlier does not move the window's median


def test_items_per_s_takes_each_kind_at_its_median():
    nominal = run.REFERENCE_NOMINAL_S
    loop = SimpleNamespace(
        times=[1.0, 1.0, 100.0, 2.0],
        refs=[nominal] * 4,
        kinds=["a", "a", "a", "b"],
    )
    metrics = run.end_to_end(loop, SimpleNamespace(median=lambda: 0.5))
    # kind a counts at its median 1 s, so the straggler does not move the rate
    assert metrics["items_per_s"] == 4 / (1.0 + 1.0 + 1.0 + 2.0)
    assert metrics["setup_s"] == 0.5


@pytest.mark.parametrize("name", sorted(gen.MIXES))
def test_program_agrees_with_oracle_traced_and_untraced(name, tmp_path):
    cli = run.import_cli()
    loop = run.Loop(cli, tmp_path, keep=True)
    block = gen.Workload(name, 11).block()
    # the cheapest documents of each rung keep this test fast
    loop.add_block([next(i for i in block if i["rung"] == rung) for rung in dict.fromkeys(i["rung"] for i in block)])
    loop.run_pending()
    assert loop.failed == 0
    totals, traced_wall, differ = run.traced_replay(loop, tmp_path / "spans.jsonl.gz")
    assert differ == 0 and traced_wall > 0
    assert totals["cli.main.calls"] == len(loop.items)
