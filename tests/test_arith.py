"""Factorization and primality against sympy as the oracle, and the input limit.

``arith`` uses the standard library only; sympy stays a test dependency so
that its ``factorint`` and ``isprime`` can check every result.  The exact
boundary cases pin the Miller-Rabin bases and bound, and the command-line
cases check that a hard input exits 2 with a message naming its bound.
"""

import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import factorint, isprime, nextprime

from qcurves import arith
from qcurves.arith import (
    EXACT_PRIMALITY_BOUND,
    check_size,
    factor_positive,
    is_prime,
    parse_fraction,
    parse_ratio,
    squarefree_part,
)
from qcurves.cli import main
from qcurves.errors import InputLimit

# the smallest strong pseudoprime to the prime bases up to 37 (only 41
# catches it) and the one to every base up to 41 (Sorenson and Webster)
PSP_TO_37 = 318665857834031151167461
PSP_TO_41 = EXACT_PRIMALITY_BOUND
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 62745]


def chernick(k: int) -> list[int]:
    """The factors 6k+1, 12k+1, 18k+1 of a Chernick-form Carmichael number."""
    return [6 * k + 1, 12 * k + 1, 18 * k + 1]


# Carmichael numbers (6k+1)(12k+1)(18k+1) with three prime factors, from
# 1729 to about 10^30, past the exact primality bound
CHERNICK_KS = [1, 6, 35, 45, 51, 55, 56, 100, 121, 1025, 1000051, 1000000511]


def check_against_sympy(n: int) -> None:
    factors = factor_positive(n)
    assert factors == factorint(n)
    assert list(factors) == sorted(factors)
    assert is_prime(n) == isprime(n)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**18 - 1))
@example(1)
@example(2)
@example(2**16 - 1)
@example(2**16 + 1)
@example(999_983**2)
def test_random_integers_below_10_18(n):
    check_against_sympy(n)


def test_small_integers_exhaustively():
    for n in range(-5, 5000):
        assert is_prime(n) == isprime(n)
    for n in range(1, 5000):
        assert factor_positive(n) == factorint(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(2**29, 2**30 - 1), st.integers(2**29, 2**30 - 1))
def test_semiprimes_of_two_30_bit_primes(a, b):
    check_against_sympy(nextprime(a) * nextprime(b))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**6), st.integers(1, 12))
def test_prime_powers(a, k):
    check_against_sympy(nextprime(a) ** k)


@pytest.mark.parametrize("p", [1009, 4099, 7919, 9973])
def test_eighth_powers_of_four_digit_primes(p):
    # about 10^24 to 10^32, the larger past the exact primality bound: all factor
    assert factor_positive(p**8) == {p: 8}
    assert not is_prime(p**8)
    assert squarefree_part(p**8 * 3) == 3


@pytest.mark.parametrize("n", CARMICHAEL + [3215031751])
def test_carmichael_numbers_and_a_base_2_3_5_7_pseudoprime(n):
    check_against_sympy(n)


@pytest.mark.parametrize("k", CHERNICK_KS)
def test_chernick_carmichael_numbers(k):
    assert all(isprime(p) for p in chernick(k))
    n = 1
    for p in chernick(k):
        n *= p
    assert not is_prime(n)
    assert factor_positive(n) == {p: 1 for p in chernick(k)}


def test_3215031751_passes_bases_2_3_5_7():
    n = 3215031751
    assert all(arith._strong_probable_prime(n, a) for a in (2, 3, 5, 7))
    assert not is_prime(n)


def test_only_base_41_catches_the_pseudoprime_to_the_bases_up_to_37():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(arith._strong_probable_prime(PSP_TO_37, a) for a in bases)
    assert not arith._strong_probable_prime(PSP_TO_37, 41)
    assert is_prime(PSP_TO_37) is False


def test_primality_at_the_bound_is_an_input_limit():
    with pytest.raises(InputLimit, match=str(EXACT_PRIMALITY_BOUND)):
        is_prime(PSP_TO_41)
    # compositeness is proved at any size: the next odd numbers are decided
    assert is_prime(PSP_TO_41 + 2) == isprime(PSP_TO_41 + 2)
    assert is_prime(2**127 + 1) is False


def test_composites_above_the_bound_factor():
    n = 9973**8 * 1009**5 * (2**31 - 1) * 1000003 * 2**40
    assert n > EXACT_PRIMALITY_BOUND
    assert factor_positive(n) == factorint(n)
    assert factor_positive(PSP_TO_37 * 7**3) == factorint(PSP_TO_37 * 7**3)


def test_a_prime_above_the_bound_is_an_input_limit():
    with pytest.raises(InputLimit, match=str(EXACT_PRIMALITY_BOUND)):
        factor_positive(2**89 - 1)
    with pytest.raises(InputLimit, match=str(EXACT_PRIMALITY_BOUND)):
        is_prime(2**89 - 1)


def test_nonpositive_input_is_rejected():
    with pytest.raises(ValueError):
        factor_positive(0)
    assert factor_positive(1) == {}


# -- the command line -------------------------------------------------------------


def run_cocycle_value(tmp_path, capsys, value: int):
    doc = {"cyclic_orders": [2], "values": [[[1], [1], f"{value}/1"]]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    code = main(["validate-cocycle", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_cocycle_value_with_a_prime_past_the_bound_exits_two(tmp_path, capsys):
    code, report = run_cocycle_value(tmp_path, capsys, 2**89 - 1)
    assert code == 2
    assert str(EXACT_PRIMALITY_BOUND) in report["error"]


def test_cocycle_value_past_the_rho_budget_exits_two_quickly(tmp_path, capsys):
    # two 60-bit primes: rho would need about 2^30 iterations, the budget is 2^20
    p, q = nextprime(2**59), nextprime(2**60)
    start = time.perf_counter()
    code, report = run_cocycle_value(tmp_path, capsys, p * q)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "2^20" in report["error"]
    assert elapsed < 2.0


# -- the input size bound ------------------------------------------------------------

LIMIT = 2**arith.INPUT_BITS  # the least magnitude past the bound


def test_integers_at_the_bound_pass_and_one_bit_more_is_an_input_limit():
    assert check_size(LIMIT - 1) == LIMIT - 1
    assert check_size(1 - LIMIT) == 1 - LIMIT
    for n in (LIMIT, -LIMIT):
        with pytest.raises(InputLimit, match="input limit of 512 bits"):
            check_size(n)


@pytest.mark.parametrize("text", [LIMIT - 1, f"{LIMIT - 1}/1", f"-7/{LIMIT - 1}", "1e154"])
def test_fractions_within_the_bound_parse(text):
    assert parse_fraction(text) == Fraction(text)


@pytest.mark.parametrize(
    "text", [LIMIT, f"{LIMIT}/1", f"-7/{LIMIT}", "1e155", "1e-155", "1e513", "1E+5_13"]
)
def test_fractions_past_the_bound_are_an_input_limit(text):
    with pytest.raises(InputLimit, match="input limit of 512 bits"):
        parse_fraction(text)


def outcome(parse, text):
    """(numerator, denominator), or the type and message of the error."""
    try:
        q = parse(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return (q.numerator, q.denominator) if isinstance(q, Fraction) else q


digits = st.one_of(st.integers(0, 10**6), st.integers(0, 2**514)).map(str)
ratio_texts = st.one_of(
    st.tuples(st.sampled_from(["", "-", "+", " "]), digits, st.sampled_from(["/", " / ", ""]), digits)
    .map("".join),
    st.tuples(digits, st.sampled_from(["_1", "0", " ", "e5", ".5"]), digits).map(
        lambda t: f"{t[0]}{t[1]}/{t[2]}"
    ),
    st.sampled_from(["0/0", "3/0", "-0/5", "1/-2", "", "/", "1//2", "٣/4", "abc", "1e600"]),
    st.integers(-(2**514), 2**514),
    st.sampled_from([True, False, None, 1.5]),
    st.just("1" * 160 + "/" + "1" * 160),
    st.just("1" * 161 + "/3"),
)


@given(ratio_texts)
@example("1" * 161 + "/" + "1" * 161)
@example(f"{2**600}/{2**599}")
def test_parse_ratio_reads_what_parse_fraction_reads(text):
    assert outcome(parse_ratio, text) == outcome(parse_fraction, text)


def test_a_4000_digit_cocycle_value_exits_two_before_any_factoring(tmp_path, capsys, monkeypatch):
    calls = []
    for name, module in list(sys.modules.items()):
        if name == "qcurves" or name.startswith("qcurves."):
            for binding in ("is_prime", "factor_positive"):
                if hasattr(module, binding):
                    monkeypatch.setattr(module, binding, lambda n, b=binding: calls.append(b))
    code, report = run_cocycle_value(tmp_path, capsys, 10**3999 + 7)
    assert code == 2
    assert report == {"error": "a 13285-bit integer is past the input limit of 512 bits"}
    assert calls == []
