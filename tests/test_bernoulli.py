"""Tests for Bernoulli numbers and polynomials.

The number table is cross-checked against two references written here,
sharing no code with the package's tangent-number method: the defining
recurrence and the Akiyama-Tanigawa algorithm.
"""

import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from exppsi import bernoulli
from exppsi.algebra import Poly
from exppsi.bernoulli import bernoulli_number, bernoulli_poly

F = Fraction


def akiyama_tanigawa(n: int) -> Fraction:
    """Independent Bernoulli oracle (first-kind convention, B_1 = -1/2)."""
    row = [F(1, m + 1) for m in range(n + 1)]
    for i in range(1, n + 1):
        row = [(row[m] - row[m + 1]) * (m + 1) for m in range(len(row) - 1)]
    value = row[0]
    if n == 1:
        value = -value  # the algorithm produces the +1/2 convention at n=1
    return value


def defining_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{j=0}^{k} C(k+1, j) B_j = 0 (k >= 1)."""
    out = [F(1)]
    for k in range(1, n + 1):
        out.append(-sum((comb(k + 1, j) * out[j] for j in range(k)), F(0)) / (k + 1))
    return out


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(bernoulli, "_numbers", [F(1)])
    monkeypatch.setattr(bernoulli, "_polys", [Poly.one()])


KNOWN_NUMBERS = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
    14: F(7, 6),
    16: F(-3617, 510),
}


def test_known_number_table():
    for k, value in KNOWN_NUMBERS.items():
        assert bernoulli_number(k) == value


def test_matches_independent_oracle():
    for k in range(0, 21):
        assert bernoulli_number(k) == akiyama_tanigawa(k), k


def test_matches_defining_recurrence(empty_cache):
    assert [bernoulli_number(k) for k in range(257)] == defining_recurrence(256)


def test_growth_order_does_not_matter(monkeypatch):
    def fill(order):
        monkeypatch.setattr(bernoulli, "_numbers", [F(1)])
        monkeypatch.setattr(bernoulli, "_polys", [Poly.one()])
        for k in order:
            bernoulli_number(k)
            bernoulli_poly(k)
        return [(bernoulli_number(k), bernoulli_poly(k)) for k in range(61)]

    ascending = fill(range(61))
    assert fill([300, 40]) == ascending
    assert fill(range(60, -1, -1)) == ascending
    assert [b for b, _ in ascending] == defining_recurrence(60)


def test_concurrent_calls_grow_one_consistent_prefix(empty_cache):
    want = defining_recurrence(90)
    results = []

    def worker(indices):
        for k in indices:
            results.append((k, bernoulli_number(k), bernoulli_poly(k)))

    plans = [(3, 90), (90, 2), (5, 40, 77), (1, 60), (33,), (90, 90)]
    threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == sum(len(plan) for plan in plans)
    for k, number, poly in results:
        assert number == want[k] and poly[0] == want[k], k
    assert bernoulli._numbers[:91] == want
    assert len(bernoulli._polys) == 91


def test_odd_numbers_vanish():
    for k in range(3, 30, 2):
        assert bernoulli_number(k) == 0


def test_negative_index_rejected(empty_cache):
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        bernoulli_poly(-2)


def test_float_index_rejected_before_the_cache_grows(empty_cache):
    # with B_0..B_9 cached and only B_0(t) built, 5.0 used to build B_1(t)..B_5(t)
    # before failing, and 2.0**40 to fail inside the tangent recurrence
    bernoulli_number(8)
    numbers, polys = len(bernoulli._numbers), len(bernoulli._polys)
    for k in (2.0, 5.0, 2.0**40):
        for fn in (bernoulli_number, bernoulli_poly):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                fn(k)
    assert (len(bernoulli._numbers), len(bernoulli._polys)) == (numbers, polys)


def test_first_polynomials():
    t = Poly.variable()
    assert bernoulli_poly(0) == Poly.one()
    assert bernoulli_poly(1) == t - Poly((F(1, 2),))
    assert bernoulli_poly(2) == t * t - t + Poly((F(1, 6),))
    assert bernoulli_poly(3) == (
        t * t * t - t * t * F(3, 2) + t * F(1, 2)
    )


def test_constant_term_is_the_number():
    for k in range(0, 25):
        assert bernoulli_poly(k)[0] == bernoulli_number(k)


def points(k: int) -> list[Fraction]:
    """k+1 distinct rationals: two polynomials of degree <= k that agree on
    all of them are equal."""
    return [F(j, 7) - 2 for j in range(k + 1)]


def test_forward_difference_identity():
    # B_k(t+1) - B_k(t) = k t^(k-1)
    for k in range(1, 31):
        b = bernoulli_poly(k)
        for x in points(k):
            assert b.eval(x + 1) - b.eval(x) == k * x ** (k - 1), (k, x)


def test_reflection_identity():
    # B_k(1-t) = (-1)^k B_k(t)
    for k in range(0, 31):
        b = bernoulli_poly(k)
        for x in points(k):
            assert b.eval(1 - x) == (-1) ** k * b.eval(x), (k, x)


def test_derivative_identity():
    # B_k'(t) = k B_{k-1}(t), read off the coefficient lists
    for k in range(1, 31):
        derivative = [j * c for j, c in enumerate(bernoulli_poly(k).coeffs)][1:]
        assert derivative == list((bernoulli_poly(k - 1) * k).coeffs), k


def test_half_argument_values():
    # B_{2j}(1/2) = (2^(1-2j) - 1) B_{2j}
    for j in range(0, 16):
        lhs = bernoulli_poly(2 * j).eval(F(1, 2))
        rhs = (F(2) ** (1 - 2 * j) - 1) * bernoulli_number(2 * j)
        assert lhs == rhs, j
