"""Tests for Bernoulli numbers and polynomials.

The number table is cross-checked against an independent oracle computed
here with the Akiyama-Tanigawa algorithm, which shares no code with the
package's defining recurrence.
"""

from fractions import Fraction

import pytest

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


def test_odd_numbers_vanish():
    for k in range(3, 30, 2):
        assert bernoulli_number(k) == 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        bernoulli_poly(-2)


def test_first_polynomials():
    t = Poly.variable()
    assert bernoulli_poly(0) == Poly.one()
    assert bernoulli_poly(1) == t - Poly.constant(F(1, 2))
    assert bernoulli_poly(2) == t * t - t + Poly.constant(F(1, 6))
    assert bernoulli_poly(3) == (
        t * t * t - t * t * F(3, 2) + t * F(1, 2)
    )


def test_constant_term_is_the_number():
    for k in range(0, 25):
        assert bernoulli_poly(k)[0] == bernoulli_number(k)


def test_forward_difference_identity():
    # B_k(t+1) - B_k(t) = k t^(k-1)
    for k in range(1, 31):
        b = bernoulli_poly(k)
        diff = b.compose_affine(1, 1) - b
        expected = Poly(tuple(F(0) for _ in range(k - 1)) + (F(k),))
        assert diff == expected, k


def test_reflection_identity():
    # B_k(1-t) = (-1)^k B_k(t)
    for k in range(0, 31):
        b = bernoulli_poly(k)
        reflected = b.compose_affine(1, -1)
        assert reflected == b * F((-1) ** k), k


def test_derivative_identity():
    # B_k'(t) = k B_{k-1}(t)
    for k in range(1, 31):
        assert bernoulli_poly(k).derivative() == bernoulli_poly(k - 1) * F(k), k


def test_half_argument_values():
    # B_{2j}(1/2) = (2^(1-2j) - 1) B_{2j}
    for j in range(0, 16):
        lhs = bernoulli_poly(2 * j).eval(F(1, 2))
        rhs = (F(2) ** (1 - 2 * j) - 1) * bernoulli_number(2 * j)
        assert lhs == rhs, j
