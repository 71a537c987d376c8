"""Bernoulli numbers and polynomials, exact.

Convention: B_1 = -1/2, and B_k means B_k(0) throughout; every odd number
above B_1 is 0. The even numbers come from the tangent numbers T_m
(tan x = sum_m T_m x^(2m-1)/(2m-1)!) by Brent and Harvey's in-place integer
recurrence ("Fast computation of Bernoulli, Tangent and Secant numbers",
arXiv:1108.0286), which needs no gcd until the last step:

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).

The tangent table cannot be extended one entry at a time, so a growth step
rebuilds it to at least twice the length cached; asking for B_0, B_1, ...
one index at a time then costs O(k^2) big-integer steps in all. The
polynomials come from B_k(t) = sum_j C(k, j) B_j t^(k-j). Both caches only
ever grow, the polynomials only as far as a polynomial is asked for; a lock
keeps concurrent fills single-writer.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from operator import index

from .algebra import Poly

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
]

_numbers: list[Fraction] = [Fraction(1)]
_polys: list[Poly] = [Poly.one()]
_lock = threading.Lock()


def _tangent_numbers(m: int) -> list[int]:
    """T_1..T_m, by Brent and Harvey's Algorithm TangentNumbers."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : m + 1]


def _grow_numbers(k: int) -> None:
    """Extend the numbers through B_k, and to at least twice the length
    cached; the caller holds the lock."""
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    if k < len(_numbers):
        return
    # T_1..T_m give B_0..B_(2m+1)
    m = max(k, 2 * len(_numbers)) // 2
    table = [Fraction(1), Fraction(-1, 2)]
    for j, tj in enumerate(_tangent_numbers(m), start=1):
        four = 4**j
        table += [Fraction((-1) ** (j - 1) * 2 * j * tj, four * (four - 1)), Fraction(0)]
    _numbers.extend(table[len(_numbers) :])


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    k = index(k)
    with _lock:
        _grow_numbers(k)
    return _numbers[k]


def bernoulli_poly(k: int) -> Poly:
    """B_k(t) as an exact univariate polynomial."""
    k = index(k)
    with _lock:
        _grow_numbers(k)
        while len(_polys) <= k:
            m = len(_polys)
            # ascending: coefficient of t^i is C(m, m-i) * B_{m-i}
            _polys.append(Poly(tuple(comb(m, m - i) * _numbers[m - i] for i in range(m + 1))))
    return _polys[k]
