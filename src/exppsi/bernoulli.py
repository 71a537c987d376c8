"""Bernoulli numbers and polynomials, exact.

Convention: B_1 = -1/2, and B_k means B_k(0) throughout. Numbers come from
the defining recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0 (k >= 1); the
polynomials from B_k(t) = sum_j C(k, j) B_j t^(k-j). Both caches only ever
grow, the polynomials only as far as a polynomial is asked for; a lock
keeps concurrent fills single-writer.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .algebra import Poly

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
]

_numbers: list[Fraction] = [Fraction(1)]
_polys: list[Poly] = [Poly.one()]
_lock = threading.Lock()


def _grow_numbers(k: int) -> None:
    """Extend the numbers through B_k; the caller holds the lock."""
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    while len(_numbers) <= k:
        m = len(_numbers)
        s = sum((comb(m + 1, j) * _numbers[j] for j in range(m)), Fraction(0))
        _numbers.append(-s / (m + 1))


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    with _lock:
        _grow_numbers(k)
    return _numbers[k]


def bernoulli_poly(k: int) -> Poly:
    """B_k(t) as an exact univariate polynomial."""
    with _lock:
        _grow_numbers(k)
        while len(_polys) <= k:
            m = len(_polys)
            # ascending: coefficient of t^i is C(m, m-i) * B_{m-i}
            _polys.append(Poly(tuple(comb(m, m - i) * _numbers[m - i] for i in range(m + 1))))
    return _polys[k]

