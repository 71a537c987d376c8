"""Reference values computed without any code from exppsi.

Bernoulli polynomials come from sympy. The coefficients ``G_n(p, t)`` are
read off the exponential series

    exp(p * L),   L = sum_{k>=1} (-1)^(k+1) B_k(t) / (k x^k),

summed directly as ``sum_r (p L)^r / r!`` with truncated products. That is
a different construction from each of the program's three routes (the
Bernoulli recurrence, the power transform of ``S`` and the composition
sum). ``S_n(t)`` is the same series at ``p = 1``.

Polynomials are dicts ``{(i, j): Fraction}`` holding the coefficient of
``p^i t^j``; a rational ``p`` or ``t`` is substituted before the series is
built, so a fully specialized series has only the key ``(0, 0)``.

Numeric references use mpmath's own ``euler``, ``harmonic`` and
``digamma``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import mpmath
import sympy

Poly2 = dict  # {(p_power, t_power): Fraction}, zero terms dropped

_T = sympy.Symbol("t")


@lru_cache(maxsize=None)
def bernoulli_coeffs(k: int) -> tuple[Fraction, ...]:
    """B_k(t) by ascending power of t. sympy gives bernoulli(1, t) = t - 1/2."""
    poly = sympy.Poly(sympy.bernoulli(k, _T), _T, domain="QQ")
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _bernoulli(k: int, t: Optional[Fraction]) -> Poly2:
    coeffs = bernoulli_coeffs(k)
    if t is None:
        return {(0, j): c for j, c in enumerate(coeffs) if c}
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + c
    return {(0, 0): value} if value else {}


def _mul(a: Poly2, b: Poly2) -> Poly2:
    out: dict = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _scale(a: Poly2, q: Fraction) -> Poly2:
    return {k: v * q for k, v in a.items()} if q else {}


@lru_cache(maxsize=None)
def g_series(order: int, p: Optional[Fraction] = None, t: Optional[Fraction] = None) -> tuple:
    """G_0..G_order as ``Poly2``; ``p``/``t`` of None stay symbolic."""
    p_part: Poly2 = {(1, 0): Fraction(1)} if p is None else ({(0, 0): p} if p else {})
    log = [{}] + [
        _scale(_mul(p_part, _bernoulli(k, t)), Fraction((-1) ** (k + 1), k))
        for k in range(1, order + 1)
    ]
    one: Poly2 = {(0, 0): Fraction(1)}
    total = [one] + [{} for _ in range(order)]
    term = list(total)
    for r in range(1, order + 1):
        # term = (p L)^r / r!; its lowest power of 1/x is r
        new = [{} for _ in range(order + 1)]
        for i in range(r - 1, order):
            if term[i]:
                for k in range(1, order - i + 1):
                    new[i + k] = _add(new[i + k], _mul(term[i], log[k]))
        term = [_scale(c, Fraction(1, r)) for c in new]
        total = [_add(a, b) for a, b in zip(total, term)]
    return tuple(total)


def evaluate(poly: Poly2, p: Fraction, t: Fraction) -> Fraction:
    return sum((c * p**i * t**j for (i, j), c in poly.items()), Fraction(0))


def specialize(poly: Poly2, p: Optional[Fraction], t: Optional[Fraction]) -> Poly2:
    """Substitute the given values, keeping the other variable's powers."""
    out: dict = {}
    for (i, j), c in poly.items():
        if p is not None:
            c, i = c * p**i, 0
        if t is not None:
            c, j = c * t**j, 0
        out[(i, j)] = out.get((i, j), 0) + c
    return {k: v for k, v in out.items() if v}


def to_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def approx_target(target: str, n: int, p: Fraction, t: Fraction, prec: int) -> mpmath.mpf:
    """The quantity an approximant estimates, at ``prec`` bits from mpmath.

    ``gamma`` is Euler's constant, ``harmonic`` is H_n and ``exp-psi`` is
    exp(p * psi(n + t)).
    """
    with mpmath.workprec(prec):
        if target == "gamma":
            return +mpmath.euler
        if target == "harmonic":
            return mpmath.harmonic(n)
        if target == "exp-psi":
            return mpmath.exp(to_mpf(p) * mpmath.digamma(n + to_mpf(t)))
    raise ValueError(f"unknown approximation target {target!r}")


def approximant(target: str, n: int, order: int, p: Fraction, t: Fraction, prec: int) -> mpmath.mpf:
    """What a correct approximant of ``order`` prints, at ``prec`` bits.

    The truncated expansion is ``e = x^p * sum_{k<=order} G_k x^-k`` with the
    G_k of ``g_series``, at x = n for ``exp-psi`` and at x = n + 1 - t, p = 1
    for ``gamma`` (H_n - log e) and ``harmonic`` (euler + log e).
    """
    if target != "exp-psi":
        p = Fraction(1)
    x = Fraction(n) if target == "exp-psi" else n + 1 - t
    series = g_series(order, p, t)
    total = sum((c.get((0, 0), 0) / x**k for k, c in enumerate(series)), Fraction(0))
    with mpmath.workprec(prec):
        e = mpmath.power(to_mpf(x), to_mpf(p)) * to_mpf(total)
        if target == "gamma":
            return mpmath.harmonic(n) - mpmath.log(e)
        if target == "harmonic":
            return +mpmath.euler + mpmath.log(e)
        if target == "exp-psi":
            return e
    raise ValueError(f"unknown approximation target {target!r}")


def theoretical_order(target: str, order: int, p: Fraction, t: Fraction) -> Fraction:
    """Convergence order of the truncation error in n.

    The first neglected term of x^p sum_k G_k x^-k is G_{order+1} x^(p-order-1),
    and the approximants for gamma and H_n take a log at p = 1, which leaves
    x^-(order+1). At t = 1/2 every odd G_k vanishes, so an even ``order``
    leaves x^-(order+2).
    """
    first = order + 1
    if t == Fraction(1, 2) and first % 2 == 1:
        first += 1
    if target == "exp-psi":
        return first - p
    return Fraction(first)
