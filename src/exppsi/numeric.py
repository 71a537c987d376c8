"""High-precision evaluation and convergence measurement.

Precision policy: every routine takes a working precision ``prec`` in bits
and computes internally with ``prec + GUARD`` bits before rounding the
result back to ``prec``. Series coefficients stay exact rationals until the
final floating evaluation, so the only rounding happens in the mpmath
arithmetic itself.

The digamma reference value is computed from scratch: the argument is
lifted by an integer shift until the asymptotic tail series converges well
inside the guard precision, the tail is summed with even-index Bernoulli
numbers, and the shift is undone with exact harmonic corrections. The
library digamma is deliberately not used here so the tests can treat it as
an independent cross-check.

Results are returned as ``ApproxResult`` values and convergence orders as
rationals; the command line renders them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import mpmath
from mpmath import mp, mpf

from .bernoulli import bernoulli_number
from .expansions import Series, specialize

__all__ = [
    "GUARD",
    "to_mpf",
    "harmonic",
    "psi_ref",
    "euler_gamma",
    "eval_expansion",
    "ApproxResult",
    "approx_gamma",
    "approx_harmonic",
    "approx_exp_psi",
    "convergence_order",
    "format_mpf",
]

GUARD = 48

RationalLike = Union[int, Fraction]


def to_mpf(value: RationalLike, prec: int) -> mpf:
    """Round an exact rational to an mpf at the given bit precision."""
    with mp.workprec(prec):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / mpf(value.denominator)
        return +mpf(value)


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n."""
    if n < 0:
        raise ValueError(f"harmonic numbers need n >= 0, got {n}")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def _round_to(value: mpf, prec: int) -> mpf:
    with mp.workprec(prec):
        return +value


def psi_ref(x: RationalLike, prec: int = 256) -> mpf:
    """Digamma at a positive rational argument, correct to ``prec`` bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    with mp.workprec(prec + GUARD):
        threshold = max(32, prec // 4)
        m = 0
        if x < threshold:
            m = threshold - math.floor(x)
        z = to_mpf(x + m, mp.prec)
        # log z - 1/(2z) - sum_j B_{2j} / (2j z^(2j)), Horner in 1/z^2
        terms = 2 * ((prec + 15) // 16)
        w = 1 / (z * z)
        acc = mpf(0)
        for j in range(terms, 0, -1):
            c = to_mpf(Fraction(bernoulli_number(2 * j), 2 * j), mp.prec)
            acc = (acc + c) * w
        value = mpmath.log(z) - 1 / (2 * z) - acc
        # undo the recurrence shift psi(x+m) = psi(x) + sum 1/(x+k)
        correction = sum((Fraction(1, 1) / (x + k) for k in range(m)), Fraction(0))
        value -= to_mpf(correction, mp.prec)
    return _round_to(value, prec)


@lru_cache(maxsize=None)
def euler_gamma(prec: int = 256) -> mpf:
    """Euler's constant as -psi(1), at ``prec`` bits."""
    value = psi_ref(1, prec + GUARD)
    with mp.workprec(prec):
        return -value


def eval_expansion(
    g: Series,
    p: RationalLike,
    t: RationalLike,
    x: RationalLike,
    order: int,
    prec: int = 256,
) -> mpf:
    """Evaluate x^p * sum_{n<=order} G_n(p,t) x^(-n) at exact rational inputs."""
    p = Fraction(p)
    t = Fraction(t)
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"expansion variable must be positive, got {x}")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    if order >= len(g.coeffs):
        raise ValueError(f"series holds orders 0..{len(g.coeffs) - 1}, asked for {order}")
    exp = specialize(g, p, t)
    coeffs = exp.coeffs[: order + 1]
    with mp.workprec(prec + GUARD):
        xv = to_mpf(x, mp.prec)
        inv = 1 / xv
        acc = mpf(0)
        for c in reversed(coeffs):
            acc = acc * inv + to_mpf(c, mp.prec)
        value = mpmath.power(xv, to_mpf(p, mp.prec)) * acc
    return _round_to(value, prec)


@dataclass(frozen=True)
class ApproxResult:
    """One approximation sample: target index, series order, value, error."""

    n: int
    order_used: int
    value: mpf
    abs_error: mpf


def _check_sample(n: int, order: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")


def _exp_series(order: int) -> Series:
    from .expansions import g_via_bernoulli

    return g_via_bernoulli(order)


def approx_gamma(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """Euler's constant via H_n - log(expansion at x = n + 1 - t)."""
    _check_sample(n, order)
    t = Fraction(t)
    x = Fraction(n + 1) - t
    g = _exp_series(order)
    with mp.workprec(prec + GUARD):
        e = eval_expansion(g, 1, t, x, order, mp.prec)
        value = to_mpf(harmonic(n), mp.prec) - mpmath.log(e)
        err = abs(value - euler_gamma(mp.prec))
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def approx_harmonic(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """H_n via gamma + log(expansion at x = n + 1 - t)."""
    _check_sample(n, order)
    t = Fraction(t)
    x = Fraction(n + 1) - t
    g = _exp_series(order)
    with mp.workprec(prec + GUARD):
        e = eval_expansion(g, 1, t, x, order, mp.prec)
        value = euler_gamma(mp.prec) + mpmath.log(e)
        err = abs(value - to_mpf(harmonic(n), mp.prec))
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def approx_exp_psi(
    n: int,
    order: int,
    p: RationalLike = 1,
    t: RationalLike = 1,
    prec: int = 256,
) -> ApproxResult:
    """exp(p * psi(n + t)) via the truncated expansion at x = n."""
    _check_sample(n, order)
    p = Fraction(p)
    t = Fraction(t)
    g = _exp_series(order)
    with mp.workprec(prec + GUARD):
        value = eval_expansion(g, p, t, n, order, mp.prec)
        exact = mpmath.exp(to_mpf(p, mp.prec) * psi_ref(Fraction(n) + t, mp.prec))
        err = abs(value - exact)
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def convergence_order(points: Sequence[tuple[int, mpf]]) -> Fraction:
    """Least-squares slope of log(error) against log(n), negated.

    Given samples (n_i, err_i) with err_i ~ C n_i^(-q), returns q as a
    rational rounded to denominator <= 10**6.
    """
    xs: list[mpf] = []
    ys: list[mpf] = []
    for n, err in points:
        if err <= 0:
            raise ValueError("error vanished; exceeds measurable order")
        xs.append(mpmath.log(mpf(n)))
        ys.append(mpmath.log(err))
    if len(set(float(v) for v in xs)) < 2:
        raise ValueError("need at least two distinct sample sizes")
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    slope = -num / den
    return Fraction(float(slope)).limit_denominator(10**6)


def format_mpf(value: mpf, prec: int = 256) -> str:
    """Decimal rendering with digits matched to the binary precision."""
    return mpmath.nstr(value, mpmath.libmp.prec_to_dps(prec))
