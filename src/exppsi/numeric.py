"""High-precision evaluation and convergence measurement.

Precision policy: every routine takes a working precision ``prec`` in bits
and computes internally with ``prec + GUARD`` bits before rounding the
result back to ``prec``. Series coefficients stay exact rationals until the
final floating evaluation, so the only rounding happens in the mpmath
arithmetic itself.

The digamma reference value is computed from scratch: the argument is
lifted by an integer shift m until the asymptotic tail series converges
well inside the guard precision, the tail is summed with even-index
Bernoulli numbers, and the shift is undone with the exact correction
sum_{k<m} 1/(x+k), summed by binary splitting (``_reciprocal_sum``, which
also gives the harmonic numbers). The library digamma is deliberately not
used here so the tests can treat it as an independent cross-check.

Results are returned as ``ApproxResult`` values and convergence orders as
rationals; the command line renders them.

mpmath is imported the first time one of these routines runs, not when the
package is imported: the exact commands (``coeffs``, ``verify``,
``errata``) never evaluate a float and never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .bernoulli import bernoulli_number
from .expansions import Series, specialize

__all__ = [
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


class _Mpmath:
    """Stands for the mpmath module in this module's globals until one of its
    names is first read. That read imports mpmath and rebinds the global
    ``mpmath`` to the module itself, so every later use is a plain module
    attribute with no cost per call."""

    def __getattr__(self, name: str):
        global mpmath
        import mpmath as module

        mpmath = module
        return getattr(module, name)


mpmath = _Mpmath()

RationalLike = Union[int, Fraction]


def to_mpf(value: RationalLike, prec: int) -> mpmath.mpf:
    """Round an exact rational to an mpf at the given bit precision."""
    with mpmath.mp.workprec(prec):
        if isinstance(value, Fraction):
            return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        return +mpmath.mpf(value)


def _reciprocal_sum(x: Fraction, m: int) -> Fraction:
    """Exact sum_{k<m} 1/(x+k) for a positive rational x = a/b.

    Binary splitting over the integer terms b/(a+kb): each half of the
    range is carried as one fraction P/Q, unreduced, and a single Fraction
    (one gcd) is built at the end.
    """
    a, b = x.numerator, x.denominator

    def split(lo: int, hi: int) -> tuple[int, int]:
        # sum_{lo<=k<hi} 1/(a+kb) = P/Q
        if hi - lo == 1:
            return 1, a + lo * b
        mid = (lo + hi) // 2
        p1, q1 = split(lo, mid)
        p2, q2 = split(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    if m <= 0:
        return Fraction(0)
    p, q = split(0, m)
    return Fraction(b * p, q)


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n, as the reciprocal
    sum of 1, 2, ..., n by binary splitting."""
    if n < 0:
        raise ValueError(f"harmonic numbers need n >= 0, got {n}")
    return _reciprocal_sum(Fraction(1), n)


def _round_to(value: mpmath.mpf, prec: int) -> mpmath.mpf:
    with mpmath.mp.workprec(prec):
        return +value


def psi_ref(x: RationalLike, prec: int = 256) -> mpmath.mpf:
    """Digamma at a positive rational argument, correct to ``prec`` bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    with mpmath.mp.workprec(prec + GUARD):
        threshold = max(32, prec // 4)
        m = 0
        if x < threshold:
            m = threshold - math.floor(x)
        z = to_mpf(x + m, mpmath.mp.prec)
        # log z - 1/(2z) - sum_j B_{2j} / (2j z^(2j)), Horner in 1/z^2
        terms = 2 * ((prec + 15) // 16)
        w = 1 / (z * z)
        acc = mpmath.mpf(0)
        for j in range(terms, 0, -1):
            c = to_mpf(Fraction(bernoulli_number(2 * j), 2 * j), mpmath.mp.prec)
            acc = (acc + c) * w
        value = mpmath.log(z) - 1 / (2 * z) - acc
        # undo the recurrence shift psi(x+m) = psi(x) + sum_{k<m} 1/(x+k)
        value -= to_mpf(_reciprocal_sum(x, m), mpmath.mp.prec)
    return _round_to(value, prec)


@lru_cache(maxsize=8)
def euler_gamma(prec: int = 256) -> mpmath.mpf:
    """Euler's constant as -psi(1), at ``prec`` bits. The cache holds a few
    precisions, so a caller sweeping many of them does not grow it."""
    value = psi_ref(1, prec + GUARD)
    with mpmath.mp.workprec(prec):
        return -value


def eval_expansion(
    g: Series,
    p: RationalLike,
    t: RationalLike,
    x: RationalLike,
    order: int,
    prec: int = 256,
) -> mpmath.mpf:
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
    with mpmath.mp.workprec(prec + GUARD):
        xv = to_mpf(x, mpmath.mp.prec)
        inv = 1 / xv
        acc = mpmath.mpf(0)
        for c in reversed(coeffs):
            acc = acc * inv + to_mpf(c, mpmath.mp.prec)
        value = mpmath.power(xv, to_mpf(p, mpmath.mp.prec)) * acc
    return _round_to(value, prec)


@dataclass(frozen=True)
class ApproxResult:
    """One approximation sample: target index, series order, value, error."""

    n: int
    order_used: int
    value: mpmath.mpf
    abs_error: mpmath.mpf


def _check_sample(n: int, order: int, t: Fraction, arg: Fraction, arg_text: str) -> None:
    """Reject a sample before any series is built: n, the order, and a
    point ``arg`` that must be positive (the expansion variable n + 1 - t,
    or the digamma argument n + t), written ``arg_text`` in n and t."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    if arg <= 0:
        raise ValueError(f"need {arg_text} > 0, got n = {n}, t = {t}")


def _exp_series(order: int) -> Series:
    from .expansions import g_via_bernoulli

    return g_via_bernoulli(order)


def approx_gamma(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """Euler's constant via H_n - log(expansion at x = n + 1 - t)."""
    t = Fraction(t)
    x = Fraction(n + 1) - t
    _check_sample(n, order, t, x, "n + 1 - t")
    g = _exp_series(order)
    with mpmath.mp.workprec(prec + GUARD):
        e = eval_expansion(g, 1, t, x, order, mpmath.mp.prec)
        value = to_mpf(harmonic(n), mpmath.mp.prec) - mpmath.log(e)
        err = abs(value - euler_gamma(mpmath.mp.prec))
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def approx_harmonic(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """H_n via gamma + log(expansion at x = n + 1 - t)."""
    t = Fraction(t)
    x = Fraction(n + 1) - t
    _check_sample(n, order, t, x, "n + 1 - t")
    g = _exp_series(order)
    with mpmath.mp.workprec(prec + GUARD):
        e = eval_expansion(g, 1, t, x, order, mpmath.mp.prec)
        value = euler_gamma(mpmath.mp.prec) + mpmath.log(e)
        err = abs(value - to_mpf(harmonic(n), mpmath.mp.prec))
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def approx_exp_psi(
    n: int,
    order: int,
    p: RationalLike = 1,
    t: RationalLike = 1,
    prec: int = 256,
) -> ApproxResult:
    """exp(p * psi(n + t)) via the truncated expansion at x = n."""
    p = Fraction(p)
    t = Fraction(t)
    _check_sample(n, order, t, n + t, "n + t")
    g = _exp_series(order)
    with mpmath.mp.workprec(prec + GUARD):
        value = eval_expansion(g, p, t, n, order, mpmath.mp.prec)
        exact = mpmath.exp(to_mpf(p, mpmath.mp.prec) * psi_ref(Fraction(n) + t, mpmath.mp.prec))
        err = abs(value - exact)
    return ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec))


def convergence_order(points: Sequence[tuple[int, mpmath.mpf]]) -> Fraction:
    """Least-squares slope of log(error) against log(n), negated.

    Given samples (n_i, err_i) with err_i ~ C n_i^(-q), returns q as a
    rational rounded to denominator <= 10**6.
    """
    xs: list[mpmath.mpf] = []
    ys: list[mpmath.mpf] = []
    for n, err in points:
        if err <= 0:
            raise ValueError("error vanished; exceeds measurable order")
        xs.append(mpmath.log(mpmath.mpf(n)))
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


def format_mpf(value: mpmath.mpf, prec: int = 256) -> str:
    """Decimal rendering with digits matched to the binary precision."""
    return mpmath.nstr(value, mpmath.libmp.prec_to_dps(prec))
