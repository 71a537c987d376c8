"""High-precision evaluation and convergence measurement.

Precision policy: every routine takes a working precision ``prec`` of at
least one bit and computes internally with ``prec + GUARD`` bits before
rounding the result back to ``prec``. Series coefficients and sums stay
exact rationals until the floating evaluation, and each reaches mpmath as
one correctly rounded division (``_round_ratio``: the nearest mpf, ties to
even). That value does not depend on how the fraction is written, so sums
stay unreduced pairs (P, Q) and no gcd is taken to round them; after that,
the only rounding happens in the mpmath arithmetic itself.

The digamma reference value is computed from scratch: the argument is
lifted by an integer shift m until the asymptotic tail series converges
well inside the guard precision, the tail is summed with even-index
Bernoulli numbers, and the shift is undone with the exact correction
sum_{k<m} 1/(x+k), summed by binary splitting (``_reciprocal_sum``, which
also gives the harmonic numbers). The library digamma is deliberately not
used here so the tests can treat it as an independent cross-check. The
last few values are kept, keyed on (x, prec), so approximants of growing
order at one point compute the reference once.

``approx_gamma`` and ``approx_harmonic`` share one body,
``_harmonic_samples``, which takes a list of n. A sample needs H_n only
rounded once to the working precision wp, and ``_harmonic_rounded`` reads
that value off H_n = psi(n+1) + gamma instead of summing n reciprocals:

* For real z > 0, the digamma series log z - 1/(2z) - sum_j B_2j/(2j z^2j)
  cut before j = J leaves a remainder bounded by the first neglected term
  and of its sign (DLMF 5.11(ii)). So at z = n + 1, H_n lies between the
  cut sum plus gamma and that less the first neglected term.
* ``mpmath.iv`` rounds every operation outward, and its log and Euler's
  constant are enclosures, so the interval it computes holds H_n.
* Rounding to nearest is monotone: when both ends of the interval round to
  the same wp-bit mpf, so does every point between them, H_n among them.
  That mpf is H_n correctly rounded, bit for bit the exact sum rounded
  once.
* When the ends round apart, the interval is taken again with twice the
  extra bits. More bits always settle it in the end, because H_n is never
  a rounding midpoint: for n >= 3, Bertrand's postulate gives a prime p
  with n/2 < p <= n, 1/p is the only term whose denominator p divides, so
  the odd prime p divides the denominator of H_n and H_n is not dyadic
  (H_1 and H_2 have two bits). When the series cannot reach the target
  with the Bernoulli numbers ``euler_gamma(wp)`` builds, which is so at
  the first attempt for small n or a high wp, the exact sum gives H_n
  instead, carried from each sample of a sweep to the next.

The expansion of exp(p*psi(x+t)) is evaluated from its point series, the
rationals G_n(p, t) of ``expansions.coefficients``; no polynomial in p or t
is built. Counts and orders must be integers and points ints or Fractions,
so no float enters an exact value.

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
from operator import index
from typing import Sequence, Union

from .algebra import _rational
from .bernoulli import bernoulli_number
from .expansions import Series, coefficients

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


def _check_prec(prec: int) -> None:
    if index(prec) < 1:
        raise ValueError(f"precision must be >= 1 bit, got {prec}")


def _round_ratio(num: int, den: int, prec: int) -> mpmath.mpf:
    """num/den, den > 0 and not necessarily in lowest terms, rounded once to
    the nearest mpf of ``prec`` bits (ties to even).

    When both operands are longer than prec + 64 bits, both are shifted
    right by one count that leaves the shorter prec + 64 bits, giving n and
    m. The quotient lies strictly between n/(m+1) and (n+1)/m, and rounding
    is monotone, so when those two ends round alike that is the answer
    (Ziv's strategy). Near a rounding boundary they can differ, and then the
    full operands are divided.
    """
    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    a = abs(num)
    value = None
    shift = min(a.bit_length(), den.bit_length()) - (prec + 64)
    if shift > 0:
        n, m = a >> shift, den >> shift
        low = libmp.from_rational(n, m + 1, prec, rnd)
        if low == libmp.from_rational(n + 1, m, prec, rnd):
            value = low
    if value is None:
        value = libmp.from_rational(a, den, prec, rnd)
    return mpmath.mp.make_mpf(libmp.mpf_neg(value) if num < 0 else value)


def to_mpf(value: RationalLike, prec: int) -> mpmath.mpf:
    """Round an exact rational to the nearest mpf at the given bit precision."""
    _check_prec(prec)
    value = _rational(value)
    return _round_ratio(value.numerator, value.denominator, prec)


def _reciprocal_sum(x: Fraction, m: int) -> tuple[int, int]:
    """Exact sum_{k<m} 1/(x+k) for a positive rational x = a/b, as a pair
    (P, Q) with the sum P/Q and Q > 0, not in lowest terms.

    Binary splitting over the integer terms b/(a+kb): each half of the
    range is carried as one fraction P/Q, and no gcd is taken.
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
        return 0, 1
    p, q = split(0, m)
    return b * p, q


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n, as the reciprocal
    sum of 1, 2, ..., n by binary splitting, in lowest terms."""
    if index(n) < 0:
        raise ValueError(f"harmonic numbers need n >= 0, got {n}")
    return Fraction(*_reciprocal_sum(Fraction(1), n))


def _round_to(value: mpmath.mpf, prec: int) -> mpmath.mpf:
    with mpmath.mp.workprec(prec):
        return +value


def _psi_terms(prec: int) -> int:
    """How many tail terms B_2j/(2j z^2j) ``psi_ref`` sums at ``prec`` bits."""
    return 2 * ((prec + 15) // 16)


@lru_cache(maxsize=8)
def _tail_coefficients(terms: int, wp: int) -> tuple[mpmath.mpf, ...]:
    """B_2j/(2j) for j = 1..terms, each rounded once to ``wp`` bits. The
    cache holds a few working precisions, as ``euler_gamma``'s does."""
    # the highest index first: the tangent table is then built once, to
    # this length, not regrown by doubling on the way up
    bernoulli_number(2 * terms)
    bs = [(2 * j, bernoulli_number(2 * j)) for j in range(1, terms + 1)]
    return tuple(_round_ratio(b.numerator, k * b.denominator, wp) for k, b in bs)


def psi_ref(x: RationalLike, prec: int = 256) -> mpmath.mpf:
    """Digamma at a positive rational argument, correct to ``prec`` bits."""
    _check_prec(prec)
    x = _rational(x)
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    return _psi_at(x, prec)


@lru_cache(maxsize=16)
def _psi_at(x: Fraction, prec: int) -> mpmath.mpf:
    """``psi_ref`` for a checked argument. The cache holds a few (x, prec)
    pairs, as ``euler_gamma``'s holds a few precisions."""
    wp = prec + GUARD
    with mpmath.mp.workprec(wp):
        threshold = max(32, prec // 4)
        m = 0
        if x < threshold:
            m = threshold - math.floor(x)
        z = to_mpf(x + m, wp)
        # log z - 1/(2z) - sum_j B_{2j} / (2j z^(2j)), Horner in 1/z^2
        w = 1 / (z * z)
        acc = mpmath.mpf(0)
        for c in reversed(_tail_coefficients(_psi_terms(prec), wp)):
            acc = (acc + c) * w
        value = mpmath.log(z) - 1 / (2 * z) - acc
        # undo the recurrence shift psi(x+m) = psi(x) + sum_{k<m} 1/(x+k)
        value -= _round_ratio(*_reciprocal_sum(x, m), wp)
    return _round_to(value, prec)


@lru_cache(maxsize=8)
def euler_gamma(prec: int = 256) -> mpmath.mpf:
    """Euler's constant as -psi(1), at ``prec`` bits. The cache holds a few
    precisions, so a caller sweeping many of them does not grow it."""
    _check_prec(prec)
    value = psi_ref(1, prec + GUARD)
    with mpmath.mp.workprec(prec):
        return -value


def _tail_length(z: int, bits: int, terms: int) -> int | None:
    """The least J <= terms whose term |B_2J|/(2J z^2J), which bounds the
    digamma remainder after J - 1 terms, is at most 2^-bits by a float
    estimate of its logarithm; None when no J <= terms is.

    By Euler's formula |B_2j| >= 2 (2j)!/(2 pi)^2j and Stirling's lower
    bound for (2j)!, every such term is at least 2 sqrt(pi/terms)
    e^(-2 pi z), the value at 2j = 2 pi z; when that is above 2^-bits, no
    Bernoulli number is read."""
    if 1 + math.log2(math.pi / terms) / 2 - 2 * math.pi * z * math.log2(math.e) > -bits:
        return None
    log_z = math.log2(z)
    for j in range(1, terms + 1):
        b = bernoulli_number(2 * j)
        if math.log2(abs(b.numerator)) - math.log2(2 * j * b.denominator) <= 2 * j * log_z - bits:
            return j
    return None


def _harmonic_enclosure(n: int, terms: int, prec: int):
    """An ``mpmath.iv`` interval at ``prec`` bits that holds H_n = psi(z) +
    gamma, z = n + 1: log z - 1/(2z) - sum_{j<terms} B_2j/(2j z^2j) - R +
    gamma, with R between 0 and the first neglected term, j = terms."""
    iv, libmp = mpmath.iv, mpmath.libmp
    saved, iv.prec = iv.prec, prec
    try:
        z = iv.mpf(n + 1)
        w = 1 / (z * z)
        acc = iv.mpf(0)
        for j in range(terms, 0, -1):
            b = bernoulli_number(2 * j)
            # B_2j/(2j) between its roundings down and up, made from the
            # integers directly rather than by interval conversion and division
            num, den = b.numerator, 2 * j * b.denominator
            c = iv.make_mpf(tuple(
                libmp.from_rational(num, den, prec, rnd)
                for rnd in (libmp.round_floor, libmp.round_ceiling)
            ))
            if j == terms:
                c *= iv.mpf([0, 1])
            acc = (acc + c) * w
        return iv.log(z) - 1 / (2 * z) - acc + iv.euler
    finally:
        iv.prec = saved


def _harmonic_rounded(n: int, wp: int) -> mpmath.mpf | None:
    """H_n rounded to nearest at ``wp`` bits, certified from an interval
    enclosure of psi(n+1) + gamma, or None when the digamma series cannot
    reach the target with the Bernoulli numbers that ``euler_gamma(wp)``
    builds, and the exact sum must give it.

    The enclosure is taken at ``wp + extra`` bits with enough terms for a
    remainder of at most 2^-(wp+extra). When its two ends round alike, that
    is H_n rounded; otherwise ``extra``, from 32, is doubled."""
    libmp = mpmath.libmp
    terms = _psi_terms(wp + GUARD)
    extra = 32
    while (j := _tail_length(n + 1, wp + extra, terms)) is not None:
        ends = _harmonic_enclosure(n, j, wp + extra)._mpi_
        low, high = (libmp.mpf_pos(end, wp, libmp.round_nearest) for end in ends)
        if low == high:
            return mpmath.mp.make_mpf(low)
        extra *= 2
    return None


def eval_expansion(g: Series, p: RationalLike, x: RationalLike, prec: int = 256) -> mpmath.mpf:
    """Evaluate x^p * sum_{n<=g.order} g[n] x^(-n) for a point series g,
    whose coefficients are the rationals G_n(p, t) at one (p, t)."""
    _check_prec(prec)
    p = _rational(p)
    x = _rational(x)
    if x <= 0:
        raise ValueError(f"expansion variable must be positive, got {x}")
    wp = prec + GUARD
    with mpmath.mp.workprec(wp):
        xv = to_mpf(x, wp)
        inv = 1 / xv
        acc = mpmath.mpf(0)
        for c in reversed(g.coeffs):
            acc = acc * inv + _round_ratio(c.numerator, c.denominator, wp)
        value = mpmath.power(xv, to_mpf(p, wp)) * acc
    return _round_to(value, prec)


@dataclass(frozen=True)
class ApproxResult:
    """One approximation sample: target index, series order, value, error."""

    n: int
    order_used: int
    value: mpmath.mpf
    abs_error: mpmath.mpf


def _check_sample(n: int, order: int, prec: int, t: Fraction, arg: Fraction, arg_text: str) -> None:
    """Reject a sample before any series or sum is built: n and the order,
    which must be integers, the precision, and a point ``arg`` that must be
    positive (the expansion variable n + 1 - t, or the digamma argument
    n + t), written ``arg_text`` in n and t."""
    if index(n) < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if index(order) < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    _check_prec(prec)
    if arg <= 0:
        raise ValueError(f"need {arg_text} > 0, got n = {n}, t = {t}")


def _exp_series(order: int, p: Fraction, t: Fraction) -> Series:
    """The point series G_0(p, t)..G_order(p, t), exact rationals."""
    return coefficients("g", order, p, t)


def _harmonic_samples(
    target: str, ns: Sequence[int], order: int, t: RationalLike, prec: int
) -> list[ApproxResult]:
    """``approx_gamma`` (target "gamma") or ``approx_harmonic`` ("harmonic")
    at each n of the nondecreasing ``ns``. H_n comes rounded from
    ``_harmonic_rounded``; where that gives None, it is one unreduced sum
    P/Q, carried from each such sample to the next and extended by the
    reciprocals in between: P, Q = P q + p Q, Q q for the block p/q."""
    t = _rational(t)
    for n in ns:
        _check_sample(n, order, prec, t, n + 1 - t, "n + 1 - t")
    g = _exp_series(order, 1, t)
    wp = prec + GUARD
    # also builds the Bernoulli numbers that _harmonic_rounded reads
    gamma = euler_gamma(wp)
    out = []
    h_num, h_den, done = 0, 1, 0
    for n in ns:
        h = _harmonic_rounded(n, wp)
        if h is None:
            p, q = _reciprocal_sum(Fraction(done + 1), n - done)
            h_num, h_den, done = h_num * q + p * h_den, h_den * q, n
            h = _round_ratio(h_num, h_den, wp)
        with mpmath.mp.workprec(wp):
            e = eval_expansion(g, 1, n + 1 - t, wp)
            if target == "gamma":
                value = h - mpmath.log(e)
                err = abs(value - gamma)
            else:
                value = gamma + mpmath.log(e)
                err = abs(value - h)
        out.append(ApproxResult(n, order, _round_to(value, prec), _round_to(err, prec)))
    return out


def approx_gamma(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """Euler's constant via H_n - log(expansion at x = n + 1 - t)."""
    return _harmonic_samples("gamma", [n], order, t, prec)[0]


def approx_harmonic(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """H_n via gamma + log(expansion at x = n + 1 - t)."""
    return _harmonic_samples("harmonic", [n], order, t, prec)[0]


def approx_exp_psi(
    n: int,
    order: int,
    p: RationalLike = 1,
    t: RationalLike = 1,
    prec: int = 256,
) -> ApproxResult:
    """exp(p * psi(n + t)) via the truncated expansion at x = n."""
    p = _rational(p)
    t = _rational(t)
    _check_sample(n, order, prec, t, n + t, "n + t")
    g = _exp_series(order, p, t)
    with mpmath.mp.workprec(prec + GUARD):
        value = eval_expansion(g, p, n, mpmath.mp.prec)
        exact = mpmath.exp(to_mpf(p, mpmath.mp.prec) * psi_ref(n + t, mpmath.mp.prec))
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
