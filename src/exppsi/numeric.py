"""High-precision evaluation and convergence measurement.

Precision policy: every routine takes a working precision ``prec`` of at
least one bit and computes internally with ``prec + GUARD`` bits before
rounding the result back to ``prec``. Series coefficients and sums stay
exact rationals until the floating evaluation, and each reaches mpmath as
one division (``_round_ratio``), which mpmath rounds correctly: the nearest
mpf, ties to even. That value does not depend on how the fraction is
written, so sums stay unreduced pairs (P, Q) and no gcd is taken to round
them. A truncated expansion is such a sum too: ``eval_expansion`` carries
sum_n G_n x^-n exactly and rounds it once, and at p = 1 it folds x in first,
so that value is a single rounding. After that, the only roundings are a few
raw libmp steps at the working precision wp: x^p at any other p, and the log
or exp and the differences that make an approximant and its error
(``mpf_pow``, ``mpf_log``, ``mpf_exp``, ``mpf_mul``, ``mpf_add``, ``mpf_sub``,
``mpf_abs``, each to nearest). They are the calls that mpmath's functions and
operators make under ``workprec(wp)``, on operands rounded as those would
round them, so every bit is theirs; no context is entered, and only the
values returned are wrapped as mpf.

The digamma reference value is computed from scratch, as an enclosure
(``_psi_enclosure``): psi(x) = psi(x+m) - sum_{k<m} 1/(x+k), the correction
summed exactly by binary splitting (``_reciprocal_sum``, which also gives
the harmonic numbers). For real z > 0, the series log z - 1/(2z) - sum_j
B_2j/(2j z^2j) cut before j = J leaves a remainder bounded by the first
neglected term and of its sign (DLMF 5.11(ii)). Every step rounds outward
through mpmath's interval primitives, so the two ends hold psi(x) for any m
and J. One rule, ``_cut``, takes either the least m > 0 that brings the
term j = terms under 2^-bits, with J = terms, or m = 0 and the first J whose
term meets 2^-bits, which exists: the terms fall while 2j < 2 pi z. It
estimates each term in floats from |B_2j| = 2 (2j)! zeta(2j)/(2 pi)^2j (DLMF
25.6.2), so it reads no Bernoulli number; only the tail that is summed
(``_tail_bounds``) does, its last one first, so the table is built once.
Rounding to nearest is monotone: when both ends round to the same prec-bit
mpf, that mpf is psi(x) correctly rounded. Otherwise the enclosure is taken
again with twice the extra bits (``_round_enclosed``), which settles it
unless psi(x) is itself a rounding midpoint. The library digamma is
deliberately not used here so the tests can treat it as an independent
cross-check. The last few values are kept, keyed on (x, prec), so
approximants of growing order at one point compute the reference once.

Euler's constant is mpmath's, between its roundings down and up
(``_gamma_ends``), correctly rounded by the same loop, which stops: were
gamma rational, its denominator would exceed 10^242080 (by its continued
fraction), so it is no rounding midpoint below about 800,000 bits.
``psi_ref(1)`` stays this module's own construction, tested against that
constant (``test_correctly_rounded_at_the_integers``).

``approx_gamma`` and ``approx_harmonic`` share one body,
``_harmonic_sample``, which takes one n. A sample needs H_n only rounded
once to the working precision wp; ``_harmonic_rounded`` keeps the last few,
keyed on (n, wp), so approximants of growing order at one n take it once.
Each attempt of its loop asks ``_cut`` at n + 1. Where no shift is needed,
it reads H_n off the enclosure at m = 0, as psi(n+1) + gamma, not by
summing n reciprocals; where one is (small n or a high wp; the shift only
grows with the bits), H_n lies between the floor and ceiling of its exact
sum. Either way that is bit for bit the exact sum rounded once, and the
loop stops, because H_n is never a rounding midpoint: for n >= 3,
Bertrand's postulate gives a prime p with n/2 < p <= n, 1/p is the only term
whose denominator p divides, so the odd prime p divides the denominator of
H_n and H_n is not dyadic (H_1 and H_2 have two bits).

The expansion of exp(p*psi(x+t)) is evaluated from its point series, the
rationals G_n(p, t) of ``expansions.coefficients``; no polynomial in p or t
is built. Counts and orders must be integers and points ints or Fractions,
so no float enters an exact value.

Results are returned as ``ApproxResult`` values and convergence orders as
rationals; the command line renders them.

mpmath is imported the first time one of these routines runs, not when this
module is imported. The exact commands (``coeffs``, ``verify``,
``errata``) never evaluate a float and load neither this module nor mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import index, mul
from typing import NamedTuple, Sequence, Union

from .algebra import _over_one_den, _rational, _weights
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
# the extra bits of a rounding loop's first attempt, doubled at each retry
EXTRA = 32


class _Mpmath:
    """Stands for the mpmath module in this module's globals until one of its
    names is first read. That read imports mpmath and rebinds the global
    ``mpmath`` to the module itself, so every later use is a plain module
    attribute with no cost per call. The package imports this module before
    ``identities`` to resolve a name, so an exact check such as
    ``exppsi.check_reflection`` loads it too, and must not load mpmath."""

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
    the nearest mpf of ``prec`` bits (ties to even)."""
    libmp = mpmath.libmp
    return mpmath.mp.make_mpf(libmp.from_rational(num, den, prec, libmp.round_nearest))


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


def _psi_terms(prec: int) -> int:
    """The most tail terms ``psi_ref`` takes at ``prec`` bits, to Bernoulli
    index about prec/4; the shift that then meets 2^-bits is about prec/4."""
    return 2 * ((prec + 15) // 16)


def _cut(x: RationalLike, bits: int, terms: int) -> tuple[int, int]:
    """The shift m and tail length J for the digamma series at z = x + m,
    by a float estimate of the log of its term |B_2j|/(2j z^2j), which bounds
    the remainder after j - 1 terms (log x as that of its numerator less that
    of its denominator, so a huge x is never a float). |B_2j| is estimated as
    2 (2j)! zeta(2j)/(2 pi)^2j (DLMF 25.6.2), with zeta(2j) summed to k = 15
    and its Euler-Maclaurin tail from 16, within 10^-10 of it; no Bernoulli
    number is read. The ends hold psi(x) for any (m, J), so a wrong estimate
    could only widen them.

    Either the least m > 0 that brings that term under 2^-bits, with J =
    ``terms``, or m = 0 and the least J whose term meets 2^-bits. As |B_2j| ~
    2 (2j)!/(2 pi)^2j, the terms fall while 2j < 2 pi z, and at their least,
    about e^(-2 pi z), they reach 2^-bits only for z >~ bits ln 2/(2 pi),
    which is more than terms/pi for each caller; so where no shift is needed
    they still fall at j = terms, and some J <= terms meets 2^-bits."""

    def log_term(j: int) -> float:
        s = 2 * j
        tail = 16 / (s - 1) + 1 / 2 + s / 192 - s * (s + 1) * (s + 2) / 2949120
        zeta = math.fsum(k**-s for k in range(1, 16)) + 16**-s * tail
        return 1 + (math.lgamma(s + 1) + math.log(zeta)) / math.log(2) - s * math.log2(2 * math.pi) - math.log2(s)

    z = 2.0 ** ((log_term(terms) + bits) / (2 * terms))
    if x < z:
        return math.ceil(z - x), terms
    log_x = math.log2(x.numerator) - math.log2(x.denominator)
    return 0, next((j for j in range(1, terms) if log_term(j) <= 2 * j * log_x - bits), terms)


def _ratio_ends(num: int, den: int, bits: int) -> tuple:
    """num/den, den > 0, as raw mpf ends: its roundings down and up."""
    libmp = mpmath.libmp
    return tuple(libmp.from_rational(num, den, bits, rnd) for rnd in (libmp.round_floor, libmp.round_ceiling))


@lru_cache(maxsize=8)
def _tail_bounds(terms: int, bits: int) -> tuple[tuple, ...]:
    """B_2j/(2j) for j = 1..terms, each as ``_ratio_ends`` at ``bits`` bits;
    the cache holds a few (terms, bits) pairs. The last number is read first,
    so the Bernoulli table is built once, to it."""
    bernoulli_number(2 * terms)
    bs = [(2 * j, bernoulli_number(2 * j)) for j in range(1, terms + 1)]
    return tuple(_ratio_ends(b.numerator, k * b.denominator, bits) for k, b in bs)


def _psi_enclosure(x: RationalLike, m: int, terms: int, bits: int) -> tuple:
    """psi(x), x > 0, between two raw mpf ends at ``bits`` bits, as psi(x+m) -
    sum_{k<m} 1/(x+k), the series cut before j = J = ``terms`` and its
    remainder between 0 and the term j = J. Every step rounds outward, so
    the ends hold psi(x) for any m >= 0 and J >= 1, however far apart."""
    libmp = mpmath.libmp
    z = x + m
    zs = _ratio_ends(z.numerator, z.denominator, bits)
    r = libmp.mpi_div((libmp.fone, libmp.fone), zs, bits)
    w = libmp.mpi_mul(r, r, bits)
    tail = _tail_bounds(terms, bits)
    # Horner in w = 1/z^2, from the last term times [0, 1], which holds R
    acc = libmp.mpi_mul(tail[-1], (libmp.fzero, libmp.fone))
    for c in reversed(tail[:-1]):
        acc = libmp.mpi_add(libmp.mpi_mul(acc, w, bits), c, bits)
    acc = libmp.mpi_add(libmp.mpi_mul(acc, w, bits), tuple(libmp.mpf_shift(end, -1) for end in r), bits)
    value = libmp.mpi_sub(libmp.mpi_log(zs, bits), acc, bits)
    # undo the recurrence shift psi(x+m) = psi(x) + sum_{k<m} 1/(x+k)
    return libmp.mpi_sub(value, _ratio_ends(*_reciprocal_sum(x, m), bits), bits)


def _round_enclosed(enclose, prec: int) -> mpmath.mpf:
    """The value held between the two raw mpf ends of ``enclose(prec + extra)``
    rounded to nearest at ``prec`` bits, ``extra`` from ``EXTRA`` doubling
    until both ends round alike."""
    libmp = mpmath.libmp
    extra = EXTRA
    while True:
        low, high = (libmp.mpf_pos(end, prec, libmp.round_nearest) for end in enclose(prec + extra))
        if low == high:
            return mpmath.mp.make_mpf(low)
        extra *= 2


def psi_ref(x: RationalLike, prec: int = 256) -> mpmath.mpf:
    """Digamma at a positive rational argument, correctly rounded to ``prec`` bits."""
    _check_prec(prec)
    x = _rational(x)
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    return _psi_at(x, prec)


@lru_cache(maxsize=16)
def _psi_at(x: Fraction, prec: int) -> mpmath.mpf:
    """``psi_ref`` for a checked argument; the cache holds a few (x, prec)
    pairs. Each attempt shifts and cuts at J <= ``_psi_terms(prec)`` by
    ``_cut``; where its estimate falls short, the enclosure is wider."""
    terms = _psi_terms(prec)
    return _round_enclosed(lambda bits: _psi_enclosure(x, *_cut(x, bits, terms), bits), prec)


def _gamma_ends(bits: int) -> tuple:
    """Euler's constant as raw mpf ends: mpmath's roundings of it down and up."""
    libmp = mpmath.libmp
    return tuple(libmp.mpf_euler(bits, rnd) for rnd in (libmp.round_floor, libmp.round_ceiling))


def euler_gamma(prec: int = 256) -> mpmath.mpf:
    """Euler's constant, correctly rounded to ``prec`` bits."""
    _check_prec(prec)
    return _round_enclosed(_gamma_ends, prec)


@lru_cache(maxsize=16)
def _harmonic_rounded(n: int, wp: int) -> mpmath.mpf:
    """H_n rounded to nearest at ``wp`` bits. Each attempt asks ``_cut`` at
    n + 1 with ``_psi_terms(wp + GUARD)`` tail terms: where it needs no shift,
    H_n is read off psi(n+1) + gamma; where it shifts, H_n lies between the
    floor and ceiling of the exact sum. The cache holds a few (n, wp) pairs."""
    libmp = mpmath.libmp
    terms = _psi_terms(wp + GUARD)

    def enclose(bits: int) -> tuple:
        m, J = _cut(n + 1, bits, terms)
        if m:
            return _ratio_ends(*_reciprocal_sum(Fraction(1), n), bits)
        return libmp.mpi_add(_psi_enclosure(n + 1, 0, J, bits), _gamma_ends(bits), bits)

    return _round_enclosed(enclose, wp)


def eval_expansion(g: Series, p: RationalLike, x: RationalLike, prec: int = 256) -> mpmath.mpf:
    """Evaluate x^p * sum_{n<=g.order} g[n] x^(-n) for a point series g,
    whose coefficients are the rationals G_n(p, t) at one (p, t).

    The sum S is one exact rational: the coefficients' numerators over D,
    the lcm of their denominators, dotted with the powers of 1/x from
    ``_weights``, as ``algebra`` values a polynomial at a point. It is kept
    as an unreduced pair and rounded once. At p = 1, x S is rational too,
    so the value is one correctly rounded division at ``prec`` bits; any
    other p takes x^p from ``mpf_pow`` at ``prec + GUARD`` bits, as x^p is
    exact only at a cost that grows with p, and rounds x^p S, as
    ``mpmath.power(x, p) * S`` under that precision gives it, to ``prec``."""
    _check_prec(prec)
    if kinds := {type(c).__name__ for c in g.coeffs if not isinstance(c, (int, Fraction))}:
        raise TypeError(f"eval_expansion needs a point series of rationals, got {', '.join(sorted(kinds))} coefficients")
    p = _rational(p)
    x = _rational(x)
    if x <= 0:
        raise ValueError(f"expansion variable must be positive, got {x}")
    a, b = x.numerator, x.denominator
    nums, D = _over_one_den(g.coeffs)
    weight, scale = _weights(1 / x, len(nums) - 1)
    num, den = sum(map(mul, nums, weight)), D * scale
    if p == 1:
        return _round_ratio(num * a, den * b, prec)
    libmp = mpmath.libmp
    wp, rnd = prec + GUARD, libmp.round_nearest
    x_wp, p_wp = libmp.from_rational(a, b, wp, rnd), libmp.from_rational(p.numerator, p.denominator, wp, rnd)
    value = libmp.mpf_mul(libmp.mpf_pow(x_wp, p_wp, wp, rnd), libmp.from_rational(num, den, wp, rnd), wp, rnd)
    return mpmath.mp.make_mpf(libmp.mpf_pos(value, prec, rnd))


class ApproxResult(NamedTuple):
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


def _sample(n: int, order: int, value: tuple, want: tuple, wp: int, prec: int) -> ApproxResult:
    """The sample of raw mpf ``value`` against ``want``, both at ``wp`` bits:
    the value and |value - want| rounded to ``prec``, the difference at wp."""
    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    err = libmp.mpf_abs(libmp.mpf_sub(value, want, wp, rnd), prec, rnd)
    return ApproxResult(n, order, mpmath.mp.make_mpf(libmp.mpf_pos(value, prec, rnd)), mpmath.mp.make_mpf(err))


def _harmonic_sample(target: str, n: int, order: int, t: RationalLike, prec: int) -> ApproxResult:
    """``approx_gamma`` (target "gamma") or ``approx_harmonic`` ("harmonic"):
    gamma, H_n (by ``_harmonic_rounded``) and the expansion e, each rounded
    once at wp bits, then H_n - log e or gamma + log e at wp."""
    t = _rational(t)
    x = n + 1 - t
    _check_sample(n, order, prec, t, x, "n + 1 - t")
    g = _exp_series(order, 1, t)
    wp = prec + GUARD
    gamma = euler_gamma(wp)._mpf_
    h = _harmonic_rounded(n, wp)._mpf_
    e = eval_expansion(g, 1, x, wp)._mpf_
    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    if libmp.mpf_sign(e) < 0:
        raise ValueError(f"the expansion of order {order} is negative at x = n + 1 - t = {x}, "
                         "so it has no log")
    log_e = libmp.mpf_log(e, wp, rnd)
    if target == "gamma":
        return _sample(n, order, libmp.mpf_sub(h, log_e, wp, rnd), gamma, wp, prec)
    return _sample(n, order, libmp.mpf_add(gamma, log_e, wp, rnd), h, wp, prec)


def approx_gamma(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """Euler's constant via H_n - log(expansion at x = n + 1 - t)."""
    return _harmonic_sample("gamma", n, order, t, prec)


def approx_harmonic(
    n: int, order: int, t: RationalLike = 1, prec: int = 256
) -> ApproxResult:
    """H_n via gamma + log(expansion at x = n + 1 - t)."""
    return _harmonic_sample("harmonic", n, order, t, prec)


def approx_exp_psi(
    n: int,
    order: int,
    p: RationalLike = 1,
    t: RationalLike = 1,
    prec: int = 256,
) -> ApproxResult:
    """exp(p * psi(n + t)) via the truncated expansion at x = n, against
    exp(p psi(n + t)) from p and psi_ref, each rounded once at wp bits."""
    p = _rational(p)
    t = _rational(t)
    _check_sample(n, order, prec, t, n + t, "n + t")
    g = _exp_series(order, p, t)
    wp = prec + GUARD
    value = eval_expansion(g, p, n, wp)._mpf_
    psi = psi_ref(n + t, wp)._mpf_
    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    exponent = libmp.mpf_mul(libmp.from_rational(p.numerator, p.denominator, wp, rnd), psi, wp, rnd)
    return _sample(n, order, value, libmp.mpf_exp(exponent, wp, rnd), wp, prec)


def convergence_order(points: Sequence[tuple[int, mpmath.mpf]]) -> Fraction:
    """Least-squares slope of log(error) against log(n), negated.

    Given samples (n_i, err_i) with err_i ~ C n_i^(-q), returns q as a
    rational rounded to denominator <= 10**6.
    """
    if any(err <= 0 for _, err in points):
        raise ValueError("error vanished; exceeds measurable order")
    if len({n for n, _ in points}) < 2:
        raise ValueError("need at least two distinct sample sizes")
    xs = [mpmath.log(mpmath.mpf(n)) for n, _ in points]
    ys = [mpmath.log(err) for _, err in points]
    if len(set(xs)) < 2:
        raise ValueError(f"sample sizes too close to tell apart at {mpmath.mp.prec} bits")
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    slope = -num / den
    return Fraction(*mpmath.libmp.to_rational(slope._mpf_)).limit_denominator(10**6)


def format_mpf(value: mpmath.mpf, prec: int = 256) -> str:
    """Decimal rendering with digits matched to the binary precision."""
    return mpmath.nstr(value, mpmath.libmp.prec_to_dps(prec))
