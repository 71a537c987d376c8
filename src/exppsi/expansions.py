"""Coefficient engine for the asymptotic expansions of exp(p*psi(x+t)).

The digamma function admits an asymptotic expansion in log form,

    psi(x+t) ~ log( sum_{n>=0} S_n(t) x^(1-n) ),

and exponentiating with a power p gives

    exp(p*psi(x+t)) ~ x^p sum_{n>=0} G_n(p,t) x^(-n).

Both families come from one log-series recurrence,

    a_0 = 1,   n a_n = c sum_{k=1}^{n} (-1)^(k+1) beta_k a_{n-k},

with beta_k = B_k(t) the Bernoulli polynomials: c = 1 gives S_n and c = p
gives G_n. ``_log_series`` holds it once, over whatever ring the a_n, beta_k
and c belong to. ``coefficients(kind, n_max, p, t)`` is the one entry point
to its four instances, S_n(t) being G_n(1,t):

* G_n(p,t) as bivariate polynomials, c = p: ``g_via_bernoulli`` (canonical).
* G_n(p0,t) at a fixed p0, as polynomials in t, c = p0.
* G_n(p,t0) at a fixed t0, as polynomials in p, beta_k = B_k(t0), c = p.
* the point series G_n(p0,t0): rationals, beta_k = B_k(t0), c = p0, so no
  polynomial is built.

Each step's sum of products is one ``_dot``: over the rationals an integer
sum over one common denominator with a single gcd, and in a polynomial
ring a running sum.

Two more constructions of G_n must agree with the canonical one term for
term:

* ``g_via_power_transform``: raise the S series to a symbolic power p by
  the classical recurrence for g(x)^p (``_power``).
* ``g_via_compositions``: the closed form
  (-1)^n G_n = sum_{r=1}^{n} ((-p)^r / r!) bucket[n][r],
  bucket[n][r] = sum_{k_1+...+k_r = n, k_i>=1} B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r),
  which is the (-p)^r/r! expansion of exp(-p L), L = sum_k B_k(t) x^(-k)/k,
  read at -x. The exponential formula gives the buckets by splitting off the
  last part of each composition:
      bucket[0] = {0: 1},  bucket[n][r] = sum_{k=1}^{n} (B_k(t)/k) bucket[n-k][r-1],
  in O(n^2 r) polynomial products, though there are 2^(n-1) compositions.
  The buckets are the coefficients of the powers L^r; no G_n is fed back and
  nothing is divided by n, so the route shares no code with ``_log_series``
  or ``_power``.

Every series comes back as one ``Series``: its coeffs are Polys in t for
S_n and for G_n at fixed p, Polys with ``var == "p"`` for G_n at fixed t,
BiPolys in (p, t) for the bivariate G_n, and rationals, from the point
series, once both p and t are fixed.

Caches: every series is kept as a prefix that only grows, under one lock,
so order N+1 extends order N instead of rebuilding it. The bivariate G_n
are one pinned prefix. A series with p, t or both fixed keeps its own
prefix, with the beta_k it has read, per fixed value; the least recently
used of them is dropped past a fixed number of keys, so the cache does not
grow with the number of points asked for. The composition table is one
prefix too, as row n reads only the rows below it, and its rows are
read-only mappings. The power route is recomputed on every call from the
cached S series.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .algebra import BiPoly, Poly, _rational, _values_at
from .bernoulli import bernoulli_poly

__all__ = [
    "Series",
    "coefficients",
    "g_via_power_transform",
    "g_via_bernoulli",
    "g_via_compositions",
    "composition_buckets",
]

# guards every prefix below as it grows
_lock = threading.Lock()
# the bivariate G_0..G_N computed so far; they only grow
_g: list[BiPoly] = [BiPoly.one()]

# how many series with p, t or both fixed ``_prefix`` keeps
_SERIES_KEYS = 16


@dataclass(frozen=True)
class Series:
    """A truncated series sum_{n<=order} coeffs[n] x^(-n), exact coefficients."""

    coeffs: tuple

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _dot(xs: Sequence, ys: Sequence):
    """sum_i xs[i] ys[i], for nonempty sequences of one length. Over the
    rationals this is one integer sum over the lcm of the products'
    denominators, and one Fraction; in a polynomial ring, a running sum."""
    if isinstance(xs[0], (int, Fraction)) and isinstance(ys[0], (int, Fraction)):
        nums = [x.numerator * y.numerator for x, y in zip(xs, ys)]
        dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
        den = lcm(*dens)
        return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _log_series(a: list, beta: Sequence, c) -> list:
    """Extend a = [a_0, ..., a_m] in place to a_0..a_N, N = len(beta) - 1, by

        n a_n = c sum_{k=1}^{n} (-1)^(k+1) beta[k] a_{n-k},

    and return it. beta[0] is never read; the a_n, beta_k and c may be any
    ring elements whose products land in the ring of the a_n.
    """
    signed = [b if k % 2 else -b for k, b in enumerate(beta)]
    for n in range(len(a), len(beta)):
        a.append(c * _dot(signed[n:0:-1], a) * Fraction(1, n))
    return a


@lru_cache(maxsize=_SERIES_KEYS)
def _prefix(p: Fraction | None, t: Fraction | None) -> tuple[list, list]:
    """The terms a_0.. of the series at the fixed p, t or both (None where
    the variable is free) and the beta_k they read; both lists only grow.
    It is called under the lock, so each key has one pair."""
    if t is None:
        return [Poly.one()], []
    return [Poly.one("p") if p is None else Fraction(1)], []


def _grown(
    prefix: Callable[[], tuple[list, list]], n_max: int, more: Callable[[int, int], list], c
) -> Series:
    """The first n_max+1 terms of the series whose terms a and beta_k so far
    are ``prefix()``, extending both in place if short; ``more(lo, hi)``
    gives beta_lo..beta_(hi-1)."""
    if n_max < 0:
        raise ValueError("series order must be >= 0")
    with _lock:
        a, beta = prefix()
        if len(a) <= n_max:
            beta += more(len(beta), n_max + 1)
            _log_series(a, beta, c)
        return Series(tuple(a[: n_max + 1]))


def _bernoulli_polys(lo: int, hi: int) -> list[Poly]:
    return [bernoulli_poly(k) for k in range(lo, hi)]


def _power(a: Sequence[BiPoly]) -> list[BiPoly]:
    """b_0..b_N of (sum_k a_k x^-k)^p for a_0 = 1 and symbolic p, by the
    classical recurrence n b_n = sum_{k=1}^{n} (k(1+p) - n) a_k b_{n-k}."""
    one = BiPoly.one()
    p1 = BiPoly.var_p() + one
    b = [a[0]]
    for n in range(1, len(a)):
        acc = BiPoly.zero()
        for k in range(1, n + 1):
            acc = acc + (p1 * k - one * n) * a[k] * b[n - k]
        b.append(acc * Fraction(1, n))
    return b


def g_via_power_transform(n_max: int) -> Series:
    """G_n by raising the S series to a symbolic power p."""
    return Series(tuple(_power([BiPoly.of(c) for c in coefficients("s", n_max).coeffs])))


def g_via_bernoulli(n_max: int) -> Series:
    """Canonical route: the Bernoulli-polynomial recurrence with p symbolic."""

    def more(lo: int, hi: int) -> list[BiPoly]:
        return [*map(BiPoly.of, _bernoulli_polys(lo, hi))]

    return _grown(lambda: (_g, []), n_max, more, BiPoly.var_p())


@lru_cache(maxsize=1)
def _compositions() -> list[Mapping[int, Poly]]:
    """The composition table's rows so far, read-only; they only grow."""
    return [MappingProxyType({0: Poly.one()})]


def _composition_table(n_max: int) -> list[Mapping[int, Poly]]:
    """bucket[n] for n = 0..n_max: for each part count r, the sum of
    B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r) over ordered compositions
    k_1+...+k_r = n, by bucket[n][r] = sum_{k=1}^{n} (B_k(t)/k) bucket[n-k][r-1]."""
    if n_max < 0:
        raise ValueError("composition order must be >= 0")
    with _lock:
        table = _compositions()
        if len(table) <= n_max:
            weight = [None] + [bernoulli_poly(k) * Fraction(1, k) for k in range(1, n_max + 1)]
            for n in range(len(table), n_max + 1):
                row: dict[int, Poly] = {}
                for k in range(1, n + 1):
                    for r, poly in table[n - k].items():
                        row[r + 1] = row.get(r + 1, Poly.zero()) + weight[k] * poly
                table.append(MappingProxyType(row))
        return table[: n_max + 1]


def composition_buckets(n: int) -> Mapping[int, Poly]:
    """For each part count r, sum B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r) over
    ordered compositions k_1+...+k_r = n, as a read-only mapping."""
    return _composition_table(n)[n]


def g_via_compositions(n_max: int) -> Series:
    """Explicit route: (-1)^n G_n = sum_r ((-p)^r / r!) bucket[n][r], folded
    over the composition table of every order up to n_max."""
    out: list[BiPoly] = []
    for n, buckets in enumerate(_composition_table(n_max)):
        terms: dict[tuple[int, int], Fraction] = {}
        for r, poly in buckets.items():
            scale = Fraction((-1) ** (n + r), factorial(r))
            for j, c in enumerate(poly.coeffs):
                terms[(r, j)] = scale * c
        out.append(BiPoly(terms))
    return Series(tuple(out))


def coefficients(kind: str, n_max: int, p=None, t=None) -> Series:
    """S_n (kind "s") or G_n (kind "g") for n <= n_max, at the rational p
    and t given. The coefficients are rationals once every variable is
    fixed, Polys in the one that is free, and BiPolys for G with neither
    fixed. S_n is G_n at p = 1, so it takes no p."""
    if kind == "s":
        if p is not None:
            raise ValueError("--p applies only to the exponential family g")
        p = 1
    elif kind != "g":
        raise ValueError(f"series kind is 's' or 'g', not {kind!r}")
    p = None if p is None else _rational(p)
    t = None if t is None else _rational(t)
    if p is None and t is None:
        return g_via_bernoulli(n_max)
    if t is None:
        return _grown(lambda: _prefix(p, t), n_max, _bernoulli_polys, p)

    def at_t(lo: int, hi: int) -> list[Fraction]:
        # the new B_k(t) from one table of powers of t
        return _values_at(_bernoulli_polys(lo, hi), t)

    c = Poly.variable("p") if p is None else p
    return _grown(lambda: _prefix(p, t), n_max, at_t, c)

