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

Each step's sum of products is one call of the ring's kernel, ``_dot``:
one integer sum over one common denominator, with a single gcd.

Two more constructions of G_n must agree with the canonical one term for
term:

* ``g_via_power_transform``: raise the S series a_k to a symbolic power p
  by the classical recurrence for g(x)^p (``_power``), two sums per order:
      n b_n = (1+p) sum_{k=1}^{n} k a_k b_{n-k} - n sum_{k=1}^{n} a_k b_{n-k}.
* ``g_via_compositions``: the closed form
  (-1)^n G_n = sum_{r=1}^{n} ((-p)^r / r!) bucket[n][r],
  bucket[n][r] = sum_{k_1+...+k_r = n, k_i>=1} B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r),
  which is the (-p)^r/r! expansion of exp(-p L), L = sum_k B_k(t) x^(-k)/k,
  read at -x. The buckets are the coefficients of the powers L^r: with q
  marking the part count, sum_r q^r bucket[n][r] = [x^-n] 1/(1 - qL) is one
  BiPoly, q in the place of p, and splitting off each composition's last
  part gives it by one dot per order, though there are 2^(n-1) compositions:
      bucket[0] = 1,  bucket[n] = sum_{k=1}^{n} w_k bucket[n-k],  w_k = q B_k(t)/k.
  No G_n is fed back and nothing is divided by n, so the route shares no
  code with ``_log_series`` or ``_power``.

Every series comes back as one ``Series``: its coeffs are Polys in t for
S_n and for G_n at fixed p, Polys with ``var == "p"`` for G_n at fixed t,
BiPolys in (p, t) for the bivariate G_n, and rationals, from the point
series, once both p and t are fixed.

Caches: every series grows through one ``_grown(p, t, n_max)``, under one
lock, as a prefix that only grows, so order N+1 extends order N instead of
rebuilding it. Every prefix, the bivariate one included, keeps the beta_k
it has read, so a longer series reads only the B_k(t) it lacks. The
bivariate G_n (``_g``) and the composition table (``_compositions``) are
pinned module lists; the table is a prefix too, as bucket[n] reads only the
buckets below it, and a caller gets a copy of the list. A series with p, t or
both fixed keeps its own prefix per fixed value in ``_prefix``, and the
least recently used of them is dropped past 16 keys, so the cache does not
grow with the number of points asked for. The power route is recomputed on
every call from the cached S series.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .algebra import BiPoly, Poly, _dot, _rational, _values_at
from .bernoulli import bernoulli_poly

__all__ = [
    "Series",
    "coefficients",
    "g_via_power_transform",
    "g_via_bernoulli",
    "g_via_compositions",
]

# guards every prefix below as it grows
_lock = threading.Lock()
# the bivariate G_0..G_N computed so far and the beta_k they read; both only grow
_g: tuple[list[BiPoly], list[BiPoly]] = ([BiPoly.one()], [])
# the composition table's rows so far; they only grow
_compositions: list[BiPoly] = [BiPoly.one()]

# how many series with p, t or both fixed ``_prefix`` keeps
_SERIES_KEYS = 16


class Series(tuple):
    """A truncated series sum_{n<=order} coeffs[n] x^(-n), exact coefficients.

    The items are the coefficients, so a Series compares, hashes and unpacks
    as the tuple of them; ``coeffs`` is the series itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Series({tuple.__repr__(self)})"

    @property
    def coeffs(self) -> tuple:
        return self

    @property
    def order(self) -> int:
        return len(self) - 1


def _log_series(a: list, beta: Sequence, c) -> list:
    """Extend a = [a_0, ..., a_m] in place to a_0..a_N, N = len(beta) - 1, by

        n a_n = c sum_{k=1}^{n} (-1)^(k+1) beta[k] a_{n-k},

    and return it. beta[0] is never read; the a_n, beta_k and c may be any
    ring elements whose products land in the ring of the a_n.
    """
    signed = [b if k % 2 else -b for k, b in enumerate(beta)]
    for n in range(len(a), len(beta)):
        a.append(c * Fraction(1, n) * _dot(signed[n:0:-1], a))
    return a


@lru_cache(maxsize=_SERIES_KEYS)
def _prefix(p: Fraction | None, t: Fraction | None) -> tuple[list, list]:
    """The terms a_0.. of the series at the fixed p, t or both (None where
    the variable is free) and the beta_k they read; both lists only grow.
    It is called under the lock, so each key has one pair."""
    if t is None:
        return [Poly.one()], []
    return [Poly.one("p") if p is None else Fraction(1)], []


def _grown(p: Fraction | None, t: Fraction | None, n_max: int) -> Series:
    """The first n_max+1 terms of the series at the fixed p, t or both (None
    where the variable is free): the pinned ``_g`` when both are free, else
    ``_prefix(p, t)``. A short prefix reads only the B_k(t) it lacks, shapes
    them as its beta_k (BiPolys, Polys in t, or values at t) and keeps them,
    then extends its terms by ``_log_series`` with c = p."""
    if n_max < 0:
        raise ValueError("series order must be >= 0")
    with _lock:
        a, beta = _g if p is None and t is None else _prefix(p, t)
        if len(a) <= n_max:
            new = [bernoulli_poly(k) for k in range(len(beta), n_max + 1)]
            if t is not None:
                beta += _values_at(new, t)
                c = Poly.variable("p") if p is None else p
            elif p is None:
                beta += map(BiPoly.of, new)
                c = BiPoly.var_p()
            else:
                beta += new
                c = p
            _log_series(a, beta, c)
        return Series(a[: n_max + 1])


def _power(a: Sequence[BiPoly]) -> list[BiPoly]:
    """b_0..b_N of (sum_k a_k x^-k)^p for a_0 = 1 and symbolic p, by the
    recurrence in the module docstring, each k a_k formed once."""
    p1 = BiPoly.var_p() + BiPoly.one()
    ka = [a_k * k for k, a_k in enumerate(a)]
    b = [a[0]]
    for n in range(1, len(a)):
        rest = b[::-1]
        # b_n = ((1+p)/n) sum k a_k b_{n-k} - sum a_k b_{n-k}
        sums = (_dot(ka[1 : n + 1], rest), _dot(a[1 : n + 1], rest))
        b.append(_dot((p1 * Fraction(1, n), -1), sums))
    return b


def g_via_power_transform(n_max: int) -> Series:
    """G_n by raising the S series to a symbolic power p."""
    return Series(_power([BiPoly.of(c) for c in coefficients("s", n_max)]))


def g_via_bernoulli(n_max: int) -> Series:
    """Canonical route: the Bernoulli-polynomial recurrence with p symbolic."""
    return _grown(None, None, n_max)


def _composition_table(n_max: int) -> list[BiPoly]:
    """bucket[n] for n = 0..n_max, q^r bucket[n][r] summed over r as one
    BiPoly with q in the place of p: bucket[0] = 1 and bucket[n] =
    sum_{k=1}^{n} w_k bucket[n-k], one dot per order, w_k = q B_k(t)/k."""
    if n_max < 0:
        raise ValueError("composition order must be >= 0")
    with _lock:
        table = _compositions
        if len(table) <= n_max:
            polys = [bernoulli_poly(k) for k in range(1, n_max + 1)]
            w = [BiPoly._new([(), b.nums], b.den * k, None) for k, b in enumerate(polys, 1)]
            for n in range(len(table), n_max + 1):
                table.append(_dot(w[:n], table[::-1]))
        return table[: n_max + 1]


def _fold(n: int, bucket: BiPoly) -> BiPoly:
    """G_n from bucket[n]: row r times (-1)^(n+r)/r!, in integers over n!.
    The composition route and the product identity both read it."""
    top = factorial(n)
    scale = [(-1) ** (n + r) * (top // factorial(r)) for r in range(len(bucket.rows))]
    return BiPoly._new([[c * x for x in row] for c, row in zip(scale, bucket.rows)], bucket.den * top, None)


def g_via_compositions(n_max: int) -> Series:
    """Explicit route: (-1)^n G_n = sum_r ((-p)^r / r!) bucket[n][r], folded
    row by row over the composition table of every order up to n_max."""
    return Series(_fold(n, bucket) for n, bucket in enumerate(_composition_table(n_max)))


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
    return _grown(p, t, n_max)

