"""Coefficient engine for the asymptotic expansions of exp(p*psi(x+t)).

The digamma function admits an asymptotic expansion in log form,

    psi(x+t) ~ log( sum_{n>=0} S_n(t) x^(1-n) ),

and exponentiating with a power p gives

    exp(p*psi(x+t)) ~ x^p sum_{n>=0} G_n(p,t) x^(-n).

Both families come from one log-series recurrence,

    a_0 = 1,   n a_n = c sum_{k=1}^{n} (-1)^(k+1) beta_k a_{n-k},

with beta_k = B_k(t) the Bernoulli polynomials: c = 1 gives S_n and c = p
gives G_n. ``_log_series`` holds it once, over whatever ring the a_n, beta_k
and c belong to, and four functions are instances of it:

* ``g_via_bernoulli`` (canonical): G_n(p,t) as bivariate polynomials, c = p.
* ``g_series_at_p``: G_n(p0,t) as polynomials in t, c = p0.
* ``g_series_at_t``: G_n(p,t0) as polynomials in p, beta_k = B_k(t0), c = p.
* ``s_coeffs``: the p0 = 1 instance, since S_n(t) = G_n(1,t).

``coefficients(kind, n_max, p, t)`` is the one place that picks, for S or G
with p, t, both or neither fixed, which of these instances serves and what
type its coefficients have.

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
BiPolys in (p, t) for the bivariate G_n, and rationals once ``specialize``
fixes both p and t.

Caches: the bivariate G_n are kept as a prefix that only grows, under a
lock, so order N+1 extends order N instead of rebuilding it. S_n, the
single-variable series, the power route and the composition route are
recomputed on every call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .algebra import BiPoly, Poly
from .bernoulli import bernoulli_poly

__all__ = [
    "Series",
    "coefficients",
    "s_coeffs",
    "g_via_power_transform",
    "g_via_bernoulli",
    "g_via_compositions",
    "g_series_at_p",
    "g_series_at_t",
    "binomial_in_p",
    "shift_compose",
    "specialize",
    "composition_buckets",
]

# the bivariate G_0..G_N computed so far; they only grow
_lock = threading.Lock()
_g: list[BiPoly] = [BiPoly.one()]


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


def _log_series(a: list, beta: Sequence, c) -> list:
    """Extend a = [a_0, ..., a_m] in place to a_0..a_N, N = len(beta) - 1, by

        n a_n = c sum_{k=1}^{n} (-1)^(k+1) beta[k] a_{n-k},

    and return it. beta[0] is never read; the a_n, beta_k and c may be any
    ring elements whose products land in the ring of the a_n.
    """
    for n in range(len(a), len(beta)):
        acc = beta[1] * a[n - 1]
        for k in range(2, n + 1):
            term = beta[k] * a[n - k]
            acc = acc - term if k % 2 == 0 else acc + term
        a.append(c * acc * Fraction(1, n))
    return a


def _grown(prefix: list, n_max: int, beta: Callable[[int], object], c) -> Series:
    """The first n_max+1 terms of the series begun in ``prefix``, extending
    it in place if short."""
    if n_max < 0:
        raise ValueError("series order must be >= 0")
    if len(prefix) <= n_max:
        _log_series(prefix, [beta(k) for k in range(n_max + 1)], c)
    return Series(tuple(prefix[: n_max + 1]))


def s_coeffs(n_max: int) -> Series:
    """S_0..S_{n_max}: the p0 = 1 instance of the recurrence, S_n(t) = G_n(1, t)."""
    return g_series_at_p(Fraction(1), n_max)


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
    return Series(tuple(_power([BiPoly.of(c) for c in s_coeffs(n_max).coeffs])))


def g_via_bernoulli(n_max: int) -> Series:
    """Canonical route: the Bernoulli-polynomial recurrence with p symbolic."""
    with _lock:
        return _grown(_g, n_max, lambda k: BiPoly.of(bernoulli_poly(k)), BiPoly.var_p())


def _composition_table(n_max: int) -> list[dict[int, Poly]]:
    """bucket[n] for n = 0..n_max: for each part count r, the sum of
    B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r) over ordered compositions
    k_1+...+k_r = n, by bucket[n][r] = sum_{k=1}^{n} (B_k(t)/k) bucket[n-k][r-1]."""
    if n_max < 0:
        raise ValueError("composition order must be >= 0")
    weight = [Poly.zero()] + [bernoulli_poly(k) * Fraction(1, k) for k in range(1, n_max + 1)]
    table: list[dict[int, Poly]] = [{0: Poly.one()}]
    for n in range(1, n_max + 1):
        row: dict[int, Poly] = {}
        for k in range(1, n + 1):
            for r, poly in table[n - k].items():
                row[r + 1] = row.get(r + 1, Poly.zero()) + weight[k] * poly
        table.append(row)
    return table


def composition_buckets(n: int) -> dict[int, Poly]:
    """For each part count r, sum B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r) over
    ordered compositions k_1+...+k_r = n."""
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


def g_series_at_p(p0: Fraction, n_max: int) -> Series:
    """G_0..G_N at a fixed rational power p0, as polynomials in t."""
    return _grown([Poly.one()], n_max, bernoulli_poly, Fraction(p0))


def g_series_at_t(t0: Fraction, n_max: int) -> Series:
    """G_0..G_N at a fixed rational shift t0, as polynomials in p."""
    return _grown(
        [Poly.one("p")], n_max, lambda k: bernoulli_poly(k).eval(t0), Poly.variable("p")
    )


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
    if p is None:
        return g_via_bernoulli(n_max) if t is None else g_series_at_t(t, n_max)
    series = g_series_at_p(p, n_max)
    return series if t is None else Series(tuple(c.eval(t) for c in series.coeffs))


def binomial_in_p(n: int, k: int) -> Poly:
    """C(p-n+k, k) = (p-n+k)(p-n+k-1)...(p-n+1) / k! as a polynomial in p."""
    acc = Poly.one("p")
    for j in range(1, k + 1):
        acc = acc * Poly((Fraction(j - n), Fraction(1)), "p")
    return acc * Fraction(1, factorial(k))


def shift_compose(g: Series, n: int, s, t) -> BiPoly:
    """The shift composition sum_{k=0}^{n} C(p-n+k, k) G_{n-k}(p, s) t^k at
    rational s and t, a polynomial in p. Equals G_n(p, s+t) when the shift
    identity holds.
    """
    if n > g.order:
        raise ValueError(f"series only reaches order {g.order}, need {n}")
    s, t = Fraction(s), Fraction(t)
    acc = BiPoly.zero()
    for k in range(n + 1):
        base = BiPoly.of(binomial_in_p(n, k)) * g[n - k].eval_t(s)
        acc = acc + base * (t**k)
    return acc


def specialize(g: Series, p0: Fraction, t0: Fraction) -> Series:
    """G_n(p0, t0) for every G_n of a bivariate series, as exact rationals."""
    p0, t0 = Fraction(p0), Fraction(t0)
    return Series(tuple(c.eval(p0, t0) for c in g.coeffs))
