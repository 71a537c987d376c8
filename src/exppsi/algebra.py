"""Exact rational polynomial arithmetic in one and two variables.

Every operation in this module is exact. Two representations are used:

* ``Poly`` is a dense univariate polynomial in the variable named by its
  ``var``: ``"t"`` (the default) or ``"p"``. Bernoulli polynomials, series
  with p or t fixed, and BiPolys read at a fixed p or t live here.
  Operations keep the variable, and combining a Poly in ``t`` with one in
  ``p`` raises ``ValueError``.
* ``BiPoly`` is a bivariate polynomial in the pair ``(p, t)``. The
  coefficients G_n have about as many nonzero terms as their triangle of
  exponents holds, so it is dense too: one row of ``t``-coefficients per
  power of ``p``.

Both store rows of integers over one common denominator, and one private
base class, ``_Rows``, holds that form and the ring arithmetic. A BiPoly
has one row per power of p, the coefficient of ``p^i t^j`` being
``rows[i][j] / den``; a Poly is the case of one row, ``nums``, the
coefficient of ``var^k`` being ``nums[k] / den``. The stored form is
canonical: ``den > 0``, the numerators and ``den`` share no factor, and no
row or list of rows ends in a zero, so ``==`` compares the stored form. The
zero polynomial has no rows, is over 1, and reports degree ``None`` rather
than a sentinel integer.

Every sum and product is one kernel, ``_dot``, the sum of products
``sum_i xs[i] ys[i]`` over values of one kind (a Poly and a BiPoly raise
``TypeError``) or rationals: ``a + b`` is the dot of ``(1, 1)`` with
``(a, b)``, ``a * b`` a dot of one pair. It convolves every pair into one
array of integer rows over the lcm of the products' denominators, a
rational being a one-entry row, and pays one gcd at the end. A rational
point ``a/b`` is substituted homogeneously, ``sum_e n_e a^e b^(top-e) /
(den b^top)``, so an evaluation is one integer pass and one ``Fraction``.

``Fraction`` stays the only number type users see: ``Poly.coeffs`` is a
tuple of Fractions and ``BiPoly.terms`` a read-only map from exponent pairs
``(i, j)`` to nonzero Fractions, both built on each read and never stored.
Constructors and evaluation points take ints and Fractions only
(``_rational``), so no float enters a symbolic value.

Values are immutable and operations are pure. Every printed coefficient,
in text, LaTeX, CSV or JSON, comes from one walk over the rows, ``_terms``,
which yields each nonzero term as integers in lowest terms and builds no
Fraction. ``BiPoly.of`` places a Poly under its own variable, and a value
in one variable is always a Poly: ``eval_t`` and ``coeff_of_t_power`` give
one in p, ``eval_p`` one in t.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import index, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Poly",
    "BiPoly",
    "parse_rational",
    "json_canonical",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or integer text into a Fraction. Floats and zero
    denominators are rejected."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal (expected 'a/b' or integer): {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def json_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace. Byte-deterministic."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _trimmed(xs: Sequence[int]) -> tuple[int, ...]:
    """``xs`` as a tuple without its trailing zeros."""
    n = len(xs)
    while n and not xs[n - 1]:
        n -= 1
    return tuple(xs[:n])


def _lowest(rows: Iterable[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``rows`` over ``den`` in canonical form: each row without trailing
    zeros, no trailing empty row, and in lowest terms by one gcd. The zero
    value is ((), 1)."""
    rows = [_trimmed(row) for row in rows]
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return (), 1
    g = gcd(den, *chain.from_iterable(rows))
    if g != 1:
        return tuple(tuple(x // g for x in row) for row in rows), den // g
    return tuple(rows), den


def _rational(x) -> Fraction:
    """``x`` as a Fraction. Only an int or a Fraction is taken, so no float
    enters an exact value; anything else raises ``TypeError``."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact values are int or Fraction, not {x!r}")
    return Fraction(x)


def _over_one_den(cs: Iterable) -> tuple[list[int], int]:
    """The coefficients ``cs`` as numerators over the lcm of their
    denominators, and that lcm. Each must be an int or a Fraction."""
    cs = [_rational(c) for c in cs]
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _dot(xs: Sequence, ys: Sequence):
    """sum_i xs[i] ys[i], for nonempty sequences of one length. The ys are
    rationals, or Polys or BiPolys of one kind, and each x a rational or, as
    the caller has checked, a value of that kind. Over the rationals alone
    it is one integer sum and one Fraction."""
    kind = ys[0]
    if not isinstance(kind, _Rows):
        nums = [x.numerator * y.numerator for x, y in zip(xs, ys)]
        dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
        den = lcm(*dens)
        return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)
    pairs = []
    for x, y in zip(xs, ys):
        if isinstance(x, _Rows):
            xr, xd = x.rows, x.den
        else:
            xr, xd = ((x.numerator,),) if x else (), x.denominator
        if xr and y.rows:
            pairs.append((xr, y.rows, xd * y.den))
    den = lcm(*(d for _, _, d in pairs))
    height = max((len(xr) + len(yr) - 1 for xr, yr, _ in pairs), default=0)
    width = max((max(map(len, xr)) + max(map(len, yr)) - 1 for xr, yr, _ in pairs), default=0)
    out = [[0] * width for _ in range(height)]
    for xr, yr, d in pairs:
        scale = den // d
        for i, xs_i in enumerate(xr):
            for j, x in enumerate(xs_i):
                if x:
                    x *= scale
                    for row, ys_k in zip(out[i:], yr):
                        for m, y in enumerate(ys_k, j):
                            row[m] += x * y
    return kind._new(out, den, kind._var)


def _weights(x, top: int) -> tuple[list[int], int]:
    """For x = a/b, the integers a^e b^(top-e) for e = 0..top, and b^top:
    a polynomial's numerators dotted with them give its value at x times
    b^top."""
    x = _rational(x)
    a, b = x.numerator, x.denominator
    weight = [1] * (top + 1)
    for e in range(1, top + 1):
        weight[e] = weight[e - 1] * a
    b_pow = 1
    for e in range(top - 1, -1, -1):
        b_pow *= b
        weight[e] *= b_pow
    return weight, b_pow


def _values_at(polys: Sequence["Poly"], x) -> list[Fraction]:
    """Each of ``polys`` at the rational x, from one table of ``_weights``:
    for a Poly of degree d below the highest degree D, the weights
    a^e b^(D-e) are b^(D-d) a^e b^(d-e), so its numerators dotted with them
    give its value times den b^D all the same."""
    weight, scale = _weights(x, max([0, *(len(q.nums) - 1 for q in polys)]))
    return [Fraction(sum(map(mul, q.nums, weight)), q.den * scale) for q in polys]


def _ratio(n: int, d: int) -> str:
    return f"{n}/{d}" if d != 1 else str(n)


def _terms(value) -> Iterator[tuple[int, int, int, int]]:
    """The nonzero terms of a rational, a Poly or a BiPoly in (p, t), as
    (num, den, i, j) for num/den p^i t^j in lowest terms, read off the rows
    with one gcd each: a Poly by falling powers, placed as ``BiPoly.of``
    places it, a BiPoly by ascending (i, j). Zero has no terms."""
    if isinstance(value, BiPoly):
        cells = ((i, j, n) for i, row in enumerate(value.rows) for j, n in enumerate(row))
    else:
        value = value if isinstance(value, Poly) else Poly((value,))
        in_p = value.var == "p"
        cells = ((k, 0, n) if in_p else (0, k, n) for k, n in reversed([*enumerate(value.nums)]))
    for i, j, n in cells:
        if n:
            g = gcd(n, value.den)
            yield n // g, value.den // g, i, j


def _render(value, number=_ratio, sep: str = "*", power: str = "{}^{}") -> str:
    """A rational, a Poly or a BiPoly as a signed sum such as '-1/2*t^2 + t
    - 3', the empty sum being '0'. ``number(n, d)`` renders a coefficient's
    magnitude n/d, ``power`` a variable raised above the first power, and
    ``sep`` joins the factors of a term."""
    out: list[str] = []
    for n, d, i, j in _terms(value):
        mono = sep.join(v if e == 1 else power.format(v, e) for v, e in (("p", i), ("t", j)) if e)
        if not mono:
            piece = number(abs(n), d)
        elif abs(n) == d == 1:
            piece = mono
        else:
            piece = f"{number(abs(n), d)}{sep}{mono}"
        out.append(f"{'-' if n < 0 else '+'} {piece}" if out else f"-{piece}" if n < 0 else piece)
    return " ".join(out) or "0"


class _Rows:
    """Integer rows over one denominator, and the ring arithmetic that does
    not depend on how many rows there are: ``rows[i][j] / den`` is the
    coefficient of the ``j``-th power in row ``i``. ``_var`` names the kind
    of value: a Poly's variable, or None for a BiPoly. Values of one kind
    combine; a Poly and a BiPoly do not (``TypeError``), nor Polys in p and
    in t (``ValueError``). No Fraction is stored: ``coeffs`` and ``terms``
    build theirs on each read."""

    __slots__ = ("rows", "den", "_var")

    @classmethod
    def _new(cls, rows: Iterable[Sequence[int]], den: int, var: str | None):
        """``rows / den`` of kind ``var``, brought to canonical form."""
        out = object.__new__(cls)
        out.rows, out.den = _lowest(rows, den)
        out._var = var
        return out

    def _mismatch(self, other: "_Rows"):
        """NotImplemented against a value of another class, so the operator
        raises ``TypeError``; ``ValueError`` for Polys in p and in t."""
        if type(other) is not type(self):
            return NotImplemented
        raise ValueError(f"cannot combine a polynomial in {self._var} with one in {other._var}")

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        if isinstance(other, _Rows) and other._var == self._var:
            return self.den == other.den and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._var, self.den, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"

    def __reduce__(self):
        """Pickle and copy through ``_new``: ``BiPoly()`` needs its terms."""
        return self._new, (self.rows, self.den, self._var)

    def to_text(self) -> str:
        return _render(self)

    def _plus(self, other, sign: int):
        if not isinstance(other, _Rows):
            return NotImplemented
        if other._var != self._var:
            return self._mismatch(other)
        return _dot((1, sign), (self, other))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._new([[-n for n in row] for row in self.rows], self.den, self._var)

    def __mul__(self, other):
        if isinstance(other, _Rows):
            if other._var != self._var:
                return self._mismatch(other)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _dot((other,), (self,))

    __rmul__ = __mul__


class Poly(_Rows):
    """Dense univariate polynomial in the variable ``var`` ("t" or "p"):
    one row, the integers ``nums`` by ascending power, over the denominator
    ``den``. ``Poly(coeffs, var)`` takes the coefficients as ints or
    Fractions."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable = (), var: str = "t") -> "Poly":
        if var not in ("p", "t"):
            raise ValueError(f"a polynomial is in p or in t, not {var!r}")
        nums, den = _over_one_den(coeffs)
        return cls._new([nums], den, var)

    @classmethod
    def zero(cls, var: str = "t") -> "Poly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "t") -> "Poly":
        return cls((Fraction(1),), var)

    @classmethod
    def variable(cls, var: str = "t") -> "Poly":
        return cls((Fraction(0), Fraction(1)), var)

    @property
    def var(self) -> str:
        return self._var

    @property
    def nums(self) -> tuple[int, ...]:
        """The numerators by ascending power, over ``den``."""
        return self.rows[0] if self.rows else ()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients by ascending power, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int | None:
        return len(self.rows[0]) - 1 if self.rows else None

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums[k] if 0 <= k < len(self.nums) else 0, self.den)

    def eval(self, x) -> Fraction:
        return _values_at((self,), x)[0]


class BiPoly(_Rows):
    """Dense bivariate polynomial in (p, t): ``rows[i][j] / den`` is the
    coefficient of p^i t^j. ``BiPoly(mapping)`` takes a map from exponent
    pairs to ints or Fractions; ``terms`` gives the nonzero ones back."""

    __slots__ = ()

    def __new__(cls, terms: Mapping[tuple[int, int], Fraction]) -> "BiPoly":
        keys = [(index(i), index(j)) for i, j in terms]
        width: dict[int, int] = {}
        for i, j in keys:
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be >= 0, got p^{i} t^{j}")
            width[i] = max(width.get(i, 0), j + 1)
        nums, den = _over_one_den(terms.values())
        rows = [[0] * width.get(i, 0) for i in range(max(width, default=-1) + 1)]
        for (i, j), n in zip(keys, nums):
            rows[i][j] = n
        return cls._new(rows, den, None)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def constant(cls, q) -> "BiPoly":
        return cls({(0, 0): q})

    @classmethod
    def var_p(cls) -> "BiPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_t(cls) -> "BiPoly":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def of(cls, value: "Poly | BiPoly") -> "BiPoly":
        """A Poly with each power under its own variable; a BiPoly as it is."""
        if isinstance(value, BiPoly):
            return value
        if value.var == "p":
            return cls._new([(n,) for n in value.nums], value.den, None)
        return cls._new(value.rows, value.den, None)

    @property
    def terms(self) -> Mapping[tuple[int, int], Fraction]:
        """The nonzero coefficients as a read-only map (p_pow, t_pow) -> Fraction,
        in sorted order."""
        den = self.den
        return MappingProxyType({
            (i, j): Fraction(n, den)
            for i, row in enumerate(self.rows)
            for j, n in enumerate(row)
            if n
        })

    def coeff(self, p_pow: int, t_pow: int) -> Fraction:
        row = self.rows[p_pow] if 0 <= p_pow < len(self.rows) else ()
        return Fraction(row[t_pow] if 0 <= t_pow < len(row) else 0, self.den)

    def coeff_of_t_power(self, j: int) -> Poly:
        """The coefficient of t^j, as a polynomial in p: zero for j < 0."""
        return Poly._new([[row[j] if 0 <= j < len(row) else 0 for row in self.rows]], self.den, "p")

    def eval_t(self, t0) -> Poly:
        """Substitute t := t0 exactly: a Poly in p."""
        weight, scale = _weights(t0, max(map(len, self.rows), default=1) - 1)
        return Poly._new([[sum(map(mul, row, weight)) for row in self.rows]], self.den * scale, "p")

    def eval_p(self, p0) -> Poly:
        """Substitute p := p0 exactly: a Poly in t."""
        weight, scale = _weights(p0, max(len(self.rows) - 1, 0))
        row = [sum(map(mul, col, weight)) for col in zip_longest(*self.rows, fillvalue=0)]
        return Poly._new([row], self.den * scale, "t")

    def eval(self, p0, t0) -> Fraction:
        return self.eval_t(t0).eval(p0)

    def derivative_t(self) -> "BiPoly":
        rows = [[j * n for j, n in enumerate(row[1:], 1)] for row in self.rows]
        return BiPoly._new(rows, self.den, None)

    def to_json_dict(self) -> dict:
        return {
            "var_order": ["p", "t"],
            "terms": [{"p": i, "t": j, "num": str(n), "den": str(d)} for n, d, i, j in _terms(self)],
        }
