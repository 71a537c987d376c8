"""Exact rational polynomial arithmetic in one and two variables.

All coefficients are ``fractions.Fraction``, so every operation in this
module is exact. Two representations are used, matching how the series
coefficients actually behave:

* ``Poly`` is a dense univariate polynomial, a tuple of coefficients by
  ascending power, in the variable named by its ``var``: ``"t"`` (the
  default) or ``"p"``. Bernoulli polynomials and series specialized at a
  numeric parameter live here. Operations keep the variable, and combining
  a Poly in ``t`` with one in ``p`` raises ``ValueError``.
* ``BiPoly`` is a sparse bivariate polynomial in the pair ``(p, t)``,
  stored as a map from exponent pairs to nonzero coefficients. The
  symbolic expansion coefficients are sparse once their degrees collapse,
  so a map beats a dense grid.

Values are immutable and operations are pure. The zero polynomial is the
empty tuple / empty map and reports degree ``None`` rather than a sentinel
integer.

Values are stored as a ``Fraction`` per term, but products and evaluations
do their inner loops in integers: each operand's numerators are scaled to
its common denominator (``_over_lcm``), the integer products are summed,
and one ``Fraction`` is built per output term. A rational point ``a/b`` is
substituted homogeneously, ``c_e x^e = c_e a^e b^(top-e) / b^top``, so no
``Fraction`` is ever raised to a power (``_substitute``).

Every printed form of a value, as text here and as LaTeX, CSV or JSON in
the command line, is built from one term iterator, ``_terms``, which names
each power by the variable the value carries. ``BiPoly.of`` places a Poly
under its own variable, and ``BiPoly.as_poly(var)`` turns a BiPoly in one
variable back into a Poly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _join_terms(terms: Iterable[tuple[Fraction, str]], number=str, sep: str = "*") -> str:
    """A signed sum such as '-1/2*t^2 + t - 3' from (coefficient, monomial)
    pairs. ``number`` renders a coefficient's magnitude and ``sep`` joins it
    to a nonempty monomial. The empty sum is '0'."""
    out: list[str] = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            piece = number(mag)
        elif mag == 1:
            piece = mono
        else:
            piece = f"{number(mag)}{sep}{mono}"
        if out:
            out.append(f"- {piece}" if c < 0 else f"+ {piece}")
        else:
            out.append(f"-{piece}" if c < 0 else piece)
    return " ".join(out) if out else "0"


def _over_lcm(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The numerators of ``values`` over their common denominator L, and L."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _substitute(terms: Sequence[tuple[int, object, Fraction]], x) -> dict:
    """Substitute the rational x for one variable, exactly.

    ``terms`` holds (e, rest, c) for each term c * var^e * rest; the result
    maps each ``rest`` to its nonzero coefficient sum_e c * x^e. With
    x = a/b and the coefficients over their common denominator L, each term
    adds the integer n_e * a^e * b^(top-e), and each sum is divided once by
    L * b^top, where top is the highest e.
    """
    x = Fraction(x)
    nums, den = _over_lcm(c for _, _, c in terms)
    top = max((e for e, _, _ in terms), default=0)
    a, b = x.numerator, x.denominator
    weight = [1] * (top + 1)
    for e in range(1, top + 1):
        weight[e] = weight[e - 1] * a
    b_pow = 1
    for e in range(top - 1, -1, -1):
        b_pow *= b
        weight[e] *= b_pow
    sums: dict = {}
    for (e, rest, _), n in zip(terms, nums):
        sums[rest] = sums.get(rest, 0) + n * weight[e]
    den *= b_pow
    return {rest: Fraction(n, den) for rest, n in sums.items() if n}


def _terms(value) -> Iterator[tuple[Fraction, tuple[tuple[str, int], ...]]]:
    """The terms of a rational, a Poly or a BiPoly in (p, t), in print
    order, as (coefficient, ((variable, power), ...)) with zero powers left
    out. A Poly goes by falling powers in its own variable, a BiPoly by
    sorted (p, t) exponents; zero terms are skipped, but a rational is
    always one term."""
    if isinstance(value, BiPoly):
        for i, j, c in value.sorted_terms():
            yield c, tuple((name, e) for name, e in (("p", i), ("t", j)) if e)
    elif isinstance(value, Poly):
        for k in range(len(value.coeffs) - 1, -1, -1):
            if value.coeffs[k]:
                yield value.coeffs[k], ((value.var, k),) if k else ()
    else:
        yield Fraction(value), ()


def _render(value, number=str, sep: str = "*", power: str = "{}^{}") -> str:
    """A rational, a Poly or a BiPoly as a signed sum of terms. ``number``
    renders a coefficient's magnitude, ``power`` a variable raised above
    the first power, and ``sep`` joins the factors of a term."""
    return _join_terms(
        (
            (c, sep.join(name if e == 1 else power.format(name, e) for name, e in powers))
            for c, powers in _terms(value)
        ),
        number,
        sep,
    )


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending
    powers, in the variable ``var``: "t" or "p"."""

    coeffs: tuple[Fraction, ...] = ()
    var: str = "t"

    def __post_init__(self) -> None:
        if self.var not in ("p", "t"):
            raise ValueError(f"a polynomial is in p or in t, not {self.var!r}")
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

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
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _var_with(self, other: "Poly") -> str:
        """The variable shared with ``other``; polynomials in p and t do not mix."""
        if other.var != self.var:
            raise ValueError(f"cannot combine a polynomial in {self.var} with one in {other.var}")
        return self.var

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[k] + other[k] for k in range(n)), self._var_with(other))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[k] - other[k] for k in range(n)), self._var_with(other))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __mul__(self, other):
        if isinstance(other, Poly):
            var = self._var_with(other)
            if self.is_zero or other.is_zero:
                return Poly.zero(var)
            xs, dx = _over_lcm(self.coeffs)
            ys, dy = _over_lcm(other.coeffs)
            out = [0] * (len(xs) + len(ys) - 1)
            for i, x in enumerate(xs):
                if x:
                    for j, y in enumerate(ys):
                        out[i + j] += x * y
            den = dx * dy
            return Poly(tuple(Fraction(n, den) for n in out), var)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly(tuple(c * q for c in self.coeffs), self.var)
        return NotImplemented

    __rmul__ = __mul__

    def eval(self, x) -> Fraction:
        return _substitute([(k, 0, c) for k, c in enumerate(self.coeffs)], x).get(0, Fraction(0))

    def to_text(self) -> str:
        return _render(self)


class BiPoly:
    """Sparse bivariate polynomial in (p, t): map (p_pow, t_pow) -> Fraction."""

    __slots__ = ("terms",)
    __hash__ = None  # mutable mapping inside; never hash

    def __init__(self, terms: Mapping[tuple[int, int], Fraction]):
        self.terms = {}
        for (i, j), c in terms.items():
            q = Fraction(c)
            if q != 0:
                self.terms[(int(i), int(j))] = q

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], Fraction]) -> "BiPoly":
        """A BiPoly that takes ``terms`` as they are: int exponent pairs
        mapped to nonzero Fractions, as the ring operations produce them."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def constant(cls, q) -> "BiPoly":
        return cls({(0, 0): Fraction(q)})

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
        return cls({(k, 0) if value.var == "p" else (0, k): c for k, c in enumerate(value.coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPoly._of({k: c for k, c in out.items() if c})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return BiPoly._of({k: c for k, c in out.items() if c})

    def __neg__(self) -> "BiPoly":
        return BiPoly._of({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            xs, dx = _over_lcm(self.terms.values())
            ys, dy = _over_lcm(other.terms.values())
            right = list(zip(other.terms, ys))
            out: dict[tuple[int, int], int] = {}
            for (i1, j1), x in zip(self.terms, xs):
                for (i2, j2), y in right:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + x * y
            den = dx * dy
            return BiPoly._of({k: Fraction(n, den) for k, n in out.items() if n})
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return BiPoly({k: c * q for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def coeff(self, p_pow: int, t_pow: int) -> Fraction:
        return self.terms.get((p_pow, t_pow), Fraction(0))

    def coeff_of_t_power(self, j: int) -> Poly:
        """The coefficient of t^j, as a polynomial in p."""
        top = max((i for (i, _) in self.terms), default=-1)
        return Poly(tuple(self.terms.get((i, j), Fraction(0)) for i in range(top + 1)), "p")

    def eval_t(self, t0) -> "BiPoly":
        """Substitute t := t0 exactly; the result has t-degree <= 0."""
        return BiPoly._of(_substitute([(j, (i, 0), c) for (i, j), c in self.terms.items()], t0))

    def eval_p(self, p0) -> "BiPoly":
        """Substitute p := p0 exactly; the result has p-degree <= 0."""
        return BiPoly._of(_substitute([(i, (0, j), c) for (i, j), c in self.terms.items()], p0))

    def eval(self, p0, t0) -> Fraction:
        return self.eval_t(t0).eval_p(p0).coeff(0, 0)

    def as_poly(self, var: str) -> Poly:
        """This polynomial as a Poly in ``var``, which must be its only variable."""
        axis = "pt".index(var)
        if any(key[1 - axis] for key in self.terms):
            raise ValueError(f"polynomial still depends on {'pt'[1 - axis]}")
        coeffs = [Fraction(0)] * (max((key[axis] for key in self.terms), default=-1) + 1)
        for key, c in self.terms.items():
            coeffs[key[axis]] = c
        return Poly(tuple(coeffs), var)

    def derivative_t(self) -> "BiPoly":
        return BiPoly({(i, j - 1): j * c for (i, j), c in self.terms.items() if j >= 1})

    def sorted_terms(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, self.terms[(i, j)]) for (i, j) in sorted(self.terms)]

    def to_json_dict(self) -> dict:
        return {
            "var_order": ["p", "t"],
            "terms": [
                {"p": i, "t": j, "num": str(c.numerator), "den": str(c.denominator)}
                for i, j, c in self.sorted_terms()
            ],
        }

    def to_text(self) -> str:
        return _render(self)

