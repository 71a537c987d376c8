"""Exact verification of the structural theorems and the reference tables.

Each check recomputes the expansion coefficients with exact arithmetic and
compares both sides of an identity as polynomials. A failed comparison
produces a ``CheckReport`` carrying the nonzero residual as a witness; it
never raises, so a run always yields a full report.

The bundled reference tables (``reference_tables.json``) hold the values a
reader would look up, each with a status flag. Entries whose printed value
disagrees with the canonical recomputation are shipped as ``erratum`` and
surface in :func:`errata_report` with both values; they do not fail the
build. The module returns reports and entries as data; the command line
renders them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

from .algebra import BiPoly, Poly, _render
from .bernoulli import bernoulli_number
from .expansions import (
    Series,
    coefficients,
    composition_buckets,
    g_series_at_p,
    g_via_bernoulli,
    g_via_compositions,
    g_via_power_transform,
    shift_compose,
)

__all__ = [
    "CheckReport",
    "ErrataEntry",
    "check_even_p_vanishing",
    "check_degree_collapse",
    "check_reflection",
    "check_half_argument",
    "check_shift_identity",
    "check_derivative_relation",
    "check_coefficient_table",
    "check_route_agreement",
    "bernoulli_identity",
    "bernoulli_identity_terms",
    "reference_entries",
    "reference_statements",
    "compare_reference_tables",
    "errata_report",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact check. ``witness`` is the residual on failure
    and None on a pass, so it alone decides ``ok`` and ``status``."""

    check_name: str
    parameters: dict
    witness: Optional[BiPoly] = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    @classmethod
    def passed(cls, name: str, **params) -> "CheckReport":
        return cls(name, params)

    @classmethod
    def failed(cls, name: str, witness: Poly | BiPoly, **params) -> "CheckReport":
        return cls(name, params, BiPoly.of(witness))

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": {k: v for k, v in sorted(self.parameters.items())},
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


@dataclass(frozen=True)
class ErrataEntry:
    location: str
    printed: str
    computed: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.printed == self.computed:
            raise ValueError("an erratum needs printed and computed values to differ")

    def to_json_dict(self) -> dict:
        return {
            "location": self.location,
            "printed": self.printed,
            "computed": self.computed,
            "note": self.note,
        }


def check_even_p_vanishing(p: int) -> CheckReport:
    """G_{p+1}(p, t) must vanish identically for even p >= 2."""
    if p < 2 or p % 2 != 0:
        raise ValueError(f"the vanishing theorem covers even p >= 2, got {p}")
    g = g_series_at_p(Fraction(p), p + 1)
    residual = g[p + 1]
    if residual.is_zero:
        return CheckReport.passed("even-p-vanishing", p=p)
    return CheckReport.failed("even-p-vanishing", residual, p=p)


def check_degree_collapse(p: int, n_max: int) -> CheckReport:
    """Degrees in t: exactly n for n <= p, at most n-p-1 past p, and for
    even p exactly k at order p+2+k."""
    if p < 1:
        raise ValueError(f"need a positive integer power, got {p}")
    if n_max < p + 2:
        raise ValueError("order window must reach p+2 to see the collapse")
    g = g_series_at_p(Fraction(p), n_max)
    for n in range(n_max + 1):
        d = g[n].degree
        if n <= p:
            if d != n:
                return CheckReport.failed("degree-collapse", g[n], p=p, n=n, expected=n)
        else:
            bound = n - p - 1
            if d is not None and d > bound:
                return CheckReport.failed("degree-collapse", g[n], p=p, n=n, bound=bound)
            if p % 2 == 0 and n >= p + 2 and d != n - p - 2:
                return CheckReport.failed("degree-collapse", g[n], p=p, n=n, exact=n - p - 2)
    return CheckReport.passed("degree-collapse", p=p, n_max=n_max)


def check_reflection(n_max: int, g: Optional[Series] = None) -> CheckReport:
    """G_n(p, 1) == (-1)^n G_n(p, 0) as exact polynomials in p."""
    g = g or g_via_bernoulli(n_max)
    for n in range(n_max + 1):
        residual = g[n].eval_t(1) - g[n].eval_t(0) * Fraction((-1) ** n)
        if not residual.is_zero:
            return CheckReport.failed("reflection", residual, n=n)
    return CheckReport.passed("reflection", n_max=n_max)


def check_half_argument(n_max: int, g: Optional[Series] = None) -> CheckReport:
    """At t=1/2: odd orders vanish, order 2m has p-degree m, and the
    even orders satisfy the corrected recurrence
    G_{2m} = (p/2m) sum_k (1 - 2^(1-2k)) B_{2k} G_{2m-2k}."""
    g = g or g_via_bernoulli(n_max)
    half = [g[n].eval_t(Fraction(1, 2)).as_poly("p") for n in range(n_max + 1)]
    for n in range(n_max + 1):
        if n % 2 == 1:
            if not half[n].is_zero:
                return CheckReport.failed("half-argument", half[n], n=n)
        elif half[n].degree != n // 2:
            return CheckReport.failed("half-argument", half[n], n=n, expected_degree=n // 2)
    p_var = Poly.variable("p")
    rebuilt = [Poly.one("p")]
    for m in range(1, n_max // 2 + 1):
        acc = Poly.zero("p")
        for k in range(1, m + 1):
            coef = (1 - Fraction(2) ** (1 - 2 * k)) * bernoulli_number(2 * k)
            acc = acc + coef * rebuilt[m - k]
        rebuilt.append(p_var * acc * Fraction(1, 2 * m))
        if rebuilt[m] != half[2 * m]:
            return CheckReport.failed(
                "half-argument", rebuilt[m] - half[2 * m], n=2 * m, part="recurrence"
            )
    return CheckReport.passed("half-argument", n_max=n_max)


# the shift check's random rational points (s, t): how many, and their seed
SHIFT_TRIALS = 20
SHIFT_SEED = 20260815


def check_shift_identity(n_max: int, g: Optional[Series] = None) -> CheckReport:
    """G_n(p, s+t) == sum_k C(p-n+k, k) G_{n-k}(p, s) t^k for random rational (s, t)."""
    import random  # only this check uses it, so importing the package does not

    g = Series((g or g_via_bernoulli(n_max)).coeffs[: n_max + 1])
    rng = random.Random(SHIFT_SEED)
    for trial in range(SHIFT_TRIALS):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        shifted = shift_compose(g, s, t)
        for n in range(n_max + 1):
            residual = shifted[n] - g[n].eval_t(s + t)
            if not residual.is_zero:
                return CheckReport.failed(
                    "shift-identity", residual, n=n, s=str(s), t=str(t), trial=trial
                )
    return CheckReport.passed("shift-identity", n_max=n_max, trials=SHIFT_TRIALS, seed=SHIFT_SEED)


def check_derivative_relation(n_max: int, g: Optional[Series] = None) -> CheckReport:
    """dG_n/dt == (p + 1 - n) G_{n-1} exactly."""
    g = g or g_via_bernoulli(n_max)
    p = BiPoly.var_p()
    for n in range(1, n_max + 1):
        residual = g[n].derivative_t() - (p + BiPoly.constant(1 - n)) * g[n - 1]
        if not residual.is_zero:
            return CheckReport.failed("derivative-relation", residual, n=n)
    return CheckReport.passed("derivative-relation", n_max=n_max)


def check_coefficient_table(n_max: int, g: Optional[Series] = None) -> CheckReport:
    """Coefficient of t^k in G_n equals C(p-n+k, k) times the constant
    coefficient of G_{n-k}: the shift rule at s = 0 with t left free. Every
    power of t present on either side is compared, so a term above t^n
    fails too."""
    g = g or g_via_bernoulli(n_max)
    shifted = shift_compose(g, 0, BiPoly.var_t())
    for n in range(n_max + 1):
        top = max((j for side in (g[n], shifted[n]) for (_, j) in side.terms), default=-1)
        for k in range(top + 1):
            lhs = g[n].coeff_of_t_power(k)
            rhs = shifted[n].coeff_of_t_power(k)
            if lhs != rhs:
                return CheckReport.failed("coefficient-table", lhs - rhs, n=n, k=k)
    return CheckReport.passed("coefficient-table", n_max=n_max)


def check_route_agreement(n_max: int) -> CheckReport:
    """All three construction routes must agree term for term."""
    a = g_via_power_transform(n_max)
    b = g_via_bernoulli(n_max)
    c = g_via_compositions(n_max)
    for n in range(n_max + 1):
        if a[n] != b[n]:
            return CheckReport.failed("route-agreement", a[n] - b[n], n=n, routes="power/bernoulli")
        if c[n] != b[n]:
            return CheckReport.failed("route-agreement", c[n] - b[n], n=n, routes="compositions/bernoulli")
    return CheckReport.passed("route-agreement", n_max=n_max)


def bernoulli_identity(n: int) -> Poly:
    """Left side of the composition identity at even power 2n and length 2n+1:

        sum_{r=1}^{2n+1} ((-2n)^r / r!)
            sum_{k_1+...+k_r = 2n+1} B_{k_1}(t)...B_{k_r}(t)/(k_1...k_r)

    which must be the zero polynomial.
    """
    if n < 1:
        raise ValueError("identity index starts at 1")
    total = Poly.zero()
    for r, poly in composition_buckets(2 * n + 1).items():
        total = total + Fraction((-2 * n) ** r, factorial(r)) * poly
    return total


def _partitions(total: int, max_part: int):
    if total == 0:
        yield ()
        return
    for k in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - k, k):
            yield (k,) + rest


def bernoulli_identity_terms(n: int) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The identity as explicit product terms (coefficient, Bernoulli indices).

    The ordered compositions are grouped into multisets, with the
    arrangement count folded into the coefficient.
    """
    if n < 1:
        raise ValueError("identity index starts at 1")
    m = 2 * n + 1
    out: list[tuple[Fraction, tuple[int, ...]]] = []
    for part in _partitions(m, m):
        r = len(part)
        mult_denom = 1
        for k in set(part):
            mult_denom *= factorial(part.count(k))
        coef = Fraction((-2 * n) ** r, mult_denom)
        for k in part:
            coef /= k
        out.append((coef, tuple(sorted(part))))
    return out


@lru_cache(maxsize=1)
def _reference_doc() -> dict:
    # read beside this file: importlib.resources would import tempfile and random
    path = os.path.join(os.path.dirname(__file__), "reference_tables.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def reference_entries() -> list[dict]:
    return list(_reference_doc()["tables"])


def reference_statements() -> list[dict]:
    return list(_reference_doc()["statements"])


def _computed_value(entry: dict):
    """The S_n or G_n of a table entry (kind "s_..." or "g_...") at the p and
    t the entry fixes."""
    p, t = (None if entry.get(v) is None else Fraction(entry[v]) for v in ("p", "t"))
    return coefficients(entry["kind"][0], entry["n"], p, t)[entry["n"]]


def _printed_value(entry: dict, computed):
    """The printed value, read in the variable of the computed one."""
    printed = entry["printed"]
    if "value" in printed:
        return Fraction(printed["value"])
    if "coeffs" in printed:
        return Poly(tuple(Fraction(c) for c in printed["coeffs"]))
    value = BiPoly({(int(i), int(j)): Fraction(c) for i, j, c in printed["terms"]})
    return value.as_poly(computed.var) if isinstance(computed, Poly) else value


def compare_reference_tables() -> list[dict]:
    """Recompute every bundled table value; report printed vs computed."""
    results = []
    for entry in reference_entries():
        computed = _computed_value(entry)
        printed = _printed_value(entry, computed)
        results.append(
            {
                "entry": entry,
                "match": printed == computed,
                "printed_text": _render(printed),
                "computed_text": _render(computed),
            }
        )
    return results


def errata_report() -> list[ErrataEntry]:
    """Statement-level corrections, then every table value failing the gate."""
    out = [
        ErrataEntry(
            location=st["location"],
            printed=st["printed"],
            computed=st["computed"],
            note=st.get("note", ""),
        )
        for st in reference_statements()
    ]
    for result in compare_reference_tables():
        if result["match"]:
            continue
        entry = result["entry"]
        out.append(
            ErrataEntry(
                location=entry["location"],
                printed=result["printed_text"],
                computed=result["computed_text"],
                note=entry.get("note", ""),
            )
        )
    return out
