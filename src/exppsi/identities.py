"""Exact verification of the structural theorems and the reference tables.

Each check recomputes the expansion coefficients with exact arithmetic and
compares both sides of an identity as polynomials. It takes only what
``verify`` varies, an order or a power, and reads each series through its
public name: ``g_via_bernoulli`` in p and t, ``coefficients`` at a fixed p,
and the other two routes, the product identity reading the composition
route. So a test plants a defect by patching one of the names this module
imports. A failed comparison produces a ``CheckReport`` carrying a witness:
the nonzero residual, or the value whose degree is wrong. That value may
vanish identically, and then its parameters say ``vanishes=True``. A check
raises only on an order or power it cannot take, never on a failed
comparison, so a run always yields a full report.

The G_n are Appell in t, so ``check_appell`` reads three rules off one pass
over R_n = dG_n/dt - (p+1-n) G_{n-1}, G_{-1} = 0, and builds no binomial.
Let T_k = d^k/dt^k / k!. If R_m = 0 for m < n, by induction the shift rule
T_k G_m == C(p-m+k, k) G_{m-k} (0 past k = m) holds below n for every k, and
at n-1 it gives T_k G_n - C(p-n+k, k) G_{n-k} = T_{k-1} R_n / k, also at
t = 0, where it is the coefficient table. So row n holds exactly when R_n = 0,
and both rules first fail at the first nonzero R_n: the shift rule at k = 1
with residual R_n, the table at k = j+1 with residual [t^j] R_n / (j+1), j
the lowest power of t in R_n. By Taylor's theorem in t the shift rule is
G_n(p, s+t) == sum_k C(p-n+k, k) G_{n-k}(p, s) t^k for every s and t.

The bundled reference tables (``reference_tables.json``) hold the values a
reader would look up, each with a status flag. Entries whose printed value
disagrees with the canonical recomputation are shipped as ``erratum`` and
surface in :func:`errata_report` with both values; they do not fail the
build. The module returns reports and entries as data, and
``_suite_checks`` gives the reports of each ``verify`` suite; the command
line renders them.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial
from operator import index
from typing import NamedTuple, Optional

from .algebra import BiPoly, Poly, _dot, _render
from .bernoulli import bernoulli_number
from .expansions import coefficients, g_via_bernoulli, g_via_compositions, g_via_power_transform

__all__ = [
    "CheckReport",
    "ErrataEntry",
    "check_even_p_vanishing",
    "check_degree_collapse",
    "check_reflection",
    "check_half_argument",
    "check_appell",
    "check_route_agreement",
    "bernoulli_identity",
    "bernoulli_identity_terms",
    "compare_reference_tables",
    "errata_report",
]


class CheckReport(NamedTuple):
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
        if witness.is_zero:
            params["vanishes"] = True
        return cls(name, params, BiPoly.of(witness))

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": {k: v for k, v in sorted(self.parameters.items())},
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


class _Erratum(NamedTuple):
    location: str
    printed: str
    computed: str
    note: str = ""


class ErrataEntry(_Erratum):
    """One correction: a value as printed and as computed, which differ."""

    __slots__ = ()

    def __new__(cls, location: str, printed: str, computed: str, note: str = ""):
        if printed == computed:
            raise ValueError("an erratum needs printed and computed values to differ")
        return super().__new__(cls, location, printed, computed, note)

    @classmethod
    def _make(cls, iterable) -> "ErrataEntry":
        # so that _replace, which builds through _make, checks too
        return cls(*iterable)

    def to_json_dict(self) -> dict:
        return self._asdict()


def check_even_p_vanishing(p: int) -> CheckReport:
    """G_{p+1}(p, t) must vanish identically for even p >= 2."""
    p = index(p)
    if p < 2 or p % 2 != 0:
        raise ValueError(f"the vanishing theorem covers even p >= 2, got {p}")
    g = coefficients("g", p + 1, p=p)
    residual = g[p + 1]
    if residual.is_zero:
        return CheckReport.passed("even-p-vanishing", p=p)
    return CheckReport.failed("even-p-vanishing", residual, p=p)


def check_degree_collapse(p: int) -> CheckReport:
    """Degrees in t over the orders n <= n_max = p + 6: exactly n for
    n <= p, at most n-p-1 past p, and for even p exactly k at order p+2+k."""
    p = index(p)
    if p < 1:
        raise ValueError(f"need a positive integer power, got {p}")
    n_max = p + 6
    g = coefficients("g", n_max, p=p)
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


def check_reflection(n_max: int) -> CheckReport:
    """G_n(p, 1) == (-1)^n G_n(p, 0) as exact polynomials in p."""
    for n, coeff in enumerate(g_via_bernoulli(n_max)):
        residual = coeff.eval_t(1) - coeff.eval_t(0) * Fraction((-1) ** n)
        if not residual.is_zero:
            return CheckReport.failed("reflection", residual, n=n)
    return CheckReport.passed("reflection", n_max=n_max)


def check_half_argument(n_max: int) -> CheckReport:
    """At t=1/2: odd orders vanish, order 2m has p-degree m, and the
    even orders satisfy the corrected recurrence
    G_{2m} = (p/2m) sum_k (1 - 2^(1-2k)) B_{2k} G_{2m-2k}."""
    half = [coeff.eval_t(Fraction(1, 2)) for coeff in g_via_bernoulli(n_max)]
    for n, value in enumerate(half):
        if n % 2 == 1:
            if not value.is_zero:
                return CheckReport.failed("half-argument", value, n=n)
        elif value.degree != n // 2:
            return CheckReport.failed("half-argument", value, n=n, expected_degree=n // 2)
    p_var = Poly.variable("p")
    coef = [(1 - Fraction(2) ** (1 - 2 * k)) * bernoulli_number(2 * k) for k in range(n_max // 2 + 1)]
    rebuilt = [Poly.one("p")]
    for m in range(1, n_max // 2 + 1):
        rebuilt.append(p_var * Fraction(1, 2 * m) * _dot(coef[1 : m + 1], rebuilt[::-1]))
        if rebuilt[m] != half[2 * m]:
            return CheckReport.failed(
                "half-argument", rebuilt[m] - half[2 * m], n=2 * m, part="recurrence"
            )
    return CheckReport.passed("half-argument", n_max=n_max)


def check_appell(n_max: int) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The shift-identity, derivative-relation and coefficient-table reports,
    in the order ``verify`` prints them, from one pass over R_n for
    n = 0..n_max. The shift rule T_k G_n == C(p-n+k, k) G_{n-k} and the
    table [t^k] G_n == C(p-n+k, k) G_{n-k}(p, 0), 0 past k = n, hold for
    every k >= 1 exactly when every R_n is 0, and report the first nonzero
    R_n as the module docstring says. The derivative rule
    dG_n/dt == (p + 1 - n) G_{n-1} is R_n == 0 for n >= 1; the pass stops
    at its first failure."""
    shift = table = None
    p, prev = BiPoly.var_p(), BiPoly.zero()
    for n, coeff in enumerate(g_via_bernoulli(n_max)):
        residual = coeff.derivative_t() - (p + BiPoly.constant(1 - n)) * prev
        prev = coeff
        if residual.is_zero:
            continue
        if shift is None:
            shift = CheckReport.failed("shift-identity", residual, n=n, k=1)
            j = min(j for _, j in residual.terms)
            witness = residual.coeff_of_t_power(j) * Fraction(1, j + 1)
            table = CheckReport.failed("coefficient-table", witness, n=n, k=j + 1)
        if n:
            return shift, CheckReport.failed("derivative-relation", residual, n=n), table
    return (
        shift or CheckReport.passed("shift-identity", n_max=n_max),
        CheckReport.passed("derivative-relation", n_max=n_max),
        table or CheckReport.passed("coefficient-table", n_max=n_max),
    )


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

    which must be the zero polynomial. It is -G_{2n+1}(2n, t) read off the
    composition route, ``g_via_compositions``.
    """
    if n < 1:
        raise ValueError("identity index starts at 1")
    return -g_via_compositions(2 * n + 1)[-1].eval_p(2 * n)


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


def _suite_checks(suite: str, n_max: int) -> list[CheckReport]:
    """The reports of ``verify --suite``, in the order it prints them."""
    checks: list[CheckReport] = []
    if suite in ("all", "even-p"):
        for p in range(2, max(n_max, 2) + 1, 2):
            checks.append(check_even_p_vanishing(p))
    if suite in ("all", "degrees"):
        for p in range(1, min(6, n_max) + 1):
            checks.append(check_degree_collapse(p))
    if suite in ("all", "reflection"):
        checks.append(check_reflection(n_max))
    if suite in ("all", "half"):
        checks.append(check_half_argument(n_max))
    if suite in ("all", "identity"):
        for n in range(1, 7):
            residual = bernoulli_identity(n)
            if residual.is_zero:
                checks.append(CheckReport.passed("bernoulli-product-identity", n=n))
            else:
                checks.append(CheckReport.failed("bernoulli-product-identity", residual, n=n))
    if suite in ("all", "routes"):
        checks.append(check_route_agreement(n_max))
    if suite == "all":
        checks += check_appell(n_max)
    return checks


def _reference_doc() -> dict:
    # read beside this file: importlib.resources would import tempfile and
    # random; parsed on each call, so no caller can edit another's entries
    import json

    path = os.path.join(os.path.dirname(__file__), "reference_tables.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _computed_value(entry: dict):
    """The S_n or G_n of a table entry (kind "s_..." or "g_...") at the p and
    t the entry fixes."""
    p, t = (None if entry.get(v) is None else Fraction(entry[v]) for v in ("p", "t"))
    return coefficients(entry["kind"][0], entry["n"], p, t)[entry["n"]]


def _printed_value(entry: dict, computed):
    """The printed value, read in the variable of the computed one. Printed
    terms are (p power, t power, coefficient); a term in a variable the
    computed value does not have raises ``ValueError``."""
    printed = entry["printed"]
    if "value" in printed:
        return Fraction(printed["value"])
    if "coeffs" in printed:
        return Poly(tuple(Fraction(c) for c in printed["coeffs"]))
    terms = {(int(i), int(j)): Fraction(c) for i, j, c in printed["terms"]}
    if not isinstance(computed, Poly):
        return BiPoly(terms)
    var = computed.var
    if any(j if var == "p" else i for i, j in terms):
        raise ValueError(f"a printed term is not in {var}, the variable of the computed value")
    coeffs = {i + j: c for (i, j), c in terms.items()}
    return Poly([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)], var)


def compare_reference_tables() -> list[dict]:
    """Recompute every bundled table value; report printed vs computed."""
    results = []
    for entry in _reference_doc()["tables"]:
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
        for st in _reference_doc()["statements"]
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
