"""Output checks for every workload, against ``reference`` and theory.

Each check takes what one operation printed and returns ``(failed,
errors)``. ``failed`` counts calls that did not do their job; ``errors``
lists outputs that are wrong. Parsers here read each CLI format back into
exact values; none of them imports exppsi.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Optional

import mpmath

import reference
from reference import Poly2

# ---------------------------------------------------------------------------
# polynomial parsers: every format comes back as a list of Poly2, one per n

_SPLIT = re.compile(r" ([+-]) ")


def _signed_terms(body: str):
    body = body.strip()
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    parts = _SPLIT.split(body)
    yield sign, parts[0]
    for op, term in zip(parts[1::2], parts[2::2]):
        yield (1 if op == "+" else -1), term


def _add_term(out: dict, key: tuple, value: Fraction) -> None:
    out[key] = out.get(key, 0) + value
    if not out[key]:
        del out[key]


def _power(factor: str) -> tuple[int, int]:
    var, _, exp = factor.partition("^")
    k = int(exp.strip("{}")) if exp else 1
    if var == "p":
        return k, 0
    if var == "t":
        return 0, k
    raise ValueError(f"unknown variable {var!r}")


def _parse_sum(body: str, sep: str, coeff) -> Poly2:
    out: Poly2 = {}
    for sign, term in _signed_terms(body):
        c, i, j = Fraction(sign), 0, 0
        for factor in term.split(sep):
            if factor[0] in "pt":
                di, dj = _power(factor)
                i, j = i + di, j + dj
            else:
                c *= coeff(factor)
        _add_term(out, (i, j), c)
    return out


def parse_text_poly(body: str) -> Poly2:
    """'-1/2*p + p*t^2' -> {(1, 0): -1/2, (1, 2): 1}."""
    return _parse_sum(body, "*", Fraction)


_FRAC = re.compile(r"^\\frac\{(\d+)\}\{(\d+)\}$")


def _latex_coeff(text: str) -> Fraction:
    m = _FRAC.match(text)
    return Fraction(int(m[1]), int(m[2])) if m else Fraction(int(text))


def parse_latex_poly(body: str) -> Poly2:
    """'-\\frac{1}{2} p + p t^{2}' -> {(1, 0): -1/2, (1, 2): 1}."""
    return _parse_sum(body, " ", _latex_coeff)


def _numbered(pairs, label: str) -> list[Poly2]:
    out = []
    for n, (name, poly) in enumerate(pairs):
        if name != f"{label}_{n}":
            raise ValueError(f"expected {label}_{n}, found {name}")
        out.append(poly)
    return out


def parse_coeffs(text: str, fmt: str, label: str) -> list[Poly2]:
    """Read ``exppsi coeffs`` output in any format."""
    if fmt == "json":
        doc = json.loads(text)
        pairs = []
        for item in doc["coeffs"]:
            if "value" in item:
                poly = {(0, 0): Fraction(item["value"])}
            else:
                if item["poly"]["var_order"] != ["p", "t"]:
                    raise ValueError("unexpected var_order")
                poly = {}
                for term in item["poly"]["terms"]:
                    c = Fraction(int(term["num"]), int(term["den"]))
                    _add_term(poly, (term["p"], term["t"]), c)
            pairs.append((f"{label}_{item['n']}", {k: v for k, v in poly.items() if v}))
        return _numbered(pairs, label)
    if fmt == "text":
        pairs = []
        for line in text.splitlines():
            name, _, body = line.partition(" = ")
            pairs.append((name, parse_text_poly(body)))
        return _numbered(pairs, label)
    if fmt == "latex":
        lines = text.splitlines()
        if lines[0] != "\\begin{align*}" or lines[-1] != "\\end{align*}":
            raise ValueError("not an align* block")
        pairs = []
        for k, line in enumerate(lines[1:-1]):
            m = re.match(r"^(\w)_\{(\d+)\} &= (.*?)(,\\\\)?$", line)
            if m is None or bool(m[4]) != (k < len(lines) - 3):
                raise ValueError(f"bad LaTeX line {line!r}")
            pairs.append((f"{m[1]}_{m[2]}", parse_latex_poly(m[3])))
        return _numbered(pairs, label)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        polys: dict[int, Poly2] = {}
        if rows[0] == ["n", "value"]:
            for n, value in rows[1:]:
                polys[int(n)] = {(0, 0): Fraction(value)}
        elif rows[0] == ["n", "p_pow", "t_pow", "num", "den"]:
            for n, i, j, num, den in rows[1:]:
                _add_term(polys.setdefault(int(n), {}), (int(i), int(j)), Fraction(int(num), int(den)))
        else:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        top = max(polys) if polys else -1
        return _numbered(((f"{label}_{n}", polys.get(n, {})) for n in range(top + 1)), label)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# coeffs


def _swap_vars(poly: Poly2) -> Poly2:
    return {(j, i): c for (i, j), c in poly.items()}


def check_coeffs(
    stdout: str,
    *,
    kind: str,
    n: int,
    fmt: str,
    p: Optional[Fraction],
    t: Optional[Fraction],
    spots: list[tuple[Fraction, Fraction]],
) -> tuple[int, list[str]]:
    """Every S_n/G_n printed must equal the reference series.

    Symbolic outputs are compared at the ``spots`` points, after checking
    that only the free variables appear. G specialized at t is a polynomial
    in p; an output that names its variable t instead (a known fault of the
    LaTeX and JSON renderings) counts as a failed call, and its values are
    still checked with the variable renamed.
    """
    label = "S" if kind == "s" else "G"
    try:
        polys = parse_coeffs(stdout, fmt, label)
    except (ValueError, KeyError, IndexError) as exc:
        return 0, [f"coeffs {kind} {fmt}: unreadable output: {exc}"]
    errors = []
    if len(polys) != n + 1:
        errors.append(f"coeffs {kind}: {len(polys)} coefficients, expected {n + 1}")
    free_p = kind == "g" and p is None
    free_t = t is None
    failed = 0
    if free_p and not free_t and not any(i for poly in polys for (i, _) in poly):
        if any(j for poly in polys for (_, j) in poly):
            failed = 1
            polys = [_swap_vars(poly) for poly in polys]
    points = spots if (free_p or free_t) else [(p, t)]
    for sp, st in points:
        pp = sp if free_p else (p if kind == "g" else Fraction(1))
        tt = st if free_t else t
        want = reference.g_series(n, pp, tt)
        for m, poly in enumerate(polys[: n + 1]):
            if any((i and not free_p) or (j and not free_t) for (i, j) in poly):
                errors.append(f"{label}_{m} has a power of a specialized variable")
            got = reference.evaluate(poly, pp, tt)
            if got != want[m].get((0, 0), 0):
                errors.append(f"{label}_{m}(p={pp}, t={tt}) = {got}, expected {want[m].get((0, 0), 0)}")
    return failed, errors[:5]


# ---------------------------------------------------------------------------
# verify


def expected_families(suite: str, max_n: int) -> dict[str, tuple[str, set[int]]]:
    """Theorem families each suite promises: family -> (parameter, values).
    A report must reach the largest value and hold as many checks; more is
    fine. The shift identity is checked up to order 10 and the product
    identity for n = 1..6 whatever ``max_n`` is."""
    fam: dict[str, tuple[str, set[int]]] = {}
    if suite in ("all", "even-p"):
        fam["even-p-vanishing"] = ("p", set(range(2, max(max_n, 2) + 1, 2)))
    if suite in ("all", "degrees"):
        fam["degree-collapse"] = ("p", set(range(1, min(6, max_n) + 1)))
    if suite in ("all", "reflection"):
        fam["reflection"] = ("n_max", {max_n})
    if suite in ("all", "half"):
        fam["half-argument"] = ("n_max", {max_n})
    if suite in ("all", "identity"):
        fam["bernoulli-product-identity"] = ("n", set(range(1, 7)))
    if suite in ("all", "routes"):
        fam["route-agreement"] = ("n_max", {max_n})
    if suite == "all":
        fam["shift-identity"] = ("n_max", {min(max_n, 10)})
        fam["derivative-relation"] = ("n_max", {max_n})
        fam["coefficient-table"] = ("n_max", {max_n})
    return fam


def parse_verify(stdout: str, fmt: str) -> list[tuple[str, str, dict]]:
    """(status, check, parameters) for each reported check."""
    if fmt == "json":
        doc = json.loads(stdout)
        out = [(c["status"].upper(), c["check"], c["parameters"]) for c in doc["checks"]]
        if doc["failures"] != sum(1 for s, _, _ in out if s != "PASS"):
            raise ValueError("failure count disagrees with the checks")
        return out
    lines = stdout.splitlines()
    out = []
    for line in lines[:-1]:
        m = re.match(r"^(PASS|FAIL) (\S+)(?: \[(.*?)\])?", line)
        if m is None:
            raise ValueError(f"bad verify line {line!r}")
        params = dict(kv.split("=", 1) for kv in (m[3] or "").split())
        out.append((m[1], m[2], params))
    passed = sum(1 for s, _, _ in out if s == "PASS")
    if lines[-1] != f"{passed}/{len(out)} checks passed":
        raise ValueError(f"bad summary line {lines[-1]!r}")
    return out


def check_verify(stdout: str, *, suite: str, max_n: int, fmt: str) -> tuple[int, list[str]]:
    """Every check passes and each promised family is present in full."""
    try:
        reports = parse_verify(stdout, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return 0, [f"verify {suite}: unreadable output: {exc}"]
    errors = [f"verify {suite}: {s} {name} {params}" for s, name, params in reports if s != "PASS"]
    seen: dict[str, set[int]] = {}
    families = expected_families(suite, max_n)
    for _, name, params in reports:
        key = families.get(name, ("", set()))[0]
        if key in params:
            seen.setdefault(name, set()).add(int(params[key]))
    if set(seen) != set(families):
        errors.append(f"verify {suite}: families {sorted(seen)}, expected {sorted(families)}")
    for name, (key, values) in families.items():
        got = seen.get(name, set())
        if not got or max(got) < max(values) or len(got) < len(values):
            errors.append(f"verify {suite}: {name} reports {key}={sorted(got)}, expected {sorted(values)}")
    return 0, errors


# ---------------------------------------------------------------------------
# errata


def parse_errata(stdout: str, fmt: str) -> list[dict]:
    """Entries as dicts with location, printed, computed and note."""
    if fmt == "json":
        return json.loads(stdout)["entries"]
    entries: list[dict] = []
    if fmt == "markdown":
        lines = stdout.splitlines()
        if lines[:2] != ["| location | printed | computed | note |", "| --- | --- | --- | --- |"]:
            raise ValueError("bad markdown header")
        for line in lines[2:]:
            cells = [c.replace("\\|", "|") for c in re.split(r" (?<!\\)\| ", line[2:-2])]
            loc, printed, computed, note = cells
            entries.append(dict(location=loc, printed=printed.strip("`"),
                                computed=computed.strip("`"), note=note))
        return entries
    for line in stdout.splitlines():
        if line.startswith("* "):
            entries.append(dict(location=line[2:], note=""))
        elif line.startswith("    printed:  "):
            entries[-1]["printed"] = line[len("    printed:  "):]
        elif line.startswith("    computed: "):
            entries[-1]["computed"] = line[len("    computed: "):]
        elif line.startswith("    note: "):
            entries[-1]["note"] = line[len("    note: "):]
        else:
            raise ValueError(f"bad errata line {line!r}")
    return entries


def _table_printed(entry: dict) -> Poly2:
    printed = entry["printed"]
    if "value" in printed:
        return {(0, 0): Fraction(printed["value"])} if Fraction(printed["value"]) else {}
    if "coeffs" in printed:
        return {(0, j): Fraction(c) for j, c in enumerate(printed["coeffs"]) if Fraction(c)}
    return {(int(i), int(j)): Fraction(c) for i, j, c in printed["terms"] if Fraction(c)}


def table_value(entry: dict) -> Poly2:
    """The reference value of one reference-table entry."""
    n = entry["n"]
    p = None if entry.get("p") is None else Fraction(entry["p"])
    t = None if entry.get("t") is None else Fraction(entry["t"])
    if entry["kind"].startswith("s_"):
        p = Fraction(1)
    return reference.specialize(reference.g_series(n)[n], p, t)


def check_errata(stdout: str, *, fmt: str, tables: dict) -> tuple[int, list[str]]:
    """Reported errata are exactly the flagged entries, with the printed
    value from the table and the computed value equal to the reference."""
    try:
        entries = parse_errata(stdout, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return 0, [f"errata {fmt}: unreadable output: {exc}"]
    errors = []
    expected = {st["location"]: st for st in tables["statements"]}
    for entry in tables["tables"]:
        value = table_value(entry)
        printed = _table_printed(entry)
        if (entry["status"] == "erratum") == (printed == value):
            errors.append(f"reference disagrees with the table's {entry['status']} flag on {entry['id']}")
        if entry["status"] == "erratum":
            expected[entry["location"]] = dict(entry, printed=printed, computed=value)
    got = [e["location"] for e in entries]
    if sorted(got) != sorted(expected):
        errors.append(f"errata {fmt}: reported {sorted(got)}, expected {sorted(expected)}")
    for e in entries:
        want = expected.get(e["location"])
        if want is None:
            continue
        if isinstance(want["printed"], str):
            same = (e["printed"], e["computed"], e["note"]) == (want["printed"], want["computed"], want.get("note", ""))
        else:
            try:
                same = (parse_text_poly(e["printed"]), parse_text_poly(e["computed"])) == (
                    want["printed"], want["computed"])
            except (ValueError, IndexError):
                same = False
        if not same:
            errors.append(f"errata {fmt}: wrong entry for {e['location']}: {e['printed']} -> {e['computed']}")
    return 0, errors


# ---------------------------------------------------------------------------
# approx and session


def parse_approx(stdout: str, fmt: str) -> tuple[list[dict], Optional[str]]:
    """Samples (n, order, value, abs_error as text) and the fitted order."""
    if fmt == "json":
        doc = json.loads(stdout)
        return doc["samples"], doc["fitted_order"]
    lines = stdout.splitlines()
    fitted = None
    samples = []
    if fmt == "csv":
        if lines and lines[-1].startswith("# fitted_order,"):
            fitted = lines.pop()[len("# fitted_order,"):]
        for row in csv.DictReader(io.StringIO("\n".join(lines) + "\n")):
            samples.append(row)
    else:
        if lines and lines[-1].startswith("fitted order: "):
            fitted = lines.pop()[len("fitted order: "):]
        for line in lines:
            samples.append(dict(kv.split("=", 1) for kv in line.split()))
    return [dict(s, n=int(s["n"]), order=int(s["order"])) for s in samples], fitted


def value_error(target: str, n: int, order: int, p: Fraction, t: Fraction, prec: int,
                value: str, abs_error: str) -> Optional[str]:
    """The value must be the approximant of ``order`` that ``reference``
    computes, and the reported abs_error its true distance from mpmath's
    target, both up to the rounding of the printed digits."""
    work = prec + 64
    with mpmath.workprec(work):
        v = mpmath.mpf(value)
        e = mpmath.mpf(abs_error)
        ref = reference.approx_target(target, n, p, t, work)
        want = reference.approximant(target, n, order, p, t, work)
        digits = mpmath.mpf(10) ** (1 - mpmath.libmp.prec_to_dps(prec))
        rounding = digits + mpmath.mpf(2) ** (6 - prec)
        if abs(v - want) > abs(want) * rounding:
            return (f"{target} n={n} order={order} p={p} t={t}: value {mpmath.nstr(v, 20)}, "
                    f"approximant {mpmath.nstr(want, 20)}")
        true_err = abs(v - ref)
        if abs(true_err - e) > abs(ref) * rounding + e * digits:
            return (f"{target} n={n} p={p} t={t}: |value - reference| = "
                    f"{mpmath.nstr(true_err, 8)}, reported {mpmath.nstr(e, 8)}")
    return None


# Fitted orders of the workloads' sweeps sit within 0.16 of theory for every
# p and t the seeds can give (the harmonic sweep from n=16 is the farthest);
# a wrong order is off by at least 1/3. Near a zero of G_{order+1}(p, t) the
# fit leaves theory: exp-psi at order 12 with p=8/3, t=7/4 fits 9.9, not
# 10.33, which is why that sweep runs at order 16.
ORDER_TOLERANCE = Fraction(1, 4)


def check_approx(stdout: str, *, target: str, n: int, order: int, p: Fraction,
                 t: Fraction, prec: int, fmt: str) -> tuple[int, list[str]]:
    """Each sample against the reference approximant and mpmath, and the
    fitted order against theory."""
    try:
        samples, fitted = parse_approx(stdout, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return 0, [f"approx {target}: unreadable output: {exc}"]
    errors = []
    if [s["n"] for s in samples] != [n, 2 * n, 4 * n, 8 * n]:
        errors.append(f"approx {target}: sample sizes {[s['n'] for s in samples]}")
    for s in samples:
        if s["order"] != order:
            errors.append(f"approx {target}: order {s['order']}, expected {order}")
        bad = value_error(target, s["n"], order, p, t, prec, s["value"], s["abs_error"])
        if bad:
            errors.append(bad)
    theory = reference.theoretical_order(target, order, p, t)
    if fitted is None or abs(Fraction(fitted) - theory) > ORDER_TOLERANCE:
        errors.append(f"approx {target}: fitted order {fitted}, theory {theory}")
    return 0, errors


def check_session(stdout: str, *, calls: list[dict], n: int, prec: int) -> tuple[int, list[str]]:
    """One result line per library call, each checked against the reference
    approximant and mpmath."""
    lines = stdout.splitlines()
    if len(lines) != len(calls):
        return len(calls), [f"session: {len(lines)} results for {len(calls)} calls"]
    failed, errors = 0, []
    for call, line in zip(calls, lines):
        result = json.loads(line)
        if "error" in result:
            failed += 1
            continue
        p, t = Fraction(call["p"]), Fraction(call["t"])
        bad = value_error(call["target"], n, call["order"], p, t, prec, result["value"],
                          result["abs_error"])
        if bad:
            errors.append(f"order {call['order']}: {bad}")
    return failed, errors[:5]
