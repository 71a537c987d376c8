"""Command-line interface.

Four subcommands:

``coeffs``
    Print expansion coefficients, symbolic or specialized, as text, JSON,
    CSV, or LaTeX.
``verify``
    Run the exact theorem checks and report one line per check; exits
    nonzero if any check fails.
``errata``
    Print the corrections to the published reference tables.
``approx``
    Evaluate the truncated expansions numerically against high-precision
    reference values, optionally sweeping the sample size to estimate the
    empirical convergence order.

This module renders every output format; the library returns values and
reports as data. All data output goes to stdout and is byte-deterministic
for fixed arguments; diagnostics go to stderr. Exit codes: 0 success,
1 failed verification, 2 usage error, 141 (128 + SIGPIPE) when the reader
closes stdout early.

Each command loads only the modules it runs. Every one loads ``algebra``,
``bernoulli`` and ``expansions``; beyond those:

==========  ==================================================
``coeffs``  nothing more
``verify``  ``identities``
``errata``  ``identities``, and ``json`` to read its tables
``approx``  ``numeric`` and mpmath, the only command with floats
==========  ==================================================

Otherwise ``json`` loads only for ``--format json``, and ``csv`` only for
``--format csv``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import BiPoly, _render, _terms, json_canonical, parse_rational
from .expansions import coefficients

if TYPE_CHECKING:
    from .identities import CheckReport
    from .numeric import ApproxResult

__all__ = ["main", "run"]

# Ceiling on ``approx --prec``. The digamma reference sums a tail of Bernoulli
# numbers up to index about prec/4, and on a 2-core x86-64 host the tangent
# table behind them took 0.57-0.64 s to B_2060, the index at 8192 bits, and a
# cold ``psi_ref(7, 8192)`` 0.72-0.81 s; the table grows as the square of the
# index times its bit length. The cut rule reads no table, so a sweep that
# sums each H_n exactly builds none: ``approx harmonic --n 16 --order 10
# --t 1/2 --sweep --prec 8192`` took 0.22 s, against 0.97 s for ``approx gamma
# --n 241 --sweep --prec 8192``, whose n = 1928 reads H_n off the digamma.
MAX_PREC = 8192

# Ceilings on ``verify --max-n``, and on ``approx --order`` and ``coeffs --n``:
# on a 2-core x86-64 host (CPython 3.11, mpmath 1.3.0 without gmpy2)
# ``verify --suite all --max-n 56`` took 5.9-8.8 s at 33-34 MiB peak RSS and
# ``coeffs g --n 72 --format json`` 4.5-7.0 s at 32-33 MiB, the build's own
# peak, as the 17 MB of output go out one coefficient at a time; each cost
# doubles with about 8 more orders. ``approx`` builds only the point
# series, so ``approx exp-psi --n 40 --order 72 --p 2/3 --t 5/4 --sweep`` took
# 0.2 s: the bivariate series set the order ceiling.
MAX_VERIFY_N = 56
MAX_ORDER = 72

# Ceiling on ``approx --n``. A sweep evaluates n, 2n, 4n and 8n. Their harmonic
# numbers are read off a certified digamma enclosure, not summed, so its cost
# does not grow with n: on the same host ``approx gamma --n N --sweep`` took
# 0.15-0.20 s at N = 10^5 and 10^9, and no longer at 10^12 or 10^15 with this
# ceiling lifted; at 8192 bits it took 1.9-2.4 s, most of it the Bernoulli
# table. At 10^9 an order-4 sweep at the default precision still fits its
# order; by 10^15 the one at t = 1/2 sinks into rounding noise.
MAX_APPROX_N = 10**9

# Ceiling on the digits of the numerator and of the denominator of ``--p``
# and ``--t``, the largest round value whose ``coeffs g --n 72`` finishes
# within 30 s: on the same host, with numerator and denominator of 60, 64,
# 70, 75 and 80 digits, ``--p`` took 17, 24, 20-22, 26 and 27-34 s and ``--t``
# 2.7, 3.1, 3.2-3.6, 3.8 and 4.6-5.7 s, and the time grows with the digits
# (40 took 9.4 s). It admits ``--t`` = 10^60, which has 61.
MAX_DIGITS = 70


def _rational(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    digits = max(len(str(abs(value.numerator))), len(str(value.denominator)))
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"numerator and denominator are limited to {MAX_DIGITS} digits, got {digits}")
    return value


def _count(low: int, high: int, limit: str):
    """Parser of an integer at least ``low`` (0 or 1) and at most ``high``;
    ``limit`` words that ceiling in the error."""
    kind = "positive" if low else "nonnegative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{limit.format(high)}, got {value}")
        return value

    return parse


def _csv_writer(out):
    """A CSV writer on ``out`` that ends each row with a bare newline."""
    import csv

    return csv.writer(out, lineterminator="\n")


# ---------------------------------------------------------------------------
# coeffs subcommand


def _latex_coeff(n: int, d: int) -> str:
    return str(n) if d == 1 else f"\\frac{{{n}}}{{{d}}}"


def _cmd_coeffs(args: argparse.Namespace, out) -> int:
    values = coefficients(args.kind, args.n, args.p, args.t).coeffs
    label = args.kind.upper()
    if args.format == "text":
        for n, v in enumerate(values):
            print(f"{label}_{n} = {_render(v)}", file=out)
    elif args.format == "latex":
        print("\\begin{align*}", file=out)
        for n, v in enumerate(values):
            tail = ",\\\\" if n < len(values) - 1 else ""
            body = _render(v, number=_latex_coeff, sep=" ", power="{}^{{{}}}")
            print(f"{label}_{{{n}}} &= {body}{tail}", file=out)
        print("\\end{align*}", file=out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        if all(isinstance(v, Fraction) for v in values):
            writer.writerow(["n", "value"])
            for n, v in enumerate(values):
                writer.writerow([n, str(v)])
        else:
            writer.writerow(["n", "p_pow", "t_pow", "num", "den"])
            for n, v in enumerate(values):
                writer.writerows([n, i, j, num, den] for num, den, i, j in _terms(BiPoly.of(v)))
    else:
        # json_canonical sorts keys and "coeffs" sorts first, so the canonical
        # document goes out one coefficient at a time and is never held whole
        out.write('{"coeffs":[')
        for n, v in enumerate(values):
            item = {"value": str(v)} if isinstance(v, Fraction) else {"poly": BiPoly.of(v).to_json_dict()}
            out.write(("," if n else "") + json_canonical({"n": n, **item}))
        p, t = (None if x is None else str(x) for x in (args.p, args.t))
        print("]," + json_canonical({"kind": args.kind, "order_max": args.n, "p": p, "t": t})[1:], file=out)
    return 0


# ---------------------------------------------------------------------------
# verify subcommand


def _suite_checks(suite: str, n_max: int) -> list[CheckReport]:
    from .identities import (
        CheckReport,
        bernoulli_identity,
        check_appell,
        check_degree_collapse,
        check_even_p_vanishing,
        check_half_argument,
        check_reflection,
        check_route_agreement,
    )

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


def _cmd_verify(args: argparse.Namespace, out) -> int:
    checks = _suite_checks(args.suite, args.max_n)
    failures = sum(1 for c in checks if not c.ok)
    if args.format == "json":
        doc = {
            "suite": args.suite,
            "max_n": args.max_n,
            "failures": failures,
            "checks": [c.to_json_dict() for c in checks],
        }
        print(json_canonical(doc), file=out)
    else:
        for c in checks:
            params = " ".join(f"{k}={v}" for k, v in sorted(c.parameters.items()))
            line = f"{'PASS' if c.ok else 'FAIL'} {c.check_name}"
            if params:
                line += f" [{params}]"
            if c.witness is not None:
                line += f" residual: {c.witness.to_text()}"
            print(line, file=out)
        print(f"{len(checks) - failures}/{len(checks)} checks passed", file=out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# errata subcommand


def _errata_text(entries) -> str:
    lines = []
    for e in entries:
        lines.append(f"* {e.location}")
        lines.append(f"    printed:  {e.printed}")
        lines.append(f"    computed: {e.computed}")
        if e.note:
            lines.append(f"    note: {e.note}")
    return "\n".join(lines) + "\n"


def _errata_markdown(entries) -> str:
    lines = [
        "| location | printed | computed | note |",
        "| --- | --- | --- | --- |",
    ]
    for e in entries:
        cells = [e.location, f"`{e.printed}`", f"`{e.computed}`", e.note]
        lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    return "\n".join(lines) + "\n"


# escaped with a bare backslash, these would read as a line break or an accent
_LATEX_SPECIAL = {"\\": "\\textbackslash{}", "^": "\\^{}", "~": "\\~{}"}


def _errata_latex(entries) -> str:
    def esc(text: str) -> str:
        return re.sub(r"[\\&%$#_{}^~]", lambda m: _LATEX_SPECIAL.get(m[0], "\\" + m[0]), text)

    lines = [
        "\\begin{tabular}{p{0.24\\linewidth}p{0.3\\linewidth}p{0.3\\linewidth}}",
        "\\hline",
        "location & printed & corrected \\\\",
        "\\hline",
    ]
    for e in entries:
        lines.append(
            f"{esc(e.location)} & \\texttt{{{esc(e.printed)}}} & "
            f"\\texttt{{{esc(e.computed)}}} \\\\"
        )
    lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _cmd_errata(args: argparse.Namespace, out) -> int:
    from .identities import errata_report

    entries = errata_report()
    if args.format == "json":
        print(
            json_canonical({"entries": [e.to_json_dict() for e in entries]}),
            file=out,
        )
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["location", "printed", "computed", "note"])
        for e in entries:
            writer.writerow([e.location, e.printed, e.computed, e.note])
    elif args.format == "markdown":
        out.write(_errata_markdown(entries))
    elif args.format == "latex":
        out.write(_errata_latex(entries))
    else:
        out.write(_errata_text(entries))
    return 0


# ---------------------------------------------------------------------------
# approx subcommand


def _fit(samples: Sequence[ApproxResult], prec: int) -> Optional[Fraction]:
    """Convergence order of the samples whose error is measurable, or None.

    An error at most 2^8 times the rounding floor of the working precision,
    2^-(prec+GUARD) times max(1, |value|), is rounding noise and is left out.
    """
    from mpmath import ldexp

    from .numeric import GUARD, convergence_order

    measurable = [
        (r.n, r.abs_error)
        for r in samples
        if r.abs_error > ldexp(max(1, abs(r.value)), 8 - prec - GUARD)
    ]
    try:
        return convergence_order(measurable)
    except ValueError:
        return None


def _cmd_approx(args: argparse.Namespace, out) -> int:
    from .numeric import approx_exp_psi, approx_gamma, approx_harmonic, format_mpf

    if args.p is None:
        args.p = Fraction(1)
    elif args.target != "exp-psi":
        raise ValueError("--p applies only to the target exp-psi")
    ns = [args.n * (2**k) for k in range(4)] if args.sweep else [args.n]
    if args.target == "exp-psi":
        samples = [approx_exp_psi(n, args.order, p=args.p, t=args.t, prec=args.prec) for n in ns]
    else:
        approx = approx_gamma if args.target == "gamma" else approx_harmonic
        samples = [approx(n, args.order, t=args.t, prec=args.prec) for n in ns]
    # est[i] is the order fitted to samples i-1 and i
    est = [None] + [_fit(samples[i - 1 : i + 1], args.prec) for i in range(1, len(samples))]
    fitted = _fit(samples, args.prec) if args.sweep else None
    rows = [
        (r.n, r.order_used, format_mpf(r.value, args.prec), format_mpf(r.abs_error, args.prec), e)
        for r, e in zip(samples, est)
    ]

    if args.format == "json":
        doc = {
            "target": args.target,
            "prec": args.prec,
            "t": str(args.t),
            "p": str(args.p) if args.target == "exp-psi" else None,
            "samples": [
                {
                    "n": n,
                    "order": order,
                    "value": value,
                    "abs_error": err,
                    "est_order": None if e is None else str(e),
                }
                for n, order, value, err, e in rows
            ],
            "fitted_order": None if fitted is None else str(fitted),
        }
        print(json_canonical(doc), file=out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["n", "order", "value", "abs_error", "est_order"])
        for *row, e in rows:
            writer.writerow([*row, "" if e is None else str(e)])
        if fitted is not None:
            print(f"# fitted_order,{fitted}", file=out)
    else:
        for n, order, value, err, e in rows:
            line = f"n={n} order={order} value={value} abs_error={err}"
            if e is not None:
                line += f" est_order={float(e):.3f}"
            print(line, file=out)
        if args.sweep:
            if fitted is not None:
                print(f"fitted order: {float(fitted):.3f}", file=out)
            else:
                print("fitted order: n/a", file=out)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exppsi",
        description=(
            "Exact coefficient polynomials, theorem verification, and "
            "high-precision evaluation for asymptotic digamma expansions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="print expansion coefficients")
    c.add_argument("kind", choices=["s", "g"], help="series family")
    c.add_argument("--n", type=_count(0, MAX_ORDER, "coefficients are limited to order {}"),
                   required=True, metavar="N", help=f"highest order to print, at most {MAX_ORDER}")
    c.add_argument("--p", type=_rational, default=None, metavar="RAT",
                   help="specialize the exponent (g only)")
    c.add_argument("--t", type=_rational, default=None, metavar="RAT",
                   help="specialize the shift")
    c.add_argument("--format", choices=["text", "json", "csv", "latex"],
                   default="text")
    c.set_defaults(func=_cmd_coeffs)

    v = sub.add_parser("verify", help="run the exact theorem checks")
    v.add_argument(
        "--suite",
        choices=["all", "even-p", "degrees", "reflection", "half", "identity", "routes"],
        default="all",
    )
    v.add_argument("--max-n", type=_count(1, MAX_VERIFY_N, "checks are limited to order {}"),
                   default=12, metavar="N", help=f"highest order checked, at most {MAX_VERIFY_N}")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("errata", help="print reference-table corrections")
    e.add_argument(
        "--format",
        choices=["text", "json", "csv", "latex", "markdown"],
        default="text",
    )
    e.set_defaults(func=_cmd_errata)

    a = sub.add_parser("approx", help="numerically evaluate the expansions")
    a.add_argument("target", choices=["gamma", "harmonic", "exp-psi"])
    a.add_argument("--n", type=_count(1, MAX_APPROX_N, "approximations are limited to n = {}"),
                   required=True, metavar="N",
                   help=f"sample index, the first of a sweep, at most {MAX_APPROX_N}")
    a.add_argument("--order", type=_count(0, MAX_ORDER, "series order is limited to {}"),
                   default=4, metavar="K", help=f"series order, at most {MAX_ORDER}")
    a.add_argument("--t", type=_rational, default=Fraction(1), metavar="RAT")
    a.add_argument("--p", type=_rational, default=None, metavar="RAT",
                   help="the exponent (exp-psi only), 1 by default")
    a.add_argument("--prec", type=_count(1, MAX_PREC, "precision is limited to {} bits"),
                   default=256, metavar="BITS",
                   help=f"working precision in bits, at most {MAX_PREC}")
    a.add_argument("--sweep", action="store_true",
                   help="sample n, 2n, 4n, 8n and fit the convergence order")
    a.add_argument("--format", choices=["text", "json", "csv"], default="text")
    a.set_defaults(func=_cmd_approx)

    return parser


def _glue_negative_rationals(argv: Sequence[str]) -> list[str]:
    """Write '--t -3/4' as '--t=-3/4': argparse reads a word such as -3/4 as
    an option, not as the value of the --p or --t before it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--p", "--t") and re.fullmatch(r"-\d+/\d+", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_negative_rationals(sys.argv[1:] if argv is None else argv))
    # the arguments are read under the interpreter's limit on the digits of
    # an int, but an exact coefficient prints in full, however long
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`exppsi ... | head`); send the unflushed
        # rest to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
