"""A library session: one process makes the calls listed in a spec.

    python3 perfbench/session.py SPEC_JSON [--trace SPANS_FILE]

Prints one JSON line per call, with the value and abs_error in full
digits, or an ``error`` if the call raised. With ``--trace`` the calls run
under the span tracer and the spans are written to SPANS_FILE.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def result_lines(exppsi, spec: dict):
    """One JSON line per call of ``spec``, made with the ``exppsi`` module given."""
    import mpmath

    n, prec = spec["n"], spec["prec"]
    digits = mpmath.libmp.prec_to_dps(prec) + 10
    for call in spec["calls"]:
        p, t, order = Fraction(call["p"]), Fraction(call["t"]), call["order"]
        try:
            if call["target"] == "exp-psi":
                result = exppsi.approx_exp_psi(n, order, p=p, t=t, prec=prec)
            elif call["target"] == "gamma":
                result = exppsi.approx_gamma(n, order, t=t, prec=prec)
            else:
                result = exppsi.approx_harmonic(n, order, t=t, prec=prec)
        except Exception as exc:  # a failed call is reported, and the session goes on
            yield json.dumps({"error": repr(exc)})
            continue
        yield json.dumps({
            "value": mpmath.nstr(result.value, digits, strip_zeros=False),
            "abs_error": mpmath.nstr(result.abs_error, digits, strip_zeros=False),
        })


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    tracer = None
    if argv[1:2] == ["--trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import exppsi

    for line in result_lines(exppsi, spec):
        print(line)
    if tracer is not None:
        tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
