"""Span tracing of exppsi from outside the package, and the per-layer metrics.

The tracer replaces every public function of each module (the names in its
``__all__``), and ``Poly.__mul__``/``BiPoly.__mul__``, with a wrapper that
records a span: name, parent span, start, end, and for Bernoulli and
numeric functions the index ``k`` or precision ``prec`` argument. The
wrapper is installed in every exppsi namespace that holds the function, so
calls between modules are traced too. Spans stay in memory and are written
out when the process ends.

As a child process it runs one CLI command under the tracer:

    python3 perfbench/spans.py SPANS_FILE -- <exppsi arguments>

A span's self time is its duration minus the time its child spans cover.
A metric sums the self time of the spans it names (``TIMES``); a traced
helper that no metric names, such as ``to_mpf`` or ``composition_buckets``,
counts toward its nearest ancestor that one does.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("algebra", "bernoulli", "expansions", "identities", "numeric", "cli")

_CHECKS = (
    "check_route_agreement", "check_even_p_vanishing", "check_degree_collapse",
    "check_half_argument", "check_reflection", "check_shift_identity",
    "check_derivative_relation", "check_coefficient_table",
)

TIMES = {
    "bernoulli.number_s": ("bernoulli.bernoulli_number",),
    "bernoulli.poly_s": ("bernoulli.bernoulli_poly",),
    "algebra.bipoly_mul_s": ("algebra.BiPoly.__mul__",),
    "algebra.poly_mul_s": ("algebra.Poly.__mul__",),
    "expansions.g_bernoulli_s": ("expansions.g_via_bernoulli",),
    "expansions.s_coeffs_s": ("expansions.s_coeffs",),
    "expansions.g_power_s": ("expansions.g_via_power_transform", "expansions.power_transform"),
    "expansions.g_compositions_s": ("expansions.g_via_compositions",),
    "expansions.g_series_at_p_s": ("expansions.g_series_at_p",),
    "expansions.shift_compose_s": ("expansions.shift_compose",),
    "expansions.specialize_s": ("expansions.specialize",),
    "identities.route_agreement_s": ("identities.check_route_agreement",),
    "identities.product_identity_s": ("identities.bernoulli_identity",),
    "identities.even_p_s": ("identities.check_even_p_vanishing",),
    "identities.degree_collapse_s": ("identities.check_degree_collapse",),
    "identities.half_argument_s": ("identities.check_half_argument",),
    "identities.reflection_s": ("identities.check_reflection",),
    "identities.shift_identity_s": ("identities.check_shift_identity",),
    "identities.derivative_s": ("identities.check_derivative_relation",),
    "identities.coefficient_table_s": ("identities.check_coefficient_table",),
    "identities.errata_s": ("identities.errata_report", "identities.compare_reference_tables"),
    "numeric.psi_ref_s": ("numeric.psi_ref",),
    "numeric.harmonic_s": ("numeric.harmonic",),
    "numeric.euler_gamma_s": ("numeric.euler_gamma",),
    "numeric.eval_expansion_s": ("numeric.eval_expansion",),
    "numeric.approx_s": ("numeric.approx_gamma", "numeric.approx_harmonic",
                         "numeric.approx_exp_psi", "numeric.convergence_order"),
    "cli.self_s": ("cli.main",),
}

CALLS = {
    "algebra.bipoly_mul_calls": ("algebra.BiPoly.__mul__",),
    "algebra.poly_mul_calls": ("algebra.Poly.__mul__",),
    "expansions.g_bernoulli_calls": ("expansions.g_via_bernoulli",),
    "expansions.specialize_calls": ("expansions.specialize",),
    "numeric.psi_ref_calls": ("numeric.psi_ref",),
    "identities.checks_run": tuple(f"identities.{c}" for c in _CHECKS) + ("identities.bernoulli_identity",),
}

UNITS = {
    **{name: "s" for name in TIMES},
    **{name: "count" for name in CALLS},
    "bernoulli.max_index": "index",
    "expansions.g_terms": "count",
    "expansions.g_max_bits": "bits",
    "numeric.max_prec_bits": "bits",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}

_ARG = {"bernoulli": "k", "numeric": "prec"}


class Tracer:
    """Records spans for every traced call in this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, argument]
        self.stack: list[int] = []
        self.series: dict[int, tuple] = {}

    def wrap(self, name: str, fn, arg: str | None = None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        index = None
        if arg is not None:
            params = list(inspect.signature(fn).parameters.values())
            names = [p.name for p in params]
            if arg in names:
                index = names.index(arg)
                default = params[index].default
        keep_series = name.startswith("expansions.g_via_")
        series = self.series

        def traced(*args, **kwargs):
            value = None
            if index is not None:
                value = args[index] if len(args) > index else kwargs.get(arg, default)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, value]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep_series:
                series[id(result.coeffs)] = result.coeffs
            return result

        return traced

    def install(self) -> None:
        import exppsi

        modules = [importlib.import_module(f"exppsi.{layer}") for layer in LAYERS]
        namespaces = [exppsi, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn, _ARG.get(layer))
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        setattr(ns, key, traced)
        for cls in (modules[0].Poly, modules[0].BiPoly):
            traced = self.wrap(f"algebra.{cls.__name__}.__mul__", cls.__mul__)
            cls.__mul__ = cls.__rmul__ = traced

    def dump(self, path: str) -> None:
        terms = bits = 0
        for coeffs in self.series.values():
            terms = max(terms, sum(len(c.terms) for c in coeffs))
            for c in coeffs:
                for q in c.terms.values():
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "g_terms": terms, "g_max_bits": bits}, f)


def per_layer(docs: list[dict], stdout_bytes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span files of its processes."""
    owners = {span: metric for metric, names in TIMES.items() for span in names}
    out = {name: 0.0 if unit == "s" else 0 for name, unit in UNITS.items()}
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        owner: list = [None] * len(spans)
        for i, (name, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
            owner[i] = owners.get(name) or (owner[parent] if parent >= 0 else None)
        for i, (name, parent, start, end, value) in enumerate(spans):
            if owner[i] is not None:
                out[owner[i]] += end - start - covered[i]
            layer = name.split(".", 1)[0]
            if value is not None and layer == "bernoulli":
                out["bernoulli.max_index"] = max(out["bernoulli.max_index"], value)
            if value is not None and layer == "numeric":
                out["numeric.max_prec_bits"] = max(out["numeric.max_prec_bits"], value)
        for metric, names in CALLS.items():
            out[metric] += sum(1 for span in spans if span[0] in names)
        out["expansions.g_terms"] = max(out["expansions.g_terms"], doc["g_terms"])
        out["expansions.g_max_bits"] = max(out["expansions.g_max_bits"], doc["g_max_bits"])
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_FILE -- <exppsi arguments>")
    tracer = Tracer()
    tracer.install()
    from exppsi import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
