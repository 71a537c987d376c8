"""Exact symbolic-numeric engine for asymptotic digamma expansions.

The package computes the coefficient polynomials of the asymptotic
expansions of ``psi(x+t)`` and ``exp(p*psi(x+t))`` with exact rational
arithmetic, verifies the structural identities those coefficients satisfy,
corrects the published reference tables, and evaluates the truncated
expansions at high precision to approximate harmonic numbers and Euler's
constant.
"""

from .algebra import (
    BiPoly,
    Poly,
    json_canonical,
    parse_rational,
)
from .bernoulli import bernoulli_number, bernoulli_poly
from .expansions import (
    Series,
    binomial_in_p,
    coefficients,
    composition_buckets,
    g_series_at_p,
    g_series_at_t,
    g_via_bernoulli,
    g_via_compositions,
    g_via_power_transform,
    s_coeffs,
    shift_compose,
    specialize,
)
from .identities import (
    CheckReport,
    ErrataEntry,
    bernoulli_identity,
    bernoulli_identity_terms,
    check_coefficient_table,
    check_degree_collapse,
    check_derivative_relation,
    check_even_p_vanishing,
    check_half_argument,
    check_reflection,
    check_route_agreement,
    check_shift_identity,
    compare_reference_tables,
    errata_report,
    identity_text,
    reference_entries,
    reference_statements,
)
from .numeric import (
    ApproxResult,
    approx_exp_psi,
    approx_gamma,
    approx_harmonic,
    convergence_order,
    euler_gamma,
    eval_expansion,
    format_mpf,
    harmonic,
    psi_ref,
    to_mpf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Poly",
    "BiPoly",
    "parse_rational",
    "json_canonical",
    "bernoulli_number",
    "bernoulli_poly",
    "Series",
    "coefficients",
    "s_coeffs",
    "g_via_power_transform",
    "g_via_bernoulli",
    "g_via_compositions",
    "g_series_at_p",
    "g_series_at_t",
    "composition_buckets",
    "binomial_in_p",
    "shift_compose",
    "specialize",
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
    "identity_text",
    "reference_entries",
    "reference_statements",
    "compare_reference_tables",
    "errata_report",
    "ApproxResult",
    "harmonic",
    "psi_ref",
    "euler_gamma",
    "eval_expansion",
    "approx_gamma",
    "approx_harmonic",
    "approx_exp_psi",
    "convergence_order",
    "format_mpf",
    "to_mpf",
]
