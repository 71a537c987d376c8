"""Acceptance gate: one test per acceptance criterion.

Each test prints exactly one ``ACCEPTANCE <k> <name>: PASS`` or ``... FAIL``
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them), and
fails loudly if the criterion is not met, including its time budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from exppsi.expansions import (
    g_via_bernoulli,
    g_via_compositions,
    g_via_power_transform,
)
from exppsi.identities import (
    bernoulli_identity,
    bernoulli_identity_terms,
    check_coefficient_table,
    check_degree_collapse,
    check_derivative_relation,
    check_even_p_vanishing,
    check_half_argument,
    check_reflection,
    check_shift_identity,
    compare_reference_tables,
    errata_report,
)
from exppsi.numeric import (
    approx_gamma,
    approx_harmonic,
    convergence_order,
    euler_gamma,
    eval_expansion,
    psi_ref,
    to_mpf,
)

F = Fraction


@contextmanager
def criterion(k: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {k} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {k} {name}: PASS")


def test_criterion_1_route_agreement():
    with criterion(1, "three-route-agreement"):
        start = time.perf_counter()
        n_max = 12
        a = g_via_power_transform(n_max)
        b = g_via_bernoulli(n_max)
        c = g_via_compositions(n_max)
        for n in range(n_max + 1):
            assert a[n] == b[n], f"power vs recurrence at order {n}"
            assert c[n] == b[n], f"compositions vs recurrence at order {n}"
        assert time.perf_counter() - start < 10.0


def test_criterion_2_reference_tables_and_errata():
    with criterion(2, "reference-tables-and-errata"):
        results = compare_reference_tables()
        assert len(results) >= 60
        for result in results:
            entry = result["entry"]
            if entry["status"] == "confirmed":
                assert result["match"], f"confirmed entry drifted: {entry['id']}"
            else:
                assert entry["status"] == "erratum"
                assert not result["match"], f"stale erratum: {entry['id']}"

        mismatched = {r["entry"]["id"] for r in results if not r["match"]}
        assert mismatched == {
            "s-poly-6",
            "t0-series-1",
            "t0-series-3",
            "general-g-1",
            "general-g-3",
            "p3-col-3",
            "exp4-4",
        }

        report = errata_report()
        locations = {e.location for e in report}
        for r in results:
            if not r["match"]:
                entry = next(
                    e for e in report if e.location == r["entry"]["location"]
                )
                assert entry.printed == r["printed_text"]
                assert entry.computed == r["computed_text"]
        # statement-level corrections ship alongside the table mismatches
        assert any("t=1/2" in loc or "half" in loc for loc in locations)
        assert len(report) == len(mismatched) + 6


def test_criterion_3_theorem_suite():
    with criterion(3, "theorem-suite"):
        start = time.perf_counter()
        for p in range(2, 21, 2):
            assert check_even_p_vanishing(p).ok, f"vanishing failed at p={p}"
        for p in range(1, 13):
            assert check_degree_collapse(p, p + 6).ok, f"degrees failed at p={p}"
        assert check_reflection(15).ok
        assert check_half_argument(14).ok
        assert check_shift_identity(10, trials=20, seed=20260815).ok
        assert check_derivative_relation(12).ok
        assert check_coefficient_table(12).ok
        assert time.perf_counter() - start < 30.0


def test_criterion_4_bernoulli_product_identity():
    with criterion(4, "bernoulli-product-identity"):
        for n in range(1, 7):
            assert bernoulli_identity(n).is_zero, f"identity broke at n={n}"
        collected = {ks: c for c, ks in bernoulli_identity_terms(1)}
        assert collected == {
            (3,): F(-2, 3),
            (1, 2): F(2),
            (1, 1, 1): F(-4, 3),
        }


def test_criterion_5_numeric_demonstrations():
    with criterion(5, "numeric-demonstrations"):
        start = time.perf_counter()
        prec = 256

        fit_points = [
            (n, approx_gamma(n, 4, prec=prec).abs_error) for n in (32, 64, 128, 256)
        ]
        gamma_order = float(convergence_order(fit_points))
        assert abs(gamma_order - 5.0) < 0.15, gamma_order

        assert approx_gamma(100, 4, prec=prec).abs_error < 1e-10

        harmonic_result = approx_harmonic(10, 4, prec=prec)
        assert harmonic_result.abs_error < 1e-7
        with mp.workprec(prec + 40):
            exact = to_mpf(F(7381, 2520), prec + 40)
            assert abs(harmonic_result.value - exact) < 1e-7

        g = g_via_bernoulli(5)
        eval_points = []
        with mp.workprec(prec + 40):
            for x in (16, 32, 64, 128):
                reference = mpmath.exp(psi_ref(x + 1, prec))
                value = eval_expansion(g, 1, 1, x, 4, prec)
                eval_points.append((x, abs(value - reference)))
        eval_order = float(convergence_order(eval_points))
        assert abs(eval_order - 4.0) < 0.15, eval_order

        assert time.perf_counter() - start < 10.0


def test_criterion_6_digamma_oracle():
    with criterion(6, "digamma-oracle"):
        prec = 256
        bound = mpf(2) ** -240
        rng = random.Random(20260815)
        with mp.workprec(prec + 60):
            for _ in range(100):
                den = rng.randint(1, 400)
                num = rng.randint(1, 100 * den)
                x = F(num, den)  # exact rational in (0, 100]
                residual = abs(
                    psi_ref(x + 1, prec) - psi_ref(x, prec) - to_mpf(1 / x, prec + 40)
                )
                assert residual < bound, (x, residual)

            gamma = euler_gamma(prec)
            reference_half = -gamma - 2 * mpmath.log(2)
            assert abs(psi_ref(F(1, 2), prec) - reference_half) < bound
