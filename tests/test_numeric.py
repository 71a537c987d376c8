"""Tests for high-precision evaluation and convergence measurement.

The digamma routine is cross-checked against the library digamma, which
plays no role in the implementation itself.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from exppsi.bernoulli import bernoulli_poly
from exppsi.expansions import _log_series, g_via_bernoulli
from exppsi.numeric import (
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

F = Fraction

TIGHT = mpf(2) ** -240


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == F(11, 6)
        assert harmonic(10) == F(7381, 2520)

    def test_large_value_as_float(self):
        assert float(harmonic(100)) == pytest.approx(5.187377517639621, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestPsiRef:
    def test_rejects_nonpositive_arguments(self):
        for bad in (0, -1, F(-3, 2)):
            with pytest.raises(ValueError):
                psi_ref(bad)

    def test_special_values(self):
        with mp.workprec(300):
            gamma = -psi_ref(1, 290)
            assert abs(psi_ref(2, 256) - (1 + (-gamma))) < TIGHT
            expected_half = -gamma - 2 * mpmath.log(2)
            assert abs(psi_ref(F(1, 2), 256) - expected_half) < TIGHT

    def test_recurrence_residual_on_random_rationals(self):
        rng = random.Random(7)
        with mp.workprec(300):
            for _ in range(10):
                x = F(rng.randint(1, 400), rng.randint(1, 4))
                lhs = psi_ref(x + 1, 256) - psi_ref(x, 256)
                rhs = to_mpf(F(1, 1) / x, 280)
                assert abs(lhs - rhs) < TIGHT, x

    def test_matches_library_digamma(self):
        with mp.workprec(300):
            for x in (F(1, 3), F(5, 7), F(3), F(47, 2), F(1001, 10)):
                mine = psi_ref(x, 256)
                theirs = mpmath.digamma(mpmath.mpf(x.numerator) / x.denominator)
                assert abs(mine - theirs) < TIGHT, x

    def test_precision_scales(self):
        with mp.workprec(600):
            low = psi_ref(F(7, 3), 256)
            high = psi_ref(F(7, 3), 512)
            assert abs(low - high) < mpf(2) ** -250
            theirs = mpmath.digamma(mpmath.mpf(7) / 3)
            assert abs(high - theirs) < mpf(2) ** -500


class TestEulerGamma:
    def test_against_library_constant(self):
        with mp.workprec(300):
            assert abs(euler_gamma(256) - mpmath.euler) < TIGHT

    def test_prefix_digits(self):
        assert format_mpf(euler_gamma(256), 256).startswith("0.5772156649015328606")


class TestEvalExpansion:
    def test_order_zero_is_the_pure_power(self):
        g = g_via_bernoulli(4)
        assert eval_expansion(g, 1, 1, 10, 0, 256) == mpf(10)
        assert eval_expansion(g, 2, 1, 10, 0, 256) == mpf(100)

    def test_truncation_error_is_next_term_sized(self):
        g = g_via_bernoulli(6)
        x = F(50)
        with mp.workprec(300):
            for order in (1, 2, 3, 4):
                here = eval_expansion(g, 1, 1, x, order, 280)
                next_up = eval_expansion(g, 1, 1, x, order + 1, 280)
                step = abs(next_up - here)
                coeff = g[order + 1].eval(1, 1)
                expected = abs(to_mpf(coeff, 280)) * to_mpf(x, 280) ** (1 - (order + 1))
                assert abs(step - expected) <= expected * mpf(2) ** -200

    def test_rejects_bad_arguments(self):
        g = g_via_bernoulli(3)
        with pytest.raises(ValueError):
            eval_expansion(g, 1, 1, 0, 2, 256)
        with pytest.raises(ValueError):
            eval_expansion(g, 1, 1, 10, 9, 256)

    def test_negative_order_rejected(self):
        # a negative order once sliced the series from its end
        g = g_via_bernoulli(6)
        for order in (-1, -3, -7):
            with pytest.raises(ValueError):
                eval_expansion(g, 1, 1, 10, order)

    @pytest.mark.parametrize(
        "p, t, x", [(F(-2, 3), F(5, 4), F(7)), (F(7, 2), F(-3, 4), F(23, 3)), (F(1), F(1, 2), F(10))]
    )
    def test_matches_scalar_series(self, p, t, x):
        # G_n(p, t) at fixed (p, t) by the scalar recurrence over the rationals
        # B_k(t): no bivariate polynomial is built or specialized here
        order, prec = 12, 256
        beta = [bernoulli_poly(k).eval(t) for k in range(order + 1)]
        coeffs = _log_series([F(1)], beta, p)
        with mp.workprec(prec + 64):
            xv = mpf(x.numerator) / x.denominator
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc / xv + mpf(c.numerator) / c.denominator
            expected = mpmath.power(xv, mpf(p.numerator) / p.denominator) * acc
            got = eval_expansion(g_via_bernoulli(order), p, t, x, order, prec)
            assert abs(got - expected) <= abs(expected) * mpf(2) ** -(prec - 2)


class TestApproximations:
    def test_lowest_order_euler_constant(self):
        result = approx_gamma(1, 0)
        assert result.value == mpf(1)
        with mp.workprec(280):
            assert abs(result.abs_error - mpf("0.4227843350984671")) < 1e-12

    def test_error_shrinks_with_n(self):
        errors = [approx_gamma(n, 3).abs_error for n in (8, 16, 32)]
        assert errors[0] > errors[1] > errors[2]

    def test_error_ratio_matches_order(self):
        e64 = approx_gamma(64, 3).abs_error
        e128 = approx_gamma(128, 3).abs_error
        ratio = e64 / e128
        assert 15 < ratio < 17  # truncation after order 3 decays like n^-4

    def test_harmonic_number_recovery(self):
        result = approx_harmonic(10, 4)
        assert result.abs_error < 1e-7
        with mp.workprec(280):
            exact = to_mpf(F(7381, 2520), 280)
            recomputed = abs(result.value - exact)
            assert abs(recomputed - result.abs_error) < mpf(2) ** -250

    def test_half_shift_doubles_the_effective_order(self):
        # with t = 1/2 the odd coefficients vanish, so order 4 behaves
        # like order 5 and the error decays two powers faster per doubling
        result = approx_harmonic(10, 4, t=F(1, 2))
        assert result.abs_error < 1e-8
        pts = [
            (n, approx_harmonic(n, 4, t=F(1, 2)).abs_error) for n in (16, 32, 64, 128)
        ]
        fitted = convergence_order(pts)
        assert abs(float(fitted) - 6.0) < 0.2

    def test_exponential_target(self):
        result = approx_exp_psi(10, 0, p=1, t=1)
        assert result.value == mpf(10)
        with mp.workprec(280):
            reference = mpmath.exp(psi_ref(11, 280))
            assert abs(result.abs_error - abs(mpf(10) - reference)) < 1e-60

    def test_input_guards(self):
        with pytest.raises(ValueError):
            approx_gamma(0, 3)
        with pytest.raises(ValueError):
            approx_harmonic(-2, 3)
        with pytest.raises(ValueError):
            approx_exp_psi(0, 3)
        for approx in (approx_gamma, approx_harmonic, approx_exp_psi):
            with pytest.raises(ValueError):
                approx(10, -3)


class TestConvergenceOrder:
    def test_recovers_synthetic_power_law(self):
        points = [(n, 3 * mpf(n) ** -2) for n in (10, 20, 40, 80)]
        assert convergence_order(points) == F(2)

    def test_fractional_order(self):
        points = [(n, mpf(n) ** mpf("-2.5")) for n in (10, 100, 1000)]
        assert abs(float(convergence_order(points)) - 2.5) < 1e-9

    def test_zero_error_rejected(self):
        with pytest.raises(ValueError, match="exceeds measurable order"):
            convergence_order([(10, mpf(0)), (20, mpf(1))])

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            convergence_order([(10, mpf(1)), (10, mpf(2))])


class TestRendering:
    def test_format_is_deterministic(self):
        a = format_mpf(euler_gamma(256), 256)
        b = format_mpf(euler_gamma(256), 256)
        assert a == b
