"""Tests for high-precision evaluation and convergence measurement.

The digamma routine is cross-checked against the library digamma, which
plays no role in the implementation itself.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from exppsi import bernoulli, expansions, numeric
from exppsi.algebra import BiPoly, Poly
from exppsi.cli import MAX_APPROX_N
from exppsi.expansions import coefficients, g_via_compositions
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


def correctly_rounded(value, prec: int) -> mpf:
    """The reduced rational ``value`` divided once, to nearest, at ``prec`` bits."""
    value = F(value)
    return mp.make_mpf(from_rational(value.numerator, value.denominator, prec, round_nearest))


class TestToMpf:
    """``to_mpf`` is the exact quotient rounded once, to nearest, ties to even."""

    @pytest.mark.parametrize("prec", [256, 304, 1632])
    def test_harmonic_numbers(self, prec):
        # three roundings (numerator, denominator, quotient) missed by an
        # ulp on 19 of these 153 cases
        for n in (*range(50, 394, 7), 2500):
            h = harmonic(n)
            assert to_mpf(h, prec)._mpf_ == correctly_rounded(h, prec)._mpf_, n

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(),
            st.fractions(),
            st.builds(F, st.integers(-(2**3000), 2**3000), st.integers(1, 2**3000)),
        ),
        st.integers(1, 1600),
    )
    def test_rationals(self, value, prec):
        assert to_mpf(value, prec)._mpf_ == correctly_rounded(value, prec)._mpf_

    def test_unreduced_sums_round_as_their_reduced_value(self):
        for prec in (64, 256, 1632):
            for n in (1, 2, 97, 2500):
                p, q = numeric._reciprocal_sum(F(1), n)
                assert numeric._round_ratio(p, q, prec)._mpf_ == to_mpf(harmonic(n), prec)._mpf_

    @pytest.mark.parametrize("prec", [2, 53, 368])
    def test_ties_and_near_ties_fall_back_to_the_exact_quotient(self, prec, monkeypatch):
        # (2^prec + 1) / 2^(prec+1) lies halfway between 1/2 and the next
        # mpf up; scaled by a long odd factor, both operands are long, and
        # the two ends of the truncated quotient straddle the tie
        divisions = []
        exact = mpmath.libmp.from_rational

        def spy(p, q, prec, rnd):
            divisions.append((p.bit_length(), q.bit_length()))
            return exact(p, q, prec, rnd)

        monkeypatch.setattr(mpmath.libmp, "from_rational", spy)
        odd = 3**800
        num, den = (2**prec + 1) * odd, 2 ** (prec + 1) * odd
        for sign in (1, -1):
            with mp.workprec(prec + 1):
                half = sign * mpf(0.5)
                above = sign * (mpf(0.5) + mpf(2) ** -prec)
            got = numeric._round_ratio(sign * num, den, prec)
            assert got == half  # the tie goes to the even mantissa
            assert (num.bit_length(), den.bit_length()) in divisions
            divisions.clear()
            # two more in the numerator: just above the tie, and reduced
            near = F(sign * (num + 2), den)
            assert near.denominator == den
            assert to_mpf(near, prec) == above
            assert to_mpf(near, prec)._mpf_ == correctly_rounded(near, prec)._mpf_
            assert (num.bit_length(), den.bit_length()) in divisions
            divisions.clear()


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

    def test_equals_the_naive_sum(self):
        naive = F(0)
        for n in range(301):
            assert harmonic(n) == naive, n
            naive += F(1, n + 1)
        assert harmonic(5000) == sum((F(1, k) for k in range(1, 5001)), F(0))

    def test_reciprocal_sum_equals_the_naive_sum(self):
        for x in (F(1), F(1, 2), F(5, 7), F(3), F(47, 2), F(1001, 10)):
            for m in (0, 1, 2, 7, 64, 129):
                naive = sum((1 / (x + k) for k in range(m)), F(0))
                assert F(*numeric._reciprocal_sum(x, m)) == naive, (x, m)


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

    @pytest.mark.parametrize(
        "x, prec",
        [*product((F(1), F(1, 3), F(7, 2), F(41), F(2501)), (64, 256, 1024)), (F(2501), 8192)],
    )
    def test_within_an_ulp_of_the_library_digamma(self, x, prec):
        mine = psi_ref(x, prec)
        with mp.workprec(prec + 64):
            theirs = mpmath.digamma(mpf(x.numerator) / x.denominator)
            ulp = mpmath.ldexp(1, mpmath.frexp(mine)[1] - prec)
            assert abs(mine - theirs) <= ulp, (x, prec)

    def test_the_tail_is_built_once(self, monkeypatch):
        # asked for its highest index first, the tangent table is built to
        # the length the tail needs, not regrown by doubling past it
        monkeypatch.setattr(bernoulli, "_numbers", [F(1)])
        monkeypatch.setattr(bernoulli, "_polys", [Poly.one()])
        numeric._tail_coefficients.cache_clear()
        numeric._psi_at.cache_clear()
        psi_ref(1, 1632)
        terms = numeric._psi_terms(1632)
        assert 2 * terms < len(bernoulli._numbers) <= 2 * terms + 2 == 410

    def test_each_argument_is_evaluated_once(self):
        numeric._psi_at.cache_clear()
        errors = [
            approx_exp_psi(40, order, p=F(2, 3), t=F(5, 4), prec=320).abs_error
            for order in range(2, 17, 2)
        ]
        info = numeric._psi_at.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        # and the shared reference still shows each order's error falling
        assert all(a > b for a, b in zip(errors, errors[1:]))
        # the arguments are checked before the cache is read: a float equal
        # to a cached rational is still refused
        with pytest.raises(TypeError):
            psi_ref(0.5)
        psi_ref(F(1, 2))
        with pytest.raises(TypeError):
            psi_ref(0.5)

    def test_the_cache_is_bounded(self):
        bound = numeric._psi_at.cache_info().maxsize
        for k in range(bound + 1):
            psi_ref(F(k + 1, 3), 64)
            assert numeric._psi_at.cache_info().currsize <= bound, k

    def test_precision_scales(self):
        with mp.workprec(600):
            low = psi_ref(F(7, 3), 256)
            high = psi_ref(F(7, 3), 512)
            assert abs(low - high) < mpf(2) ** -250
            theirs = mpmath.digamma(mpmath.mpf(7) / 3)
            assert abs(high - theirs) < mpf(2) ** -500


@lru_cache(maxsize=None)
def exact_harmonic(n: int) -> tuple[int, int]:
    return numeric._reciprocal_sum(F(1), n)


class TestCertifiedHarmonic:
    """``_harmonic_rounded`` gives H_n rounded once to nearest, bit for bit
    what the exact sum gives, from an interval enclosure of psi(n+1) + gamma."""

    @pytest.mark.parametrize("wp", [112, 304])
    def test_tail_length_is_the_least_term_under_the_target(self, wp):
        # the float estimate and its Stirling pre-filter against the
        # remainder bound |B_2J|/(2J z^2J) <= 2^-bits in exact rationals
        bits, terms = wp + 32, numeric._psi_terms(wp + numeric.GUARD)
        euler_gamma(wp)
        coeffs = [abs(bernoulli.bernoulli_number(2 * j)) / (2 * j) for j in range(1, terms + 1)]
        for z in range(2, 400):
            under = (j for j, c in enumerate(coeffs, 1) if c / z ** (2 * j) <= F(1, 2**bits))
            want = next(under, None)
            assert numeric._tail_length(z, bits, terms) == want, z

    @pytest.mark.parametrize("wp", [112, 304, 1680])
    def test_equals_the_exact_sum_rounded(self, wp):
        euler_gamma(wp)
        terms = numeric._psi_terms(wp + numeric.GUARD)
        admitted = [n for n in range(1, 1000) if numeric._tail_length(n + 1, wp + 32, terms)]
        assert len(admitted) >= 50
        for n in (*admitted[:50], 10**3, 12345, 10**5):
            got = numeric._harmonic_rounded(n, wp)
            assert got is not None, (n, wp)
            assert got._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_, (n, wp)
        assert numeric._harmonic_rounded(admitted[0] - 1, wp) is None

    @pytest.mark.parametrize("n", [40, 160, 320])
    def test_the_enclosure_holds_the_exact_sum(self, n):
        # any number of terms J gives an enclosure; at n = 320 J is the one
        # _harmonic_rounded takes
        wp = 816
        euler_gamma(wp)
        terms = numeric._tail_length(n + 1, wp + 32, numeric._psi_terms(wp + numeric.GUARD)) or 85
        low, high = (
            F(*mpmath.libmp.to_rational(end))
            for end in numeric._harmonic_enclosure(n, terms, wp + 32)._mpi_
        )
        assert low < F(*exact_harmonic(n)) < high
        assert high - low < F(1, 2**300)
        got = numeric._harmonic_rounded(n, wp)
        if n == 320:
            assert got._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_
        else:
            assert got is None

    def test_eight_hundred_thousand_against_a_fixed_point_sum(self):
        # the exact sum takes tens of seconds at this n; the sum s of
        # floor(2^b/k) lies within n below 2^b H_n, so H_n is in
        # [s, s + n]/2^b, and where both ends round alike that is H_n rounded
        n = 800_000
        b = 1680 + 64 + n.bit_length()
        s = sum((1 << b) // k for k in range(1, n + 1))
        for wp in (112, 304, 1680):
            want = numeric._round_ratio(s, 1 << b, wp)
            assert numeric._round_ratio(s + n, 1 << b, wp)._mpf_ == want._mpf_
            assert numeric._harmonic_rounded(n, wp)._mpf_ == want._mpf_, wp

    def test_a_near_tie_is_retried_with_more_bits(self, monkeypatch):
        n, wp = 12345, 304
        want = numeric._round_ratio(*exact_harmonic(n), wp)
        # halfway between want and the next wp-bit mpf up
        half = mpmath.ldexp(1, mpmath.frexp(want)[1] - wp - 1)
        enclosure = numeric._harmonic_enclosure
        attempts = []

        def first_straddles(n, terms, prec):
            attempts.append(prec)
            if len(attempts) > 1:
                return enclosure(n, terms, prec)
            # mpf ends are taken exactly: just below and above the midpoint
            with mp.workprec(wp + 64):
                return mpmath.iv.mpf([want + half - half / 2**32, want + half + half / 2**32])

        monkeypatch.setattr(numeric, "_harmonic_enclosure", first_straddles)
        assert numeric._harmonic_rounded(n, wp)._mpf_ == want._mpf_
        assert attempts == [wp + 32, wp + 64]

    def test_past_the_reach_of_the_series_the_exact_sum_gives_the_value(self, monkeypatch):
        n, prec = 12345, 256
        before = approx_harmonic(n, 4, prec=prec)
        attempts, sums = [], []

        def never_settles(n, terms, prec):
            attempts.append(prec)
            return mpmath.iv.mpf([-1, 1])

        reciprocal_sum = numeric._reciprocal_sum

        def spy(x, m):
            sums.append(m)
            return reciprocal_sum(x, m)

        monkeypatch.setattr(numeric, "_harmonic_enclosure", never_settles)
        monkeypatch.setattr(numeric, "_reciprocal_sum", spy)
        assert approx_harmonic(n, 4, prec=prec) == before
        wp = prec + numeric.GUARD
        # the extra bits double until the series cannot reach 2^-(wp+extra)
        assert attempts == [wp + 32 * 2**k for k in range(len(attempts))]
        terms = numeric._psi_terms(wp + numeric.GUARD)
        assert numeric._tail_length(n + 1, 2 * attempts[-1] - wp, terms) is None
        assert n in sums

    def test_a_sweep_at_the_limit_sums_no_long_range(self, monkeypatch):
        lengths = []
        reciprocal_sum = numeric._reciprocal_sum

        def spy(x, m):
            lengths.append(m)
            return reciprocal_sum(x, m)

        monkeypatch.setattr(numeric, "_reciprocal_sum", spy)
        ns = [MAX_APPROX_N * 2**k for k in range(4)]
        assert [r.n for r in numeric._harmonic_samples("gamma", ns, 4, 1, 256)] == ns
        # at most psi_ref's shift for Euler's constant, about prec/4 terms
        assert max(lengths, default=0) < 1000

    def test_the_benchmark_session_calls_build_no_interval(self, monkeypatch):
        def no_interval(*args):
            raise AssertionError("an interval was built")

        monkeypatch.setattr(numeric, "_harmonic_enclosure", no_interval)
        # the session's shape: n = 40 at 320 bits, t from 1/4, 3/4, 5/4, 7/4
        for t in (F(1, 4), F(3, 4), F(5, 4), F(7, 4)):
            for order in (2, 16):
                approx_gamma(40, order, t=t, prec=320)
                approx_harmonic(40, order, t=t, prec=320)


class TestEulerGamma:
    def test_against_library_constant(self):
        with mp.workprec(300):
            assert abs(euler_gamma(256) - mpmath.euler) < TIGHT

    def test_prefix_digits(self):
        assert format_mpf(euler_gamma(256), 256).startswith("0.5772156649015328606")


class TestEvalExpansion:
    def test_order_zero_is_the_pure_power(self):
        assert eval_expansion(coefficients("g", 0, 1, 1), 1, 10, 256) == mpf(10)
        assert eval_expansion(coefficients("g", 0, 2, 1), 2, 10, 256) == mpf(100)

    def test_truncation_error_is_next_term_sized(self):
        x = F(50)
        with mp.workprec(300):
            for order in (1, 2, 3, 4):
                here = eval_expansion(coefficients("g", order, 1, 1), 1, x, 280)
                longer = coefficients("g", order + 1, 1, 1)
                step = abs(eval_expansion(longer, 1, x, 280) - here)
                expected = abs(to_mpf(longer[order + 1], 280)) * to_mpf(x, 280) ** (1 - (order + 1))
                assert abs(step - expected) <= expected * mpf(2) ** -200

    def test_rejects_bad_arguments(self):
        g = coefficients("g", 3, 1, 1)
        for x in (0, -1, F(-7, 2)):
            with pytest.raises(ValueError):
                eval_expansion(g, 1, x, 256)

    @pytest.mark.parametrize(
        "p, t, x", [(F(-2, 3), F(5, 4), F(7)), (F(7, 2), F(-3, 4), F(23, 3)), (F(1), F(1, 2), F(10))]
    )
    def test_matches_scalar_series(self, p, t, x):
        # the reference sums G_n(p, t) from the composition route, each
        # bivariate G_n evaluated at (p, t): it shares no code with the
        # log-series recurrence that gives the point series
        order, prec = 12, 256
        coeffs = [c.eval(p, t) for c in g_via_compositions(order).coeffs]
        with mp.workprec(prec + 64):
            xv = mpf(x.numerator) / x.denominator
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc / xv + mpf(c.numerator) / c.denominator
            expected = mpmath.power(xv, mpf(p.numerator) / p.denominator) * acc
            got = eval_expansion(coefficients("g", order, p, t), p, x, prec)
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
            # counts and orders must be integers: binary splitting over a
            # float count never reaches its one-term base case
            for n, order in ((F(21, 2), 2), (10.5, 2), (4.0, 2), (10, 3.0)):
                with pytest.raises(TypeError):
                    approx(n, order)
        for n in (F(21, 2), 10.5, 4.0):
            with pytest.raises(TypeError):
                harmonic(n)
        # every routine that takes a precision refuses one below a bit
        g = coefficients("g", 3, 1, 1)
        for prec in (0, -5):
            for call in (
                lambda: psi_ref(1, prec),
                lambda: euler_gamma(prec),
                lambda: eval_expansion(g, 1, 10, prec),
                lambda: to_mpf(F(1, 3), prec),
            ):
                with pytest.raises(ValueError, match=f"precision must be >= 1 bit, got {prec}"):
                    call()

    def test_no_bivariate_series_is_built(self, monkeypatch):
        # the approximants read the point series G_n(p, t); the cache of
        # bivariate G_n stays as it starts
        monkeypatch.setattr(expansions, "_g", [BiPoly.one()])
        approx_gamma(20, 6)
        approx_harmonic(20, 6, t=F(1, 2))
        approx_exp_psi(20, 6, p=F(2, 3), t=F(5, 4))
        assert len(expansions._g) == 1

    def test_nonpositive_point_fails_before_any_series(self, monkeypatch):
        def no_series(*args):
            raise AssertionError("the series was built for a rejected sample")

        monkeypatch.setattr(numeric, "_exp_series", no_series)
        for call, text in (
            (lambda: approx_gamma(1, 28, t=2), "need n + 1 - t > 0, got n = 1, t = 2"),
            (lambda: approx_harmonic(3, 28, t=F(9, 2)), "need n + 1 - t > 0, got n = 3, t = 9/2"),
            (lambda: approx_exp_psi(5, 28, t=-6), "need n + t > 0, got n = 5, t = -6"),
            (lambda: approx_exp_psi(5, 28, p=2, t=-5), "need n + t > 0, got n = 5, t = -5"),
            (lambda: approx_gamma(10, 3, prec=0), "precision must be >= 1 bit, got 0"),
            (lambda: approx_harmonic(10, 3, prec=-5), "precision must be >= 1 bit, got -5"),
            (lambda: approx_exp_psi(10, 3, prec=-5), "precision must be >= 1 bit, got -5"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == text


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
