"""Tests for high-precision evaluation and convergence measurement.

The digamma routine is cross-checked against the library digamma, which
plays no role in the implementation itself.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_rational, mpf_euler, round_ceiling, round_floor, round_nearest, to_rational

from exppsi import bernoulli, expansions, numeric
from exppsi.algebra import Poly
from exppsi.cli import MAX_APPROX_N
from exppsi.expansions import coefficients, g_via_compositions
from exppsi.numeric import (
    ApproxResult,
    _fit,
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


def euler_bounds(bits: int) -> tuple[F, F]:
    """Euler's constant rounded down and up at ``bits`` bits, as rationals."""
    return tuple(F(*to_rational(mpf_euler(bits, rnd))) for rnd in (round_floor, round_ceiling))


def straddle(monkeypatch, want: mpf, prec: int, offset: F, times: int) -> list[int]:
    """Make the first ``times`` calls of ``numeric._psi_enclosure`` give ends
    just below and just above the midpoint between ``want`` and the next
    prec-bit mpf up, less ``offset``, and the later ones the true enclosure.
    Returns the list of bits that each call was asked for."""
    enclosure, attempts = numeric._psi_enclosure, []
    half = F(2) ** (mpmath.frexp(want)[1] - prec - 1)
    mid = F(*to_rational(want._mpf_)) + half - offset

    def first_straddle(x, m, terms, bits):
        attempts.append(bits)
        if len(attempts) > times:
            return enclosure(x, m, terms, bits)
        ends = (mid - half / 2**32, mid + half / 2**32)
        return tuple(from_rational(v.numerator, v.denominator, prec + 512, round_nearest) for v in ends)

    monkeypatch.setattr(numeric, "_psi_enclosure", first_straddle)
    return attempts


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
    def test_ties_go_to_the_even_mantissa(self, prec):
        # (2^prec + 1) / 2^(prec+1) lies halfway between 1/2 and the next
        # mpf up; scaled by a long odd factor, both operands are long
        odd = 3**800
        num, den = (2**prec + 1) * odd, 2 ** (prec + 1) * odd
        for sign in (1, -1):
            with mp.workprec(prec + 1):
                half = sign * mpf(0.5)
                above = sign * (mpf(0.5) + mpf(2) ** -prec)
            assert numeric._round_ratio(sign * num, den, prec) == half
            # two more in the numerator: just above the tie, and reduced
            near = F(sign * (num + 2), den)
            assert near.denominator == den
            assert to_mpf(near, prec) == above
            assert to_mpf(near, prec)._mpf_ == correctly_rounded(near, prec)._mpf_


def mpmath_expansion(g, p: F, x: F, prec: int) -> mpf:
    """``eval_expansion`` as mpmath's functions and operators give it: x^p S
    under ``workprec(prec + GUARD)``, rounded to ``prec`` by unary plus."""
    s = sum(c / x**k for k, c in enumerate(g.coeffs))
    if p == 1:
        return correctly_rounded(x * s, prec)
    with mp.workprec(prec + numeric.GUARD):
        value = mpmath.power(correctly_rounded(x, mp.prec), correctly_rounded(p, mp.prec)) * correctly_rounded(s, mp.prec)
    with mp.workprec(prec):
        return +value


class TestRawSteps:
    """The approximants take their float steps in raw libmp calls, bit for
    bit what mpmath's functions and operators give under ``workprec``, which
    this computes from the formulas, and leave the context as it was."""

    @pytest.mark.parametrize("prec", [53, 320, 768, 1536])
    def test_the_bits_of_the_mpmath_formulas(self, prec):
        rng = random.Random(prec)
        wp = prec + numeric.GUARD
        before = mp.prec
        for _ in range(10):
            n, order = rng.choice((1, 3, 40, 1000, 12345)), rng.randint(0, 16)
            p, t = rng.choice((F(1), F(2, 3), F(5, 3))), F(rng.randint(-3, 8), 4)
            case = (n, order, p, t, prec)
            x = F(n) + F(1, 3)
            g = coefficients("g", order, p, t)
            assert eval_expansion(g, p, x, prec)._mpf_ == mpmath_expansion(g, p, x, prec)._mpf_, case
            if n + t > 0:
                with mp.workprec(wp):
                    value = mpmath_expansion(g, p, F(n), wp)
                    err = abs(value - mpmath.exp(correctly_rounded(p, wp) * psi_ref(n + t, wp)))
                with mp.workprec(prec):
                    want = ((+value)._mpf_, (+err)._mpf_)
                result = approx_exp_psi(n, order, p, t, prec)
                assert (result.value._mpf_, result.abs_error._mpf_) == want, case
            e = mpmath_expansion(coefficients("g", order, 1, t), 1, n + 1 - t, wp) if n + 1 - t > 0 else -1
            if e < 0:
                continue
            with mp.workprec(wp):
                gamma, h, log_e = euler_gamma(wp), correctly_rounded(harmonic(n), wp), mpmath.log(e)
                samples = [(approx_gamma, h - log_e, gamma), (approx_harmonic, gamma + log_e, h)]
                samples = [(approx, value, abs(value - ref)) for approx, value, ref in samples]
            for approx, value, err in samples:
                with mp.workprec(prec):
                    want = ((+value)._mpf_, (+err)._mpf_)
                result = approx(n, order, t, prec)
                assert (result.value._mpf_, result.abs_error._mpf_) == want, (approx.__name__, *case)
        assert mp.prec == before


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
        numeric._tail_bounds.cache_clear()
        numeric._psi_at.cache_clear()
        psi_ref(1, 1632)
        terms = numeric._psi_terms(1632)
        assert 2 * terms < len(bernoulli._numbers) <= 2 * terms + 2 == 410

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_correctly_rounded_at_the_integers(self, prec):
        # psi(k) = H_(k-1) - gamma; gamma's bounds at prec + 256 bits pin
        # down each rounded value, which the library digamma does not
        low, high = euler_bounds(prec + 256)
        for k in range(1, 61):
            h = harmonic(k - 1)
            want = correctly_rounded(h - high, prec)
            assert correctly_rounded(h - low, prec) == want, k
            assert psi_ref(k, prec)._mpf_ == want._mpf_, (k, prec)

    @pytest.mark.parametrize("prec", [64, 256])
    def test_huge_and_tiny_arguments(self, prec):
        # psi(x) = log x - 1/(2x) + ... at x = 10^400/3, and -1/x - gamma +
        # ... at x = 10^-400: no float of x is taken, and each value is the
        # leading term rounded, as the next one is far below its last bit
        big = psi_ref(F(10**400, 3), prec)
        with mp.workprec(1600):
            log_big = mpmath.log(mpf(10) ** 400 / 3)
        with mp.workprec(prec):
            assert big == +log_big
        assert format_mpf(big, prec).startswith("919.935424908")
        assert psi_ref(F(1, 10**400), prec) == correctly_rounded(-(10**400), prec)

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
        # the float estimates against the remainder bound
        # |B_2J|/(2J z^2J) <= 2^-bits in exact rationals: _cut takes no
        # shift exactly when some J <= terms meets it, and then the least
        # such J; otherwise it shifts, with J = terms
        bits, terms = wp + 32, numeric._psi_terms(wp + numeric.GUARD)
        coeffs = [abs(bernoulli.bernoulli_number(2 * j)) / (2 * j) for j in range(1, terms + 1)]
        for z in range(2, 400):
            under = (j for j, c in enumerate(coeffs, 1) if c / z ** (2 * j) <= F(1, 2**bits))
            want = next(under, None)
            m, J = numeric._cut(z, bits, terms)
            assert (m == 0) == (want is not None), z
            assert J == (want or terms), z

    @pytest.mark.parametrize("wp", [112, 304, 816])
    def test_a_shift_is_the_least_and_keeps_every_term(self, wp):
        # wherever _cut shifts x = k/4, it takes all the terms, the last of
        # which meets 2^-bits in exact rationals at x + m but not at x + m - 1
        bits, terms = wp + 32, numeric._psi_terms(wp + numeric.GUARD)
        c = abs(bernoulli.bernoulli_number(2 * terms)) / (2 * terms)
        shifted = 0
        for k in range(1, 3000, 3):
            x = F(k, 4)
            m, J = numeric._cut(x, bits, terms)
            if m:
                shifted += 1
                assert J == terms, x
                assert c / (x + m) ** (2 * J) <= F(1, 2**bits) < c / (x + m - 1) ** (2 * J), x
        assert shifted > 0

    @pytest.mark.parametrize("wp", [112, 304])
    def test_every_n_below_a_thousand_is_the_exact_sum_rounded(self, wp):
        # through the enclosure where _cut admits n + 1, and the exact sum
        # where it shifts
        for n in range(1, 1000):
            assert numeric._harmonic_rounded(n, wp)._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_, n

    @pytest.mark.parametrize("wp", [112, 304, 1680])
    def test_equals_the_exact_sum_rounded(self, wp, monkeypatch):
        terms = numeric._psi_terms(wp + numeric.GUARD)
        admitted = [n for n in range(1, 1000) if numeric._cut(n + 1, wp + 32, terms)[0] == 0]
        assert len(admitted) >= 50
        for n in (*admitted[:50], 10**3, 12345, 10**5):
            got = numeric._harmonic_rounded(n, wp)
            assert got._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_, (n, wp)

        # the n below the first admitted is turned away before any enclosure
        def refused(*args):
            raise AssertionError("a digamma enclosure was built")

        monkeypatch.setattr(numeric, "_psi_enclosure", refused)
        n = admitted[0] - 1
        assert numeric._harmonic_rounded(n, wp)._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_

    @pytest.mark.parametrize("n", [40, 160, 320])
    def test_the_enclosure_holds_the_exact_sum(self, n):
        # any number of terms J gives an enclosure; at n = 320 J is the one
        # _harmonic_rounded takes, and at 40 and 160, which _cut shifts,
        # all the terms it may take
        wp = 816
        m, terms = numeric._cut(n + 1, wp + 32, numeric._psi_terms(wp + numeric.GUARD))
        assert (m == 0) == (n == 320)
        # the ends hold psi(n + 1) = H_n - gamma, whatever gamma's last bits
        low, high = (F(*to_rational(end)) for end in numeric._psi_enclosure(n + 1, 0, terms, wp + 32))
        gamma_low, gamma_high = euler_bounds(wp + 256)
        h = F(*exact_harmonic(n))
        assert low < h - gamma_high and h - gamma_low < high
        assert high - low < F(1, 2**300)
        assert numeric._harmonic_rounded(n, wp)._mpf_ == numeric._round_ratio(*exact_harmonic(n), wp)._mpf_

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
        # psi(n + 1) ends that, with gamma added, straddle a midpoint
        attempts = straddle(monkeypatch, want, wp, euler_bounds(wp + 256)[0], 1)
        numeric._harmonic_rounded.cache_clear()
        assert numeric._harmonic_rounded(n, wp)._mpf_ == want._mpf_
        assert attempts == [wp + 32, wp + 64]

    def test_past_the_reach_of_the_series_the_exact_sum_gives_the_value(self, monkeypatch):
        n, prec = 12345, 256
        before = approx_harmonic(n, 4, prec=prec)
        attempts, sums = [], []

        def never_settles(x, m, terms, bits):
            attempts.append(bits)
            return from_int(-1), from_int(1)

        reciprocal_sum = numeric._reciprocal_sum

        def spy(x, m):
            sums.append(m)
            return reciprocal_sum(x, m)

        monkeypatch.setattr(numeric, "_psi_enclosure", never_settles)
        monkeypatch.setattr(numeric, "_reciprocal_sum", spy)
        numeric._harmonic_rounded.cache_clear()
        assert approx_harmonic(n, 4, prec=prec) == before
        wp = prec + numeric.GUARD
        # the extra bits double until _cut needs a shift at n + 1
        assert attempts == [wp + 32 * 2**k for k in range(len(attempts))]
        terms = numeric._psi_terms(wp + numeric.GUARD)
        assert numeric._cut(n + 1, 2 * attempts[-1] - wp, terms)[0] > 0
        assert n in sums

    def test_a_sweep_at_the_limit_sums_no_long_range(self, monkeypatch):
        lengths = []
        reciprocal_sum = numeric._reciprocal_sum

        def spy(x, m):
            lengths.append(m)
            return reciprocal_sum(x, m)

        monkeypatch.setattr(numeric, "_reciprocal_sum", spy)
        # a precision no other test takes, so no cached value hides a sum
        for n in (MAX_APPROX_N * 2**k for k in range(4)):
            assert approx_gamma(n, 4, prec=203).n == n
        # each H_n is read off the enclosure at m = 0, and Euler's constant
        # takes no digamma shift: every sum taken is the empty one
        assert set(lengths) <= {0}

    def test_the_benchmark_session_calls_build_no_interval(self, monkeypatch):
        def refused(*args):
            raise AssertionError("an interval was built")

        # Euler's constant takes no enclosure, and H_40 is turned away by
        # _cut before one is taken
        monkeypatch.setattr(numeric, "_psi_enclosure", refused)
        # the session's shape: n = 40 at 320 bits, t from 1/4, 3/4, 5/4, 7/4
        for t in (F(1, 4), F(3, 4), F(5, 4), F(7, 4)):
            for order in (2, 16):
                approx_gamma(40, order, t=t, prec=320)
                approx_harmonic(40, order, t=t, prec=320)

    def test_the_exact_h_n_is_summed_once_per_n(self, monkeypatch):
        # the session's n = 40 at 320 bits, which _cut turns away: the first
        # order sums H_40 and rounds it, each later one reads it rounded
        sums = []
        reciprocal_sum = numeric._reciprocal_sum

        def spy(x, m):
            sums.append((x, m))
            return reciprocal_sum(x, m)

        monkeypatch.setattr(numeric, "_reciprocal_sum", spy)
        numeric._harmonic_rounded.cache_clear()
        for order in range(2, 17):
            approx_gamma(40, order, prec=320)
        assert sums == [(1, 40)]

    def test_h_n_is_rounded_once_across_orders(self, monkeypatch):
        # and rounded from the floor and ceiling of one exact sum, at the
        # first attempt's bits: no digamma enclosure is taken
        divisions = []
        ratio_ends = numeric._ratio_ends

        def spy(num, den, bits):
            divisions.append(bits)
            return ratio_ends(num, den, bits)

        monkeypatch.setattr(numeric, "_ratio_ends", spy)
        numeric._harmonic_rounded.cache_clear()
        for order in range(2, 17):
            for t in (F(1, 4), F(7, 4)):
                approx_gamma(40, order, t=t, prec=320)
                approx_harmonic(40, order, t=t, prec=320)
        info = numeric._harmonic_rounded.cache_info()
        assert (info.misses, info.hits) == (1, 59)
        assert divisions == [320 + numeric.GUARD + numeric.EXTRA]

    def test_the_rounded_h_n_cache_is_bounded(self):
        bound = numeric._harmonic_rounded.cache_info().maxsize
        assert bound == 16
        for n in range(1, bound + 2):
            approx_harmonic(n, 2, prec=64)
            assert numeric._harmonic_rounded.cache_info().currsize <= bound, n

    def test_a_sweep_of_exact_sums_builds_no_bernoulli_number_past_the_series(self, monkeypatch):
        # at 1536 bits _cut shifts at each n + 1, so every H_n is its exact
        # sum rounded, and Euler's constant is mpmath's: only the point series
        # reads the Bernoulli table, not the float estimate of the cut
        monkeypatch.setattr(bernoulli, "_numbers", [F(1)])
        monkeypatch.setattr(bernoulli, "_polys", [Poly.one()])
        expansions._prefix.cache_clear()
        numeric._harmonic_rounded.cache_clear()
        coefficients("g", 10, 1, F(1, 2))
        size = len(bernoulli._numbers)
        for k in range(4):
            approx_harmonic(16 * 2**k, 10, F(1, 2), 1536)
        assert len(bernoulli._numbers) == size


class TestRoundEnclosed:
    """``psi_ref`` and ``_harmonic_rounded`` read their values through one
    rounding loop over the digamma enclosure."""

    @pytest.mark.parametrize("target", ["psi_ref", "_harmonic_rounded"])
    def test_a_forced_straddle_is_retried_with_doubled_extra_bits(self, target, monkeypatch):
        if target == "psi_ref":
            x, prec = F(7, 3), 256
            numeric._psi_at.cache_clear()
            want, offset = psi_ref(x, prec), F(0)
            numeric._psi_at.cache_clear()
            call = lambda: psi_ref(x, prec)  # noqa: E731
        else:
            n, prec = 12345, 304
            want, offset = numeric._round_ratio(*exact_harmonic(n), prec), euler_bounds(prec + 256)[0]
            numeric._harmonic_rounded.cache_clear()
            call = lambda: numeric._harmonic_rounded(n, prec)  # noqa: E731
        attempts = straddle(monkeypatch, want, prec, offset, 2)
        assert call()._mpf_ == want._mpf_
        assert attempts == [prec + 32, prec + 64, prec + 128]


class TestEulerGamma:
    @pytest.mark.parametrize("prec", [1, 2, 53, 367, 1631, 8191])
    def test_correctly_rounded_without_the_digamma(self, prec, monkeypatch):
        # precisions no other test takes; Euler's constant is mpmath's, and
        # builds neither a digamma enclosure nor a Bernoulli number
        def refused(*args):
            raise AssertionError("a digamma enclosure was built")

        monkeypatch.setattr(bernoulli, "_numbers", [F(1)])
        monkeypatch.setattr(bernoulli, "_polys", [Poly.one()])
        monkeypatch.setattr(numeric, "_psi_enclosure", refused)
        low, high = (correctly_rounded(end, prec) for end in euler_bounds(prec + 256))
        assert low._mpf_ == high._mpf_
        assert euler_gamma(prec)._mpf_ == low._mpf_
        assert len(bernoulli._numbers) == 1

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

    @pytest.mark.parametrize("fixed, kind", [({}, "BiPoly"), ({"p": 1}, "Poly"), ({"t": 1}, "Poly")])
    def test_a_series_with_a_free_variable_is_refused(self, fixed, kind, monkeypatch):
        class Unloaded:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.{name} was read")

        g = coefficients("g", 4, **fixed)
        monkeypatch.setattr(numeric, "mpmath", Unloaded())
        with pytest.raises(TypeError, match=f"got {kind} coefficients"):
            eval_expansion(g, 1, 2)

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

    def test_within_an_ulp_of_the_exact_value(self):
        # x^p S with S = sum_k G_k x^-k summed in Fractions, and x^p from
        # mpmath at twice the precision; at p = 1, x S is rational, and the
        # value is that rational correctly rounded
        rng = random.Random(26)
        for _ in range(200):
            order, n, prec = rng.randint(0, 24), rng.randint(13, 10**6), rng.randint(2, 512)
            p = F(1) if rng.random() < 0.3 else F(rng.randint(-20, 20), rng.randint(1, 6))
            t = F(rng.randint(-12, 12), rng.randint(1, 8))
            x = n + 1 - t
            g = coefficients("g", order, p, t)
            got = eval_expansion(g, p, x, prec)
            s = sum(c / x**k for k, c in enumerate(g.coeffs))
            if p == 1:
                assert got._mpf_ == correctly_rounded(x * s, prec)._mpf_, (order, n, t, prec)
            with mp.workprec(2 * prec + 64):
                xp = mpmath.power(correctly_rounded(x, mp.prec), correctly_rounded(p, mp.prec))
                exact = xp * correctly_rounded(s, mp.prec)
                ulp = mpf(2) ** (mpmath.frexp(got)[1] - prec)
                assert abs(got - exact) <= ulp, (order, n, p, t, prec)

    def test_the_sum_is_carried_over_one_common_denominator(self, monkeypatch):
        # at the order ceiling and a sweep's largest x, the pair rounded at
        # p = 1 stays over D a^73 (times b): multiplying in every
        # coefficient's denominator would give about 17,700 bits
        g = coefficients("g", 72, 1, F(5, 4))
        x = 8 * 10**9 - F(1, 4)
        pairs = []
        round_ratio = numeric._round_ratio

        def capture(num, den, prec):
            pairs.append((num, den))
            return round_ratio(num, den, prec)

        monkeypatch.setattr(numeric, "_round_ratio", capture)
        got = eval_expansion(g, 1, x, 256)
        (num, den), = pairs
        D = math.lcm(*(c.denominator for c in g.coeffs))
        assert den.bit_length() <= D.bit_length() + 73 * x.numerator.bit_length() + 1
        assert F(num, den) == x * sum(c / x**k for k, c in enumerate(g.coeffs))
        assert got._mpf_ == correctly_rounded(F(num, den), 256)._mpf_

    def test_a_huge_power_is_not_taken_exactly(self):
        # x^p at p = x = 10^9 would be an integer of about 3.7 GB; in a child
        # with its address space capped, the evaluation must return quickly
        code = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from exppsi.expansions import coefficients
from exppsi.numeric import eval_expansion
g = coefficients("g", 8, 10**9, 1)
start = time.perf_counter()
eval_expansion(g, 10**9, 10**9, 256)
print(time.perf_counter() - start)
"""
        path = os.pathsep.join(str(Path(m.__file__).parents[1]) for m in (numeric, mpmath))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.5


class TestApproximations:
    def test_a_result_is_an_immutable_value(self):
        result = approx_gamma(10, 4)
        assert result == approx_gamma(10, 4) != approx_gamma(10, 3)
        n, order, value, error = result
        assert (n, order, value, error) == (10, 4, result.value, result.abs_error)
        for attr in ("value", "extra"):
            with pytest.raises(AttributeError):
                setattr(result, attr, mpf(0))

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

    def test_a_negative_expansion_has_no_log(self):
        # at x = 3/2 the order-28 expansion of exp(psi(x + 1/2)) is negative
        for approx in (approx_gamma, approx_harmonic):
            with pytest.raises(ValueError) as excinfo:
                approx(1, 28, t=F(1, 2))
            assert str(excinfo.value) == "the expansion of order 28 is negative at x = n + 1 - t = 3/2, so it has no log"

    def test_no_bivariate_series_is_built(self):
        # the approximants read the point series G_n(p, t); the cache of
        # bivariate G_n stays as it starts
        expansions._prefix.cache_clear()
        approx_gamma(20, 6)
        approx_harmonic(20, 6, t=F(1, 2))
        approx_exp_psi(20, 6, p=F(2, 3), t=F(5, 4))
        assert len(expansions._prefix("log", None, None)[0]) == 1

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

    def test_distinct_sizes_are_told_apart_on_n(self):
        # the logs of 10^20 and 10^20 + 1 round to one double, but to two
        # mpfs at 200 bits; at 53 bits they are one mpf, and no slope exists
        points = [(10**20, mpf(1)), (10**20 + 1, mpf(2))]
        with mp.workprec(200):
            assert convergence_order(points) < -(10**19)
        with mp.workprec(53), pytest.raises(ValueError, match="too close to tell apart at 53 bits"):
            convergence_order(points)

    def test_a_slope_past_the_double_range_is_read_exactly(self):
        # sizes 10^400 and 10^400 + 1 with errors 1 and 2 fit the slope
        # log 2 / log(1 + 10^-400), about 0.69 * 10^400, which no double holds
        n = 10**400
        with mp.workprec(2000):
            q = convergence_order([(n, mpf(1)), (n + 1, mpf(2))])
            assert abs(mpf(q.numerator) / q.denominator / n + mpmath.log(2)) < mpf(10) ** -100


class TestFit:
    # at 64 bits the floor of a value of magnitude 8 is 2^8 * 8 * 2^-(64+48)
    FLOOR = mpf(2) ** -101

    def samples(self, *errors):
        return [ApproxResult(10 * 2**k, 4, mpf(8 * (-1) ** k), err) for k, err in enumerate(errors)]

    def test_an_error_at_the_floor_is_left_out(self):
        errors = [mpf(10) ** -4, mpf(20) ** -4, mpf(40) ** -4]
        want = convergence_order([(r.n, r.abs_error) for r in self.samples(*errors)])
        assert _fit(self.samples(*errors, self.FLOOR), 64) == want
        assert _fit(self.samples(*errors, self.FLOOR), 64) != _fit(self.samples(*errors, self.FLOOR * 2), 64)

    def test_an_error_just_above_the_floor_is_kept(self):
        samples = self.samples(mpf(10) ** -4, self.FLOOR * (1 + mpf(2) ** -50))
        assert _fit(samples, 64) == convergence_order([(r.n, r.abs_error) for r in samples])

    def test_fewer_than_two_measurable_samples_fit_none(self):
        assert _fit([], 64) is None
        assert _fit(self.samples(mpf(10) ** -4), 64) is None
        assert _fit(self.samples(mpf(10) ** -4, self.FLOOR, mpf(0)), 64) is None


class TestRendering:
    def test_format_is_deterministic(self):
        a = format_mpf(euler_gamma(256), 256)
        b = format_mpf(euler_gamma(256), 256)
        assert a == b
