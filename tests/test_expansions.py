"""Tests for the series constructions.

The log-series coefficients are checked against an oracle built here by
formally exponentiating the generating series with plain convolutions,
sharing no code path with the package recurrence.
"""

import json
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exppsi import algebra, expansions
from exppsi.algebra import BiPoly, Poly, _values_at
from exppsi.bernoulli import bernoulli_poly
from exppsi.cli import main
from exppsi.expansions import (
    _power,
    coefficients,
    composition_buckets,
    g_via_bernoulli,
    g_via_compositions,
    g_via_power_transform,
)

F = Fraction

# the fixed (p, t) of the cache tests
P0, T0 = F(2, 3), F(5, 4)


def exp_series_oracle(n_max: int) -> list[Poly]:
    """Formal exp of sum_{k>=1} (-1)^(k+1) B_k(t) x^(-k) / k, truncated."""
    log_part = [Poly.zero()] + [
        bernoulli_poly(k) * F((-1) ** (k + 1), k) for k in range(1, n_max + 1)
    ]

    def convolve(a: list[Poly], b: list[Poly]) -> list[Poly]:
        out = [Poly.zero()] * (n_max + 1)
        for i, ai in enumerate(a):
            if ai.is_zero:
                continue
            for j, bj in enumerate(b):
                if i + j > n_max:
                    break
                out[i + j] = out[i + j] + ai * bj
        return out

    total = [Poly.one()] + [Poly.zero()] * n_max
    power = [Poly.one()] + [Poly.zero()] * n_max
    for r in range(1, n_max + 1):
        power = convolve(power, log_part)
        inv_rfact = F(1, factorial(r))
        for i in range(n_max + 1):
            total[i] = total[i] + power[i] * inv_rfact
    return total


class TestLogSeries:
    def test_first_coefficients(self):
        s = coefficients("s", 4)
        t = Poly.variable()
        assert s[0] == Poly.one()
        assert s[1] == t - Poly((F(1, 2),))
        assert s[2] == Poly((F(1, 24),))
        assert s[3] == t * F(-1, 24) + Poly((F(1, 48),))
        assert s[4] == t * t * F(1, 24) - t * F(1, 24) + Poly((F(23, 5760),))

    def test_matches_exponential_oracle(self):
        oracle = exp_series_oracle(8)
        for n_max in (0, 6, 8):
            s = coefficients("s", n_max)
            assert s.coeffs == tuple(oracle[: n_max + 1]), n_max
            # S_n(t) = G_n(1, t), read off the bivariate series
            assert s.coeffs == tuple(g.eval_p(1) for g in g_via_bernoulli(n_max).coeffs)

    def test_degree_drops_by_two_past_the_linear_term(self):
        s = coefficients("s", 10)
        assert s[0].degree == 0
        assert s[1].degree == 1
        for n in range(2, 11):
            assert s[n].degree == n - 2, n

    def test_half_argument_value(self):
        s = coefficients("s", 8)
        assert s[8].eval(F(1, 2)) == F(-5509121, 1393459200)

    def test_negative_order_rejected(self):
        for build in (
            g_via_bernoulli,
            g_via_power_transform,
            g_via_compositions,
            lambda n: coefficients("s", n),
            lambda n: coefficients("g", n, p=F(2)),
            lambda n: coefficients("g", n, t=F(1, 2)),
            lambda n: coefficients("s", n, t=F(1, 2)),
            lambda n: coefficients("g", n, F(2), F(1, 2)),
            composition_buckets,
        ):
            for n_max in (-1, -3):
                with pytest.raises(ValueError):
                    build(n_max)


def power_at(a, p0) -> tuple:
    """(sum_k a_k x^-k)^p0 for rational a_k with a_0 = 1: the symbolic power,
    then p := p0."""
    return tuple(b.eval(p0, 0) for b in _power([BiPoly.constant(c) for c in a]))


class TestPowerTransform:
    def test_power_one_is_identity(self):
        a = (F(1), F(3), F(-2), F(1, 7))
        assert power_at(a, 1) == a

    def test_power_zero_is_one(self):
        assert power_at((F(1), F(3), F(-2)), 0) == (F(1), F(0), F(0))

    def test_squaring_a_binomial(self):
        # (1 + 1/x)^2 = 1 + 2/x + 1/x^2
        assert power_at((F(1), F(1), F(0), F(0)), 2) == (F(1), F(2), F(1), F(0))

    def test_nested_powers_compose(self):
        a = tuple(F(1, k + 1) for k in range(6))
        assert power_at(power_at(a, 2), 3) == power_at(a, 6)

    def test_rational_power_round_trip(self):
        a = (F(1), F(-1, 3), F(2, 5), F(0), F(1, 2))
        assert power_at(power_at(a, F(1, 2)), 2) == a

    def test_symbolic_exponent(self):
        # (1 + 5y + 7y^2)^p = 1 + 5p y + (7p + 25 C(p,2)) y^2
        #                     + (70 C(p,2) + 125 C(p,3)) y^3 + ...
        a = [BiPoly.constant(c) for c in (1, 5, 7, 0)]
        p = BiPoly.var_p()
        assert _power(a) == [
            BiPoly.one(),
            p * 5,
            p * p * F(25, 2) - p * F(11, 2),
            p * p * p * F(125, 6) - p * p * F(55, 2) + p * F(20, 3),
        ]


class TestExponentialSeries:
    def test_three_routes_agree(self, monkeypatch):
        # from an empty G cache, order 12 extends order 10 and order 10 is a prefix of 12
        for orders in ((8,), (10, 12), (12, 10)):
            monkeypatch.setattr(expansions, "_g", [BiPoly.one()])
            for n_max in orders:
                a = g_via_power_transform(n_max)
                b = g_via_bernoulli(n_max)
                c = g_via_compositions(n_max)
                assert len(a) == len(b) == len(c) == n_max + 1
                for n in range(n_max + 1):
                    assert a[n] == b[n] == c[n], (orders, n)

    def test_first_symbolic_coefficients(self):
        g = g_via_bernoulli(2)
        p, t = BiPoly.var_p(), BiPoly.var_t()
        assert g[0] == BiPoly.one()
        assert g[1] == p * t - p * F(1, 2)
        expected_g2 = (
            p * F(-1, 12)
            + p * t * F(1, 2)
            - p * t * t * F(1, 2)
            + p * p * F(1, 8)
            - p * p * t * F(1, 2)
            + p * p * t * t * F(1, 2)
        )
        assert g[2] == expected_g2

    def test_specialized_columns(self):
        assert coefficients("g", 6, 2, 0).coeffs == (
            F(1), F(-1), F(1, 3), F(0), F(-1, 90), F(-1, 90), F(-1, 567),
        )
        assert coefficients("g", 5, 4, 0).coeffs == (
            F(1), F(-2), F(5, 3), F(-2, 3), F(4, 45), F(0),
        )
        assert coefficients("g", 5, 1, 1).coeffs == (
            F(1), F(1, 2), F(1, 24), F(-1, 48), F(23, 5760), F(17, 3840),
        )

    def test_specialization_matches_single_variable_series(self, capsys):
        g = g_via_bernoulli(6)
        for p0, t0 in ((F(3), F(1, 2)), (F(-2, 3), F(5, 4)), (F(7, 2), F(-3, 4)), (F(-1), F(0))):
            at_p = coefficients("g", 6, p=p0)
            at_t = coefficients("g", 6, t=t0)
            for n in range(7):
                assert g[n].eval_p(p0) == at_p[n], (p0, n)
                assert g[n].eval_t(t0) == at_t[n], (t0, n)
            # the column the CLI prints when both values are given
            assert main(["coeffs", "g", "--n", "6", f"--p={p0}", f"--t={t0}", "--format", "csv"]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert rows == [f"{n},{c.eval(p0, t0)}" for n, c in enumerate(g.coeffs)]

    def test_concurrent_calls_grow_one_consistent_prefix(self, monkeypatch):
        # the bivariate series, S_n, the point series and a series at fixed
        # t, each grown from empty by threads asking for mixed orders
        want_g = g_via_bernoulli(9).coeffs
        want = {
            ("s", None, None): tuple(c.eval_p(1) for c in want_g),
            ("g", P0, T0): tuple(c.eval(P0, T0) for c in want_g),
            ("g", None, T0): tuple(c.eval_t(T0) for c in want_g),
        }
        monkeypatch.setattr(expansions, "_g", [BiPoly.one()])
        expansions._prefix.cache_clear()
        results = []

        def worker(orders):
            for n in orders:
                series = {key: coefficients(key[0], n, *key[1:]).coeffs for key in want}
                results.append((n, g_via_bernoulli(n).coeffs, series))

        plans = [(3, 9), (9, 2), (5, 7, 9), (1, 8), (6,), (9, 9)]
        threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == sum(len(plan) for plan in plans)
        for n, g, series in results:
            assert g == want_g[: n + 1], n
            for key, coeffs in series.items():
                assert coeffs == want[key][: n + 1], (n, key)
        assert len(expansions._g) == 10
        for p, t in ((1, None), (P0, T0), (None, T0)):
            assert len(expansions._prefix(p, t)[0]) == 10, (p, t)

    def test_even_power_column_terminates(self):
        # for p = 2 the coefficient at order p+1 vanishes identically in t
        at_p = coefficients("g", 3, p=F(2))
        assert at_p[3].is_zero

    def test_composition_route_agrees_at_order_24(self):
        c, b = g_via_compositions(24), g_via_bernoulli(24)
        assert len(c) == len(b) == 25
        for n in range(25):
            assert c[n] == b[n], n

    def test_composition_buckets_order_three(self):
        buckets = composition_buckets(3)
        b1, b2, b3 = bernoulli_poly(1), bernoulli_poly(2), bernoulli_poly(3)
        assert sorted(buckets) == [1, 2, 3]
        assert buckets[1] == b3 * F(1, 3)
        assert buckets[2] == b1 * b2  # (1,2) and (2,1) each weigh 1/2
        assert buckets[3] == b1 * b1 * b1
        # reference: an ordered composition of n is a choice of cuts among
        # its n-1 gaps
        for n in range(1, 11):
            want: dict[int, Poly] = {}
            for cuts in product((False, True), repeat=n - 1):
                ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
                term = Poly.one()
                for start, end in zip([0] + ends, ends):
                    term = term * bernoulli_poly(end - start) * F(1, end - start)
                want[len(ends)] = want.get(len(ends), Poly.zero()) + term
            assert composition_buckets(n) == want, n


class TestSerialization:
    def test_json_round_trip(self, capsys):
        # the CLI writes each G_n with BiPoly.to_json_dict; decoded here, the
        # document gives back the canonical series exactly
        g = g_via_bernoulli(4)
        assert main(["coeffs", "g", "--n", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order_max"] == 4
        decoded = []
        for item in doc["coeffs"]:
            poly = item["poly"]
            assert poly["var_order"] == ["p", "t"]
            decoded.append(
                BiPoly({(u["p"], u["t"]): F(int(u["num"]), int(u["den"])) for u in poly["terms"]})
            )
        assert decoded == list(g.coeffs)

    def test_csv_layout(self, capsys):
        assert main(["coeffs", "g", "--n", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,p_pow,t_pow,num,den"
        assert lines[1] == "0,0,0,1,1"
        # G_1 = -p/2 + p t
        assert lines[2:4] == ["1,1,0,-1,2", "1,1,1,1,1"]


class TestPrefixCaches:
    """Each series with p, t or both fixed, and the composition table, is a
    prefix that a higher order extends in place; the keys are bounded."""

    SHAPES = (("g", P0, T0), ("g", P0, None), ("s", None, None), ("g", None, T0), ("s", None, T0))

    def test_growing_orders_run_each_step_once(self, monkeypatch):
        expansions._prefix.cache_clear()
        steps = []
        dot = expansions._dot

        def spy(xs, ys):
            steps.append(len(xs))
            return dot(xs, ys)

        monkeypatch.setattr(expansions, "_dot", spy)
        for order in range(2, 17, 2):
            coefficients("g", order, P0, T0)
        # each built from G_0 would take 2 + 4 + ... + 16 = 72 steps
        assert steps == list(range(1, 17))
        steps.clear()
        coefficients("g", 9, P0, T0)
        assert steps == []

    def test_a_cold_build_equals_the_cached_one(self):
        for order in (3, 7, 12):
            warm = {shape: coefficients(shape[0], order, *shape[1:]) for shape in self.SHAPES}
            rows = [composition_buckets(n) for n in range(order + 1)]
        expansions._prefix.cache_clear()
        expansions._compositions.cache_clear()
        for shape in self.SHAPES:
            assert coefficients(shape[0], 12, *shape[1:]) == warm[shape], shape
        cold = expansions._composition_table(12)
        assert cold == rows and all(a is not b for a, b in zip(cold[1:], rows[1:]))

    def test_the_keys_are_bounded(self):
        bound = expansions._prefix.cache_info().maxsize
        assert bound >= 16
        g = g_via_bernoulli(3)
        for k in range(bound + 1):
            coefficients("g", 3, t=F(k, 7))
            assert expansions._prefix.cache_info().currsize <= bound, k
        # the evicted first key is built again, to the same values
        assert coefficients("g", 3, t=F(0)).coeffs == tuple(c.eval_t(0) for c in g.coeffs)

    def test_the_composition_table_is_built_once(self):
        expansions._compositions.cache_clear()
        # as verify asks: the product identity at orders 3, 5, ..., 13,
        # then the composition route through 12
        rows = [composition_buckets(2 * n + 1) for n in range(1, 7)]
        g_via_compositions(12)
        table = expansions._compositions()
        assert len(table) == 14
        assert all(row is table[2 * n + 1] for n, row in enumerate(rows, 1))

    def test_composition_buckets_are_read_only(self):
        buckets = composition_buckets(4)
        before = dict(buckets)
        with pytest.raises(TypeError):
            buckets[1] = Poly.zero()
        with pytest.raises(TypeError):
            del buckets[2]
        assert composition_buckets(4) == before
        assert g_via_compositions(4) == g_via_bernoulli(4)


COMPOSITION_ORDER = 14


@lru_cache(maxsize=1)
def composition_route() -> tuple[BiPoly, ...]:
    return g_via_compositions(COMPOSITION_ORDER).coeffs


# 0, negative and non-integer rational points
POINTS = (F(0), F(-3), F(-2, 3), F(5, 4), F(7, 2))


class TestCoefficients:
    """``coefficients`` against the canonical series evaluated by hand."""

    def test_every_shape_matches_the_evaluated_series(self):
        n = 7
        g = g_via_bernoulli(n)
        s = tuple(c.eval_p(1) for c in g.coeffs)  # S_n(t) = G_n(1, t)
        assert coefficients("g", n) == g
        assert coefficients("s", n).coeffs == s
        for x in POINTS:
            assert coefficients("s", n, t=x).coeffs == tuple(c.eval(x) for c in s), x
            at_p = tuple(c.eval_p(x) for c in g.coeffs)
            assert coefficients("g", n, p=x).coeffs == at_p, x
            at_t = tuple(c.eval_t(x) for c in g.coeffs)
            assert coefficients("g", n, t=x).coeffs == at_t, x
            for y in POINTS:
                at_both = tuple(c.eval(x, y) for c in g.coeffs)
                assert coefficients("g", n, p=x, t=y).coeffs == at_both, (x, y)
        # the point series runs its own recurrence over the rationals
        n = 24
        g = g_via_bernoulli(n)
        for x in POINTS[2:]:
            at_s = tuple(c.eval(1, x) for c in g.coeffs)
            assert coefficients("s", n, t=x).coeffs == at_s, x
            for y in POINTS[2:]:
                at_both = tuple(c.eval(x, y) for c in g.coeffs)
                assert coefficients("g", n, p=x, t=y).coeffs == at_both, (x, y)

    def test_each_shape_has_its_type(self):
        x = F(-2, 3)
        shapes = {
            ("s", None, None): "t",
            ("s", None, x): Fraction,
            ("g", None, None): BiPoly,
            ("g", x, None): "t",
            ("g", None, x): "p",
            ("g", x, x): Fraction,
        }
        for (kind, p, t), want in shapes.items():
            series = coefficients(kind, 5, p, t)
            assert len(series) == 6
            for c in series.coeffs:
                if isinstance(want, str):
                    assert type(c) is Poly and c.var == want, (kind, p, t)
                else:
                    assert type(c) is want, (kind, p, t)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, COMPOSITION_ORDER),
        st.fractions(max_denominator=50, min_value=-20, max_value=20),
        st.fractions(max_denominator=50, min_value=-20, max_value=20),
    )
    def test_point_series_matches_the_composition_route(self, n_max, p, t):
        # the point series sums integer products over one denominator; the
        # composition route shares no code with it
        expected = tuple(c.eval(p, t) for c in composition_route()[: n_max + 1])
        assert coefficients("g", n_max, p, t).coeffs == expected

    @pytest.mark.parametrize("t", [F(3), F(-2), F(5, 4), F(-7, 3)])
    def test_bernoulli_values_from_one_power_table(self, t, monkeypatch):
        # the values read off one table of powers of t, against each B_k(t)
        # summed by plain Fraction arithmetic
        values = _values_at([bernoulli_poly(k) for k in range(41)], t)
        for k, value in enumerate(values):
            naive = sum((c * t**i for i, c in enumerate(bernoulli_poly(k).coeffs)), F(0))
            assert value == naive == bernoulli_poly(k).eval(t), (k, t)
        # and a series at fixed t builds that table once
        tables = []
        weights = algebra._weights

        def spy(x, top):
            tables.append(top)
            return weights(x, top)

        monkeypatch.setattr(algebra, "_weights", spy)
        expansions._prefix.cache_clear()
        for p in (F(2, 3), None):
            coefficients("g", 40, p, t)
            assert tables == [40], p
            tables.clear()

    def test_log_series_takes_no_power(self):
        for p in (F(1), F(-2, 3)):
            for t in (None, F(1, 2)):
                with pytest.raises(ValueError, match="exponential family"):
                    coefficients("s", 3, p=p, t=t)
        with pytest.raises(ValueError, match="series kind"):
            coefficients("h", 3)
