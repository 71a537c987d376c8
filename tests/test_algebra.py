"""Unit tests for the exact polynomial layer."""

import json
from fractions import Fraction

import pytest

from exppsi.algebra import (
    BiPoly,
    Poly,
    json_canonical,
    parse_rational,
)

F = Fraction


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == F(3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("+4/6") == F(2, 3)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "a/b", "1/", "/2", "", "1 /2", "1/0", "-3/00"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_round_trip(self):
        for text in ["0", "5", "-5", "7/3", "-7/3"]:
            assert str(parse_rational(text)) == text


class TestPoly:
    def test_degree_of_zero_is_none(self):
        assert Poly.zero().degree is None
        assert Poly.zero().is_zero
        assert (Poly.constant(3) - Poly.constant(3)).degree is None

    def test_trailing_zeros_trimmed(self):
        assert Poly((F(1), F(0), F(0))) == Poly.one()
        assert Poly((F(0),)) == Poly.zero()

    def test_arithmetic(self):
        t = Poly.variable()
        q = t * t - t + Poly.constant(F(1, 6))
        assert q[2] == 1 and q[1] == -1 and q[0] == F(1, 6)
        assert q[17] == 0
        assert (q - q).is_zero
        assert q * Poly.zero() == Poly.zero()
        u = t + Poly.constant(1)
        assert u * u == t * t + 2 * t + Poly.one()

    def test_eval_horner(self):
        # t^2 - t + 1/6 at t = 1/2 gives -1/12
        q = Poly((F(1, 6), F(-1), F(1)))
        assert q.eval(F(1, 2)) == F(-1, 12)
        assert q.eval(0) == F(1, 6)
        assert Poly.zero().eval(F(5)) == 0

    def test_compose_affine(self):
        q = Poly((F(0), F(0), F(1)))  # t^2
        r = q.compose_affine(F(1), F(-1))  # (1 - t)^2
        assert r == Poly((F(1), F(-2), F(1)))
        assert r.eval(F(1, 3)) == F(4, 9)

    def test_derivative(self):
        q = Poly((F(5), F(3), F(0), F(2)))  # 2t^3 + 3t + 5
        assert q.derivative() == Poly((F(3), F(0), F(6)))
        assert Poly.constant(9).derivative().is_zero

    def test_scalar_multiplication(self):
        t = Poly.variable()
        assert (t * F(1, 2))[1] == F(1, 2)
        assert (t * 3)[1] == 3

    def test_to_text(self):
        assert Poly.zero().to_text() == "0"
        assert Poly.one().to_text() == "1"
        q = Poly((F(1, 2), F(-1), F(1)))
        assert q.to_text() == "t^2 - t + 1/2"
        assert Poly(q.coeffs, "p").to_text() == "p^2 - p + 1/2"

    def test_operations_keep_the_variable(self):
        p = Poly.variable("p")
        r = p + Poly.one("p")
        q = r * r - p * F(1, 2)
        assert q.var == "p" and q == Poly((F(1), F(3, 2), F(1)), "p")
        assert (-q).var == q.derivative().var == q.compose_affine(1, 2).var == "p"
        assert Poly.zero("p") != Poly.zero()

    def test_variables_do_not_mix(self):
        p, t = Poly.variable("p"), Poly.variable()
        for combine in (lambda: p + t, lambda: p - t, lambda: p * t, lambda: t * p):
            with pytest.raises(ValueError):
                combine()
        with pytest.raises(ValueError):
            Poly.variable("x")


class TestBiPoly:
    def test_canonicalization_drops_zeros(self):
        b = BiPoly({(0, 0): F(0), (1, 2): F(3)})
        assert b.coeff(0, 0) == 0
        assert b.coeff(1, 2) == 3
        assert not b.is_zero
        assert (b - b).is_zero

    def test_equality_and_arithmetic(self):
        p, t = BiPoly.var_p(), BiPoly.var_t()
        left = (p + t) * (p + t)
        right = p * p + p * t * 2 + t * t
        assert left == right
        assert left - right == BiPoly.zero()

    def test_partial_evaluation(self):
        p, t = BiPoly.var_p(), BiPoly.var_t()
        b = p * t + t * t
        at_t2 = b.eval_t(2)
        assert at_t2 == p * 2 + BiPoly.constant(4)
        assert b.eval(3, 2) == 10
        assert b.eval_p(0) == t * t

    def test_as_univariate_guards(self):
        p, t = BiPoly.var_p(), BiPoly.var_t()
        with pytest.raises(ValueError):
            (p * t).as_poly("t")
        with pytest.raises(ValueError):
            (p * t).as_poly("p")
        assert (t * t - t).as_poly("t") == Poly((F(0), F(-1), F(1)))
        assert (p * p * 4).as_poly("p") == Poly((F(0), F(0), F(4)), "p")
        assert BiPoly.zero().as_poly("p") == Poly.zero("p")

    def test_of_places_each_power_under_its_variable(self):
        q = Poly((F(1), F(-2)), "p")
        assert BiPoly.of(q) == BiPoly.one() - BiPoly.var_p() * 2
        assert BiPoly.of(Poly(q.coeffs)) == BiPoly.one() - BiPoly.var_t() * 2
        b = BiPoly.var_p() * BiPoly.var_t()
        assert BiPoly.of(b) is b
        assert b.coeff_of_t_power(1) == Poly.variable("p")

    def test_derivative_in_shift_direction(self):
        t = BiPoly.var_t()
        b = t * t * t
        assert b.derivative_t() == t * t * 3

    def test_json_round_trip_and_sorting(self):
        p, t = BiPoly.var_p(), BiPoly.var_t()
        b = t * F(-1, 3) + p * p + p * t
        d = b.to_json_dict()
        keys = [(item["p"], item["t"]) for item in d["terms"]]
        assert keys == sorted(keys)
        assert json.loads(json_canonical(d)) == d

    def test_json_canonical_is_compact_and_sorted(self):
        text = json_canonical({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'


class TestExpansionContainer:
    def test_order_counts_terms_after_leading(self):
        from exppsi.expansions import Series

        e = Series((F(1), F(0), F(1, 3)))
        assert e.order == 2
        assert len(e) == 3 and e[2] == F(1, 3)
