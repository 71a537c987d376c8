"""Unit tests for the exact polynomial layer."""

import copy
import json
import operator
import pickle
from decimal import Decimal
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
        assert (Poly((F(3),)) - Poly((F(3),))).degree is None

    def test_trailing_zeros_trimmed(self):
        assert Poly((F(1), F(0), F(0))) == Poly.one()
        assert Poly((F(0),)) == Poly.zero()

    def test_arithmetic(self):
        t = Poly.variable()
        q = t * t - t + Poly((F(1, 6),))
        assert q[2] == 1 and q[1] == -1 and q[0] == F(1, 6)
        assert q[17] == 0
        assert (q - q).is_zero
        assert q * Poly.zero() == Poly.zero()
        u = t + Poly((F(1),))
        assert u * u == t * t + 2 * t + Poly.one()

    def test_eval_horner(self):
        # t^2 - t + 1/6 at t = 1/2 gives -1/12
        q = Poly((F(1, 6), F(-1), F(1)))
        assert q.eval(F(1, 2)) == F(-1, 12)
        assert q.eval(0) == F(1, 6)
        assert Poly.zero().eval(F(5)) == 0

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
        assert (-q).var == "p"
        assert Poly.zero("p") != Poly.zero()

    def test_variables_do_not_mix(self):
        p, t = Poly.variable("p"), Poly.variable()
        for combine in (lambda: p + t, lambda: p - t, lambda: p * t, lambda: t * p):
            with pytest.raises(ValueError):
                combine()
        with pytest.raises(ValueError):
            Poly.variable("x")


class TestKinds:
    @pytest.mark.parametrize("poly", [Poly.variable(), Poly.variable("p"), Poly.zero()])
    def test_poly_and_bipoly_do_not_mix(self, poly):
        bi = BiPoly.var_p() + BiPoly.var_t()
        for a, b in ((poly, bi), (bi, poly)):
            for combine in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    combine(a, b)
            assert not a == b and a != b
        assert BiPoly.of(poly) != poly

    def test_equal_polys_hash_equal(self):
        a = Poly((F(1, 2), F(3)), "p")
        b = Poly.variable("p") * 3 + Poly.one("p") * F(1, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Poly(a.coeffs)}) == 2

    def test_equal_bipolys_hash_equal(self):
        c = BiPoly.var_p() * BiPoly.var_t()
        assert hash(c) == hash(BiPoly({(1, 1): 1}))

    def test_pickle_and_copy_keep_the_value_and_its_kind(self):
        for value in (Poly((F(1, 2), F(3)), "p"), Poly.zero(), BiPoly({(1, 2): F(-3, 4)})):
            for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(again) is type(value) and again == value


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
        assert at_t2 == Poly((F(4), F(2)), "p")
        assert b.eval(3, 2) == 10
        assert b.eval_p(0) == Poly((F(0), F(0), F(1)))

    def test_fixing_one_variable_gives_a_poly_in_the_other(self):
        at_t = BiPoly.var_p().eval_t(1)
        assert type(at_t) is Poly and at_t.var == "p"
        assert at_t == Poly.variable("p")
        at_p = BiPoly.var_p().eval_p(1)
        assert type(at_p) is Poly and at_p.var == "t"
        assert at_p == Poly.one()
        assert BiPoly.zero().eval_t(F(1, 2)) == Poly.zero("p")
        assert BiPoly.zero().eval_p(F(1, 2)) == Poly.zero("t")

    def test_of_places_each_power_under_its_variable(self):
        q = Poly((F(1), F(-2)), "p")
        assert BiPoly.of(q) == BiPoly.one() - BiPoly.var_p() * 2
        assert BiPoly.of(Poly(q.coeffs)) == BiPoly.one() - BiPoly.var_t() * 2
        b = BiPoly.var_p() * BiPoly.var_t()
        assert BiPoly.of(b) is b
        assert b.coeff_of_t_power(1) == Poly.variable("p")

    def test_coefficient_of_a_power_of_t_outside_the_rows_is_zero(self):
        p, t = BiPoly.var_p(), BiPoly.var_t()
        b = BiPoly.one() + t * t * 3 + p * t * 5
        assert b.coeff_of_t_power(1) == Poly((F(0), F(5)), "p")
        assert b.coeff_of_t_power(2) == Poly((F(3),), "p")
        for j in (-1, -2, -3, 3):
            assert b.coeff_of_t_power(j) == Poly.zero("p"), j

    def test_one_coefficient_is_read_from_its_cell(self):
        # reading one coefficient builds one Fraction, not every coefficient
        b = BiPoly({(0, 0): F(1, 2), (1, 2): F(-3, 4), (2, 0): F(5, 6)})
        q = Poly((F(1, 2), F(0), F(-3, 4)), "p")
        cells = {(i, j): b.coeff(i, j) for i in range(-1, 4) for j in range(-1, 4)}
        items = [q[k] for k in range(-1, 4)]
        assert {k: c for k, c in cells.items() if c} == b.terms
        assert all(type(c) is Fraction for c in [*cells.values(), *items])
        assert items == [0, F(1, 2), 0, F(-3, 4), 0]
        assert BiPoly.zero().coeff(0, 0) == 0 and Poly.zero()[0] == 0

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


class TestExactCoefficients:
    @pytest.mark.parametrize("bad", [1.5, 0.0, Decimal("0.5"), "1/2"])
    def test_constructors_refuse_a_non_rational_coefficient(self, bad):
        with pytest.raises(TypeError):
            Poly((F(1), bad))
        with pytest.raises(TypeError):
            BiPoly({(1, 2): bad})

    def test_arithmetic_refuses_a_float(self):
        # no float enters a symbolic result, on either side of an operator
        for call in (
            lambda: Poly.one() * 1.5,
            lambda: 1.5 * Poly.one(),
            lambda: Poly.one() + 1.5,
            lambda: BiPoly.var_p() - 0.5,
        ):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("bad", [0.1, 0.0, Decimal("0.5"), "1/2"])
    def test_evaluation_points_refuse_a_non_rational(self, bad):
        # a float point would give a rational with a 2^62-scale denominator
        from exppsi import expansions, numeric

        t = Poly((F(1), F(2)))
        b = BiPoly({(1, 1): F(1, 3), (0, 2): 1})
        point = expansions.coefficients("g", 2, 1, 1)
        calls = [
            lambda: t.eval(bad),
            lambda: b.eval(bad, 1),
            lambda: b.eval(1, bad),
            lambda: b.eval_t(bad),
            lambda: b.eval_p(bad),
            lambda: expansions.coefficients("g", 2, bad, F(1, 5)),
            lambda: expansions.coefficients("g", 2, F(1, 5), bad),
            lambda: expansions.coefficients("g", 0, bad, bad),
            lambda: expansions.coefficients("g", 2, p=bad),
            lambda: expansions.coefficients("g", 2, t=bad),
            lambda: expansions.coefficients("s", 2, t=bad),
            lambda: expansions.coefficients("g", 0, t=bad),
            lambda: numeric.eval_expansion(point, bad, 10),
            lambda: numeric.eval_expansion(point, 1, bad),
            lambda: numeric.psi_ref(bad),
            lambda: numeric.approx_gamma(10, 2, t=bad),
            lambda: numeric.approx_harmonic(10, 2, t=bad),
            lambda: numeric.approx_exp_psi(10, 2, p=bad),
            lambda: numeric.approx_exp_psi(10, 2, t=bad),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="int or Fraction"):
                call()

    @pytest.mark.parametrize("key", [(-1, 0), (0, -2)])
    def test_negative_exponent_is_refused(self, key):
        with pytest.raises(ValueError):
            BiPoly({key: 1})

    def test_terms_are_a_read_only_view(self):
        b = BiPoly({(1, 0): F(1, 2), (0, 3): 2})
        assert b.terms == {(0, 3): F(2), (1, 0): F(1, 2)}
        with pytest.raises(TypeError):
            b.terms[(0, 0)] = F(1)


class TestExpansionContainer:
    def test_order_counts_terms_after_leading(self):
        from exppsi.expansions import Series

        e = Series((F(1), F(0), F(1, 3)))
        assert e.order == 2
        assert len(e) == 3 and e[2] == F(1, 3)

    def test_a_series_is_the_immutable_tuple_of_its_coefficients(self):
        from exppsi.expansions import Series

        coeffs = (F(1), F(0), F(1, 3))
        e = Series(coeffs)
        assert e == Series(list(coeffs)) == coeffs and e != Series(coeffs[:2])
        assert hash(e) == hash(Series(coeffs))
        assert len(e) == 3 and e[-1] == F(1, 3) and e[1:] == coeffs[1:]
        assert type(e.coeffs) is Series and isinstance(e.coeffs, tuple) and e.coeffs == coeffs
        assert repr(e) == "Series((Fraction(1, 1), Fraction(0, 1), Fraction(1, 3)))"
        for attr in ("coeffs", "order", "note"):
            with pytest.raises(AttributeError):
                setattr(e, attr, ())
