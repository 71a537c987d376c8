"""Property-based tests for the polynomial ring operations."""

import operator
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exppsi.algebra import BiPoly, Poly, _dot, _terms, json_canonical

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)

polys = st.lists(rationals, min_size=0, max_size=6).map(
    lambda cs: Poly(tuple(cs))
)
polys_in_either_variable = st.builds(
    Poly, st.lists(rationals, max_size=6).map(tuple), st.sampled_from(["p", "t"])
)


@st.composite
def bipolys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(min_value=0, max_value=4)),
            draw(st.integers(min_value=0, max_value=4)),
        )
        terms[key] = draw(rationals)
    return BiPoly(terms)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a
    assert (a - a).is_zero


@settings(max_examples=60, deadline=None)
@given(polys, polys, rationals)
def test_poly_evaluation_is_a_ring_homomorphism(a, b, x):
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


@settings(max_examples=60, deadline=None)
@given(polys_in_either_variable)
def test_bipoly_of_round_trips_through_the_variable(a):
    b = BiPoly.of(a)
    assert (b.eval_t(0) if a.var == "p" else b.eval_p(0)) == a
    other = 1 if a.var == "p" else 0  # the exponent of the variable a is not in
    assert all(key[other] == 0 for key in b.terms)


@settings(max_examples=60, deadline=None)
@given(bipolys(), bipolys(), rationals, rationals)
def test_bipoly_evaluation_is_a_ring_homomorphism(a, b, p0, t0):
    assert (a * b).eval(p0, t0) == a.eval(p0, t0) * b.eval(p0, t0)
    assert (a + b).eval(p0, t0) == a.eval(p0, t0) + b.eval(p0, t0)
    assert (a - b).eval(p0, t0) == a.eval(p0, t0) - b.eval(p0, t0)


@settings(max_examples=60, deadline=None)
@given(bipolys(), rationals, rationals)
def test_partial_then_full_evaluation_commute(a, p0, t0):
    assert a.eval_t(t0).eval(p0) == a.eval(p0, t0)
    assert a.eval_p(p0).eval(t0) == a.eval(p0, t0)


@settings(max_examples=80, deadline=None)
@given(bipolys())
def test_serialization_round_trip_is_byte_identical(a):
    d = a.to_json_dict()
    text = json_canonical(d)
    assert d["var_order"] == ["p", "t"]
    again = BiPoly(
        {(item["p"], item["t"]): Fraction(int(item["num"]), int(item["den"])) for item in d["terms"]}
    )
    assert again == a
    assert json_canonical(again.to_json_dict()) == text


# The products and evaluations above all go through one integer kernel, so a
# ring homomorphism check would still pass if both were wrong the same way.
# These compare them with plain term-by-term Fraction arithmetic, over
# denominators large enough that the common denominators grow big.

wide_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6
)
points = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-7, max_value=7).map(Fraction),
    wide_rationals.map(lambda q: -abs(q)),
    wide_rationals,
)
wide_polys = st.lists(wide_rationals, min_size=0, max_size=7).map(lambda cs: Poly(tuple(cs)))


@st.composite
def wide_bipolys(draw):
    keys = st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    return BiPoly(draw(st.dictionaries(keys, wide_rationals, max_size=8)))


def nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def reference_poly_mul(a: Poly, b: Poly) -> tuple:
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_bipoly_mul(a: BiPoly, b: BiPoly) -> dict:
    out = {}
    for (i1, j1), x in a.terms.items():
        for (i2, j2), y in b.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + x * y
    return nonzero(out)


def reference_substitute(a: BiPoly, var: int, x: Fraction) -> dict:
    out = {}
    for key, c in a.terms.items():
        rest = (key[0], 0) if var == 1 else (0, key[1])
        out[rest] = out.get(rest, Fraction(0)) + c * x ** key[var]
    return nonzero(out)


def reference_sum(a: dict, b: dict, sign: int) -> dict:
    return nonzero({k: a.get(k, 0) + sign * b.get(k, 0) for k in a.keys() | b.keys()})


@settings(max_examples=100, deadline=None)
@given(wide_polys, wide_polys, points)
@example(Poly.zero(), Poly.one(), Fraction(0))
@example(Poly((Fraction(1, 999983), Fraction(-1, 999979))), Poly.zero(), Fraction(-3, 7))
def test_poly_kernel_matches_fraction_reference(a, b, x):
    product = a * b
    assert product.coeffs == reference_poly_mul(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)
    assert a.eval(x) == sum((c * x**k for k, c in enumerate(a.coeffs)), Fraction(0))
    assert type(a.eval(x)) is Fraction


@settings(max_examples=100, deadline=None)
@given(wide_bipolys(), wide_bipolys(), points, points)
@example(BiPoly.zero(), BiPoly.one(), Fraction(0), Fraction(-5, 3))
@example(BiPoly({(3, 2): Fraction(1, 999983)}), BiPoly.zero(), Fraction(0), Fraction(0))
def test_bipoly_kernel_matches_fraction_reference(a, b, p0, t0):
    product = a * b
    assert product.terms == reference_bipoly_mul(a, b)
    assert BiPoly.of(a.eval_t(t0)).terms == reference_substitute(a, 1, t0)
    assert BiPoly.of(a.eval_p(p0)).terms == reference_substitute(a, 0, p0)
    expected = sum((c * p0**i * t0**j for (i, j), c in a.terms.items()), Fraction(0))
    assert a.eval(p0, t0) == expected
    assert all(type(c) is Fraction and c != 0 for c in product.terms.values())
    for value in (a.eval_t(t0), a.eval_p(p0)):
        assert all(type(c) is Fraction for c in value.coeffs)


# The stored form is integers over one denominator, kept canonical by each
# operation: den > 0, numerators and den in lowest terms, no trailing zero
# in any row and no trailing empty row. That is what makes == structural.


def assert_canonical(value: Poly | BiPoly) -> None:
    rows = value.rows
    assert type(value.den) is int and value.den > 0
    assert all(type(n) is int for row in rows for n in row)
    assert all(not row or row[-1] for row in rows), "a row ends in zero"
    assert not rows or rows[-1], "the rows end in an empty row"
    assert gcd(value.den, *chain.from_iterable(rows)) == 1
    if isinstance(value, Poly):
        assert all(type(c) is Fraction for c in value.coeffs)


@settings(max_examples=100, deadline=None)
@given(wide_bipolys(), wide_bipolys(), wide_rationals, points, points)
@example(BiPoly.var_t(), BiPoly.var_t(), Fraction(0), Fraction(0), Fraction(0))
@example(BiPoly({(2, 3): Fraction(2, 3)}), BiPoly({(2, 3): Fraction(-2, 3)}), Fraction(3, 2),
         Fraction(1), Fraction(-1))
def test_bipoly_stored_form_is_canonical(a, b, q, p0, t0):
    A, B = dict(a.terms), dict(b.terms)
    cases = [
        (a, A),
        (a + b, reference_sum(A, B, 1)),
        (a - b, reference_sum(A, B, -1)),
        (a * b, reference_bipoly_mul(a, b)),
        (a * q, nonzero({k: c * q for k, c in A.items()})),
        (a.derivative_t(), nonzero({(i, j - 1): j * c for (i, j), c in A.items() if j})),
    ]
    for value, expected in cases:
        assert_canonical(value)
        assert value.terms == expected
    # fixing one variable gives a canonical Poly in the other
    for value, var, expected in (
        (a.eval_t(t0), "p", reference_substitute(a, 1, t0)),
        (a.eval_p(p0), "t", reference_substitute(a, 0, p0)),
    ):
        assert type(value) is Poly and value.var == var
        assert_canonical(value)
        assert BiPoly.of(value).terms == expected


@settings(max_examples=100, deadline=None)
@given(wide_polys, wide_polys, wide_rationals, st.sampled_from(["p", "t"]))
@example(Poly((Fraction(1, 2),)), Poly((Fraction(1, 2),)), Fraction(2), "t")
def test_poly_stored_form_is_canonical(a, b, q, var):
    a, b = Poly(a.coeffs, var), Poly(b.coeffs, var)
    A = {k: c for k, c in enumerate(a.coeffs) if c}
    B = {k: c for k, c in enumerate(b.coeffs) if c}
    cases = [
        (a, A),
        (a + b, reference_sum(A, B, 1)),
        (a - b, reference_sum(A, B, -1)),
        (a * b, dict(enumerate(reference_poly_mul(a, b)))),
        (a * q, {k: c * q for k, c in A.items()}),
        (q * a, {k: c * q for k, c in A.items()}),
        (-a, {k: -c for k, c in A.items()}),
    ]
    for value, expected in cases:
        assert_canonical(value)
        assert value.var == var
        assert {k: c for k, c in enumerate(value.coeffs) if c} == nonzero(expected)
    lifted = BiPoly.of(a)
    assert_canonical(lifted)
    assert lifted.terms == {((k, 0) if var == "p" else (0, k)): c for k, c in A.items()}
    back = lifted.eval_t(0) if var == "p" else lifted.eval_p(0)
    assert_canonical(back)
    assert back == a


# Every product and sum is one call of the kernel, algebra._dot. It is
# checked here against a naive sum of products over maps from exponent pairs
# to Fractions, which reads the values' Fractions and shares no code with it.


def as_terms(value) -> dict:
    """A rational, a Poly or a BiPoly as {(p power, t power): Fraction}, zeros dropped."""
    if isinstance(value, BiPoly):
        return dict(value.terms)
    if isinstance(value, Poly):
        return {((k, 0) if value.var == "p" else (0, k)): c for k, c in enumerate(value.coeffs) if c}
    return nonzero({(0, 0): Fraction(value)})


def reference_dot(xs, ys) -> dict:
    out = {}
    for x, y in zip(xs, ys):
        for (i1, j1), u in as_terms(x).items():
            for (i2, j2), v in as_terms(y).items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + u * v
    return nonzero(out)


# mixed denominators: a few primes and their products, so the lcm of the
# products' denominators differs from each of them
mixed_rationals = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 35, 999983])
)
scalars = st.one_of(st.just(Fraction(0)), st.just(0), mixed_rationals)


@st.composite
def values_of(draw, kind: str):
    """A Poly in p, a Poly in t or a BiPoly, often zero."""
    if kind == "bipoly":
        keys = st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
        return BiPoly(draw(st.dictionaries(keys, mixed_rationals, max_size=6)))
    return Poly(tuple(draw(st.lists(mixed_rationals, max_size=5))), kind)


@st.composite
def dot_operands(draw):
    kind = draw(st.sampled_from(["p", "t", "bipoly"]))
    n = draw(st.integers(min_value=1, max_value=5))
    ys = [draw(values_of(kind)) for _ in range(n)]
    xs = [draw(st.one_of(scalars, values_of(kind))) for _ in range(n)]
    return xs, ys


@settings(max_examples=150, deadline=None)
@given(dot_operands())
@example(([Fraction(1, 6), Poly((Fraction(1, 35),))], [Poly((Fraction(1, 4), 1)), Poly((Fraction(3, 7),))]))
@example(([0, Fraction(0)], [Poly((1, 2), "p"), Poly((3,), "p")]))  # every x a zero rational
@example(([Poly.zero(), Fraction(5, 3)], [Poly((1, 1)), Poly.zero()]))  # every pair has a zero side
@example(([BiPoly.zero()], [BiPoly.zero()]))
@example(([Fraction(1, 2), Fraction(-1, 2)], [BiPoly({(1, 2): Fraction(2, 9)})] * 2))  # cancels to zero
@example(([BiPoly({(0, 1): Fraction(1, 3)}), 7], [BiPoly({(2, 0): Fraction(3, 4)}), BiPoly.var_t()]))
def test_dot_matches_a_naive_sum_of_products(operands):
    xs, ys = operands
    got = _dot(xs, ys)
    assert type(got) is type(ys[0])
    assert got._var == ys[0]._var
    assert_canonical(got)
    assert as_terms(got) == reference_dot(xs, ys)
    if got.is_zero:
        assert got.rows == () and got.den == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scalars, scalars), min_size=1, max_size=6))
@example([(0, Fraction(1, 3)), (Fraction(2, 7), 0)])
def test_dot_of_rationals_is_their_fraction_sum(pairs):
    xs, ys = zip(*pairs)
    got = _dot(xs, ys)
    assert type(got) is Fraction
    assert got == sum((Fraction(x) * y for x, y in pairs), Fraction(0))


# Every printed coefficient is read off the rows by one walk, algebra._terms,
# which builds no Fraction. It must give the Fractions of BiPoly.terms in
# print order: a Poly by falling powers, a BiPoly by ascending exponents.


@settings(max_examples=150, deadline=None)
@given(st.one_of(scalars, values_of("p"), values_of("t"), values_of("bipoly")))
@example(0)
@example(Fraction(-7, 3))
@example(Poly.zero("p"))
@example(Poly((Fraction(-1, 2),)))
@example(Poly((0, 0, Fraction(4, 6)), "p"))
@example(BiPoly.zero())
@example(BiPoly.constant(Fraction(9, 4)))
def test_the_term_walk_lists_the_terms_in_print_order(value):
    lifted = BiPoly.of(value) if isinstance(value, (Poly, BiPoly)) else BiPoly.constant(value)
    terms = list(lifted.terms.items())
    if isinstance(value, Poly):
        terms.reverse()
    walked = list(_terms(value))
    assert walked == [(c.numerator, c.denominator, i, j) for (i, j), c in terms]
    assert all(type(x) is int for term in walked for x in term)
    assert lifted.to_json_dict() == {
        "var_order": ["p", "t"],
        "terms": [
            {"p": i, "t": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in lifted.terms.items()
        ],
    }


@settings(max_examples=60, deadline=None)
@given(values_of("p"), values_of("t"), values_of("bipoly"), st.sampled_from(["p", "t"]))
def test_the_operators_keep_their_kind_checks(in_p, in_t, bi, var):
    poly = in_p if var == "p" else in_t
    for op in (operator.add, operator.sub, operator.mul):
        for a, b, error in (
            (in_p, in_t, ValueError), (in_t, in_p, ValueError), (poly, bi, TypeError), (bi, poly, TypeError)
        ):
            with pytest.raises(error):
                op(a, b)
