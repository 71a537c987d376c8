"""Property-based tests for the polynomial ring operations."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exppsi.algebra import BiPoly, Poly, json_canonical

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)

polys = st.lists(rationals, min_size=0, max_size=6).map(
    lambda cs: Poly(tuple(cs))
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
@given(polys, rationals, rationals, rationals)
def test_affine_composition_matches_pointwise(a, u, v, x):
    assert a.compose_affine(u, v).eval(x) == a.eval(u + v * x)


@settings(max_examples=60, deadline=None)
@given(bipolys(), bipolys(), rationals, rationals)
def test_bipoly_evaluation_is_a_ring_homomorphism(a, b, p0, t0):
    assert (a * b).eval(p0, t0) == a.eval(p0, t0) * b.eval(p0, t0)
    assert (a + b).eval(p0, t0) == a.eval(p0, t0) + b.eval(p0, t0)
    assert (a - b).eval(p0, t0) == a.eval(p0, t0) - b.eval(p0, t0)


@settings(max_examples=60, deadline=None)
@given(bipolys(), rationals, rationals)
def test_partial_then_full_evaluation_commute(a, p0, t0):
    assert a.eval_t(t0).eval(p0, 0) == a.eval(p0, t0)
    assert a.eval_p(p0).eval(0, t0) == a.eval(p0, t0)


@settings(max_examples=60, deadline=None)
@given(bipolys(), rationals, rationals)
def test_shift_agrees_with_translated_evaluation(a, s, t0):
    assert a.shift_t(s).eval_t(t0) == a.eval_t(s + t0)


@settings(max_examples=80, deadline=None)
@given(bipolys())
def test_serialization_round_trip_is_byte_identical(a):
    d = a.to_json_dict()
    text = json_canonical(d)
    again = BiPoly.from_json_dict(d)
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


def reference_poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out))


def reference_bipoly_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    out = {}
    for (i1, j1), x in a.terms.items():
        for (i2, j2), y in b.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + x * y
    return BiPoly(out)


def reference_substitute(a: BiPoly, var: int, x: Fraction) -> BiPoly:
    out = {}
    for key, c in a.terms.items():
        rest = (key[0], 0) if var == 1 else (0, key[1])
        out[rest] = out.get(rest, Fraction(0)) + c * x ** key[var]
    return BiPoly(out)


@settings(max_examples=100, deadline=None)
@given(wide_polys, wide_polys, points)
@example(Poly.zero(), Poly.one(), Fraction(0))
@example(Poly((Fraction(1, 999983), Fraction(-1, 999979))), Poly.zero(), Fraction(-3, 7))
def test_poly_kernel_matches_fraction_reference(a, b, x):
    product = a * b
    assert product == reference_poly_mul(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)
    assert a.eval(x) == sum((c * x**k for k, c in enumerate(a.coeffs)), Fraction(0))
    assert type(a.eval(x)) is Fraction


@settings(max_examples=100, deadline=None)
@given(wide_bipolys(), wide_bipolys(), points, points)
@example(BiPoly.zero(), BiPoly.one(), Fraction(0), Fraction(-5, 3))
@example(BiPoly({(3, 2): Fraction(1, 999983)}), BiPoly.zero(), Fraction(0), Fraction(0))
def test_bipoly_kernel_matches_fraction_reference(a, b, p0, t0):
    product = a * b
    assert product.terms == reference_bipoly_mul(a, b).terms
    assert a.eval_t(t0).terms == reference_substitute(a, 1, t0).terms
    assert a.eval_p(p0).terms == reference_substitute(a, 0, p0).terms
    expected = sum((c * p0**i * t0**j for (i, j), c in a.terms.items()), Fraction(0))
    assert a.eval(p0, t0) == expected
    for value in (product, a.eval_t(t0), a.eval_p(p0)):
        assert all(type(c) is Fraction and c != 0 for c in value.terms.values())
