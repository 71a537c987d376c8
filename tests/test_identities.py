"""Tests for the theorem checks, the product identity, and the errata gate."""

import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

from exppsi.algebra import BiPoly
from exppsi.expansions import Series, g_via_bernoulli
from exppsi.identities import (
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

F = Fraction


def corrupted_series(n_max: int) -> Series:
    """A copy of the canonical series with one coefficient perturbed."""
    g = g_via_bernoulli(n_max)
    coeffs = list(g.coeffs)
    coeffs[2] = coeffs[2] + BiPoly.var_p() * BiPoly.var_t() * F(1, 7)
    return Series(tuple(coeffs))


def ordered_compositions(m: int) -> list[tuple[int, ...]]:
    """Every ordered composition of m: each subset of the m-1 gaps between
    m unit parts is a set of cut points."""
    out = []
    for cuts in itertools.product((False, True), repeat=m - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        out.append(tuple(parts + [size]))
    return out


class TestCheckReport:
    def test_pass_carries_no_witness(self):
        report = CheckReport.passed("demo", n=3)
        assert report.ok and report.witness is None
        assert report.to_json_dict()["status"] == "pass"

    def test_fail_requires_witness(self):
        witness = BiPoly.var_t()
        report = CheckReport.failed("demo", witness, n=3)
        assert not report.ok and report.witness == witness

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("demo", {}, "pass", BiPoly.var_t())
        with pytest.raises(ValueError):
            CheckReport("demo", {}, "fail", None)


class TestTheoremChecks:
    def test_even_power_vanishing(self):
        for p in (2, 4, 6, 8):
            assert check_even_p_vanishing(p).ok

    def test_even_power_check_rejects_bad_input(self):
        for bad in (1, 3, 0, -2):
            with pytest.raises(ValueError):
                check_even_p_vanishing(bad)

    def test_degree_collapse(self):
        for p in (1, 2, 3, 4, 5):
            assert check_degree_collapse(p, p + 6).ok

    def test_degree_collapse_window_guard(self):
        with pytest.raises(ValueError):
            check_degree_collapse(4, 5)

    def test_reflection(self):
        assert check_reflection(12).ok

    def test_half_argument(self):
        assert check_half_argument(12).ok

    def test_shift_identity_seeded(self):
        report = check_shift_identity(8, trials=5, seed=11)
        assert report.ok
        assert report.parameters["seed"] == 11

    def test_derivative_relation(self):
        assert check_derivative_relation(10).ok

    def test_coefficient_table(self):
        assert check_coefficient_table(10).ok

    def test_route_agreement(self):
        assert check_route_agreement(8).ok

    def test_corrupted_series_is_caught_with_witness(self):
        bad = corrupted_series(8)
        for check in (
            check_reflection,
            check_derivative_relation,
            check_coefficient_table,
        ):
            report = check(8, g=bad)
            assert not report.ok, check.__name__
            assert report.witness is not None
            assert not report.witness.is_zero


class TestProductIdentity:
    def test_vanishes_for_small_indices(self):
        for n in range(1, 5):
            assert bernoulli_identity(n).is_zero, n

    def test_index_guards(self):
        with pytest.raises(ValueError):
            bernoulli_identity(0)
        # composition sums of order 2n+1 = 15..21
        for n in range(7, 11):
            assert bernoulli_identity(n).is_zero, n

    def test_collected_terms_for_first_identity(self):
        terms = {ks: c for c, ks in bernoulli_identity_terms(1)}
        assert terms == {
            (3,): F(-2, 3),
            (1, 2): F(2),
            (1, 1, 1): F(-4, 3),
        }

    def test_raw_terms_aggregate_to_collected(self):
        # one term ((-2n)^r / r!) / (k_1...k_r) per ordered composition of 2n+1
        for n in (1, 2, 3):
            agg = defaultdict(F)
            for comp in ordered_compositions(2 * n + 1):
                c = F((-2 * n) ** len(comp), factorial(len(comp)))
                for k in comp:
                    c /= k
                agg[tuple(sorted(comp))] += c
            assert dict(agg) == {ks: c for c, ks in bernoulli_identity_terms(n)}, n

    def test_raw_term_count_is_power_of_two(self):
        for n in (1, 2, 3):
            comps = ordered_compositions(2 * n + 1)
            assert len(set(comps)) == len(comps) == 2 ** (2 * n), n
            assert all(sum(comp) == 2 * n + 1 and min(comp) >= 1 for comp in comps)

    def test_rendering(self):
        terms = sorted(bernoulli_identity_terms(1), key=lambda item: item[1])
        assert identity_text(terms) == "-4/3*B_1^3 + 2*B_1*B_2 - 2/3*B_3"

    def test_sign_flip_variant_does_not_vanish(self):
        # flipping the sign of the single-factor term breaks the identity
        terms = bernoulli_identity_terms(1)
        from exppsi.bernoulli import bernoulli_poly

        total_at_2 = F(0)
        for c, ks in terms:
            if ks == (3,):
                c = -c
            prod = F(1)
            for k in ks:
                prod *= bernoulli_poly(k).eval(2)
            total_at_2 += c * prod
        assert total_at_2 == 4


class TestReferenceTables:
    def test_every_entry_has_a_live_verdict(self):
        results = compare_reference_tables()
        assert len(results) == len(reference_entries())
        for result in results:
            stored = result["entry"]["status"]
            live = "confirmed" if result["match"] else "erratum"
            assert stored == live, result["entry"]["id"]

    def test_documented_errata_ids(self):
        mismatched = {
            r["entry"]["id"] for r in compare_reference_tables() if not r["match"]
        }
        assert mismatched == {
            "s-poly-6",
            "t0-series-1",
            "t0-series-3",
            "general-g-1",
            "general-g-3",
            "p3-col-3",
            "exp4-4",
        }

    def test_fully_confirmed_families_produce_no_entries(self):
        by_family = defaultdict(list)
        for r in compare_reference_tables():
            by_family[r["entry"]["id"].rsplit("-", 1)[0]].append(r["match"])
        assert all(by_family["p2-col"])
        assert all(by_family["t1-row"])
        assert all(by_family["half-series"])
        assert all(by_family["half-row"])
        assert all(by_family["exp1"])
        assert all(by_family["exp2"])


class TestErrataReport:
    def test_statements_come_first_then_table_rows(self):
        entries = errata_report()
        statements = reference_statements()
        assert len(entries) == len(statements) + 7
        for got, stored in zip(entries, statements):
            assert got.location == stored["location"]

    def test_key_corrections_present(self):
        by_location = {e.location: e for e in errata_report()}
        fourth_order = by_location["exp(4 psi(x)) display, order 4 term"]
        assert fourth_order.printed == "4/455"
        assert fourth_order.computed == "4/45"
        sixth = by_location["log-series polynomial list, S_6"]
        assert "41309/2903040" in sixth.printed
        assert "17/960*t" in sixth.computed
        assert "10099/2903040" in sixth.computed

    def test_entries_differ_and_reject_equal_pairs(self):
        for e in errata_report():
            assert e.printed != e.computed
        with pytest.raises(ValueError):
            ErrataEntry("somewhere", "same", "same")
