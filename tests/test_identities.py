"""Tests for the theorem checks, the product identity, and the errata gate."""

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

from exppsi import expansions, identities
from exppsi.algebra import BiPoly, Poly, json_canonical
from exppsi.expansions import Series, g_via_bernoulli
from exppsi.identities import (
    CheckReport,
    ErrataEntry,
    bernoulli_identity,
    bernoulli_identity_terms,
    check_appell,
    check_degree_collapse,
    check_even_p_vanishing,
    check_half_argument,
    check_reflection,
    check_route_agreement,
    compare_reference_tables,
    errata_report,
)
from exppsi.identities import _printed_value, _reference_doc

F = Fraction


def corrupted_series(n_max: int) -> Series:
    """A copy of the canonical series with one coefficient perturbed."""
    g = g_via_bernoulli(n_max)
    coeffs = list(g.coeffs)
    coeffs[2] = coeffs[2] + BiPoly.var_p() * BiPoly.var_t() * F(1, 7)
    return Series(tuple(coeffs))


def plant(monkeypatch, name: str, n: int, change) -> None:
    """Patch the series function ``name`` that identities imports, so that
    term n of every series it returns is ``change`` of the true term."""
    route = getattr(expansions, name)

    def planted(*args, **kwargs):
        coeffs = list(route(*args, **kwargs))
        coeffs[n] = change(coeffs[n])
        return Series(coeffs)

    monkeypatch.setattr(identities, name, planted)


def given(monkeypatch, g: Series) -> None:
    """Patch the ``g_via_bernoulli`` that identities imports, so that the
    checks read the first n+1 terms of ``g`` at order n."""
    monkeypatch.setattr(identities, "g_via_bernoulli", lambda n: Series(g[: n + 1]))


def binomial_rule_reports(n_max: int, g: Series) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The shift, derivative and coefficient-table reports read off the
    rules themselves, as a reference for ``check_appell``: C(p-n+k, k) is
    built for k = 1..max(n, t-degree of G_n), each from the last, and
    compared against d^k G_n/dt^k / k! and [t^k] G_n, 0 past k = n."""
    g = Series(g.coeffs[: n_max + 1])
    shift = derivative = table = None
    for n, coeff in enumerate(g.coeffs):
        if n and derivative is None:
            residual = coeff.derivative_t() - (BiPoly.var_p() + BiPoly.constant(1 - n)) * g[n - 1]
            if not residual.is_zero:
                derivative = CheckReport.failed("derivative-relation", residual, n=n)
        binom, taylor = Poly.one("p"), coeff
        for k in range(1, max(n, max((j for _, j in coeff.terms), default=0)) + 1):
            binom = binom * Poly((k - n, 1), "p") * F(1, k)
            taylor = taylor.derivative_t() * F(1, k)
            rhs = BiPoly.of(binom) * g[n - k] if k <= n else BiPoly.zero()
            if shift is None and taylor != rhs:
                shift = CheckReport.failed("shift-identity", taylor - rhs, n=n, k=k)
            lhs = coeff.coeff_of_t_power(k)
            rhs = binom * g[n - k].coeff_of_t_power(0) if k <= n else Poly.zero("p")
            if table is None and lhs != rhs:
                table = CheckReport.failed("coefficient-table", lhs - rhs, n=n, k=k)
    return (
        shift or CheckReport.passed("shift-identity", n_max=n_max),
        derivative or CheckReport.passed("derivative-relation", n_max=n_max),
        table or CheckReport.passed("coefficient-table", n_max=n_max),
    )


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
        assert report.status == "fail" and report.to_json_dict()["status"] == "fail"
        assert CheckReport.failed("demo", Poly.variable("p")).witness == BiPoly.var_p()
        assert CheckReport.failed("demo", Poly.variable()).witness == BiPoly.var_t()


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
            assert check_degree_collapse(p).ok

    @pytest.mark.parametrize("bad", [F(5, 2), 4.0, F(4), "4"])
    def test_powers_must_be_integers(self, bad):
        # both theorems are for integer powers; p = 5/2 used to give a FAIL
        # report with the bound -1/2
        with pytest.raises(TypeError):
            check_even_p_vanishing(bad)
        with pytest.raises(TypeError):
            check_degree_collapse(bad)

    @pytest.mark.parametrize(
        "check",
        [
            pytest.param(check_reflection, id="check_reflection"),
            pytest.param(check_half_argument, id="check_half_argument"),
            # the three Appell families are the reports of one check_appell pass
            pytest.param(lambda n: check_appell(n)[0], id="check_shift_identity"),
            pytest.param(lambda n: check_appell(n)[1], id="check_derivative_relation"),
            pytest.param(lambda n: check_appell(n)[2], id="check_coefficient_table"),
        ],
    )
    def test_a_given_series_must_reach_the_order_checked(self, check):
        # each check reads g_via_bernoulli(n_max), which has no order below 0
        with pytest.raises(ValueError, match="must be >= 0"):
            check(-3)

    def test_reflection(self):
        assert check_reflection(12).ok

    def test_half_argument(self):
        assert check_half_argument(12).ok

    def test_derivative_relation(self):
        assert check_appell(10)[1].ok

    def test_coefficient_table(self):
        assert check_appell(10)[2].ok

    def test_route_agreement(self):
        assert check_route_agreement(8).ok

    def test_corrupted_series_is_caught_with_witness(self, monkeypatch):
        given(monkeypatch, corrupted_series(8))
        _, derivative, table = check_appell(8)
        for report in (check_reflection(8), derivative, table, check_half_argument(8)):
            assert not report.ok, report.check_name
            assert report.witness is not None
            assert not report.witness.is_zero
            if report.check_name in ("coefficient-table", "half-argument"):
                # residuals of polynomials in p carry only p exponents
                assert all(j == 0 for _, j in report.witness.terms), report.check_name

    def test_binomial_rule_checks_report_the_first_failure(self, monkeypatch):
        # G_2 carries an extra p*t/7: the t^1 coefficient of G_2, and so
        # dG_2/dt against C(p-1, 1) G_1, is off by p/7
        given(monkeypatch, corrupted_series(8))
        shift, _, table = check_appell(8)
        assert json_canonical(table.to_json_dict()) == (
            '{"check":"coefficient-table","parameters":{"k":1,"n":2},"status":"fail",'
            '"witness":{"terms":[{"den":"7","num":"1","p":1,"t":0}],"var_order":["p","t"]}}'
        )
        assert json_canonical(shift.to_json_dict()) == (
            '{"check":"shift-identity","parameters":{"k":1,"n":2},"status":"fail",'
            '"witness":{"terms":[{"den":"7","num":"1","p":1,"t":0}],"var_order":["p","t"]}}'
        )

    def test_shift_check_sees_an_error_that_vanishes_at_sampled_points(self, monkeypatch):
        # G_10 given an extra p*delta(t), delta vanishing at each s and s+t of
        # 20 rational draws (s, t): the shift rule still holds at every draw
        rng = random.Random(20260815)
        points = set()
        for _ in range(20):
            s = F(rng.randint(-9, 9), rng.randint(1, 9))
            t = F(rng.randint(-9, 9), rng.randint(1, 9))
            points |= {s, s + t}
        assert len(points) == 37
        delta = Poly.one()
        for x in points:
            delta = delta * Poly((-x, 1))
        coeffs = list(g_via_bernoulli(10).coeffs)
        coeffs[10] = coeffs[10] + BiPoly.var_p() * BiPoly.of(delta)
        given(monkeypatch, Series(tuple(coeffs)))
        report, *others = check_appell(10)
        assert not report.ok
        assert report.parameters == {"n": 10, "k": 1}
        assert report.witness == BiPoly.var_p() * BiPoly.of(delta).derivative_t()
        for other in others:
            assert not other.ok, other.check_name

    def test_coefficient_table_sees_a_term_above_t_to_the_n(self, monkeypatch):
        # G_2 given an extra p*t^3/7: a power the table never reached at t^k, k <= n
        coeffs = list(g_via_bernoulli(8).coeffs)
        coeffs[2] = coeffs[2] + BiPoly({(1, 3): F(1, 7)})
        given(monkeypatch, Series(tuple(coeffs)))
        shift, derivative, table = check_appell(8)
        assert json_canonical(table.to_json_dict()) == (
            '{"check":"coefficient-table","parameters":{"k":3,"n":2},"status":"fail",'
            '"witness":{"terms":[{"den":"7","num":"1","p":1,"t":0}],"var_order":["p","t"]}}'
        )
        for report in (check_reflection(8), derivative, shift):
            assert report.status == "fail", report.check_name

    def test_binomial_rule_checks_match_the_rules_read_directly(self, monkeypatch):
        # seeded perturbations: of G_0, above t^n, in p alone, several at once
        rng = random.Random(20261019)
        canonical = g_via_bernoulli(9).coeffs
        seen = defaultdict(set)
        for trial in range(160):
            coeffs = list(canonical)
            for _ in range(rng.choice((1, 1, 2, 3))):
                m = 0 if trial % 8 == 0 else rng.randint(0, 9)
                j = m + rng.randint(1, 3) if trial % 8 == 1 else rng.randint(0, m + 1)
                term = {(rng.randint(0, 3), j): F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 9))}
                coeffs[m] = coeffs[m] + BiPoly(term)
            g = Series(tuple(coeffs))
            given(monkeypatch, g)
            n_max = 0 if trial % 8 == 2 else rng.randint(0, 9)
            got = check_appell(n_max)
            assert [json_canonical(r.to_json_dict()) for r in got] == [
                json_canonical(r.to_json_dict()) for r in binomial_rule_reports(n_max, g)
            ], trial
            for report in got:
                seen[report.check_name].add(tuple(sorted(report.parameters.items())))
        # the draws reach failures at G_0, at k past 1 and past n, and passes
        # at n_max = 0
        table = [dict(params) for params in seen["coefficient-table"]]
        assert {1, 2, 3, 4} <= {params.get("k") for params in table}
        assert any(params["k"] > params["n"] for params in table if "k" in params)
        assert (("k", 1), ("n", 0)) in seen["shift-identity"]
        assert (("n_max", 0),) in seen["coefficient-table"]


    def test_one_pass_builds_each_residual_once(self, monkeypatch):
        # R_n is one derivative in t: 13 for G_0..G_12, not one per family
        route = identities.g_via_bernoulli
        route(12)
        reads, calls = [], []
        derivative_t = BiPoly.derivative_t
        monkeypatch.setattr(BiPoly, "derivative_t", lambda c: calls.append(c) or derivative_t(c))
        monkeypatch.setattr(identities, "g_via_bernoulli", lambda n: reads.append(n) or route(n))
        assert all(report.ok for report in check_appell(12))
        assert (len(calls), reads) == (13, [12])
        # all three fail at the first nonzero R_n, here R_2, and the pass stops
        calls.clear()
        given(monkeypatch, corrupted_series(12))
        assert not any(report.ok for report in check_appell(12))
        assert len(calls) == 3


class TestPlantedDefects:
    """Each failure branch of a check, reached by one planted defect, gives
    the exact report: the name, the parameters and the witness."""

    @pytest.mark.parametrize(
        "route, routes",
        [("g_via_power_transform", "power/bernoulli"), ("g_via_compositions", "compositions/bernoulli")],
    )
    def test_route_agreement_names_the_route_and_the_difference(self, monkeypatch, route, routes):
        plant(monkeypatch, route, 3, lambda c: c + BiPoly.var_p() * BiPoly.var_t() * F(1, 7))
        assert check_route_agreement(6) == CheckReport(
            "route-agreement", {"n": 3, "routes": routes}, BiPoly.var_p() * BiPoly.var_t() * F(1, 7)
        )

    def test_even_power_vanishing_fails_on_a_nonzero_term(self, monkeypatch):
        plant(monkeypatch, "coefficients", 3, lambda c: c + Poly.variable() * F(1, 1000))
        assert check_even_p_vanishing(2) == CheckReport(
            "even-p-vanishing", {"p": 2}, BiPoly.var_t() * F(1, 1000)
        )

    def test_degree_collapse_reports_each_failed_degree(self, monkeypatch):
        # n <= p: G_2 at p = 3 of degree 1, not 2
        plant(monkeypatch, "coefficients", 2, lambda c: Poly.variable())
        assert check_degree_collapse(3) == CheckReport(
            "degree-collapse", {"p": 3, "n": 2, "expected": 2}, BiPoly.var_t()
        )
        # past p: G_5 at p = 3 of degree 3, above n - p - 1 = 1
        cube = Poly((0, 0, 0, F(1, 1000)))
        plant(monkeypatch, "coefficients", 5, lambda c: c + cube)
        want = BiPoly.of(g_via_bernoulli(5)[5].eval_p(3) + cube)
        assert check_degree_collapse(3) == CheckReport(
            "degree-collapse", {"p": 3, "n": 5, "bound": 1}, want
        )
        # even p: G_5 at p = 2 of degree 0 within the bound 2, not exactly 1
        plant(monkeypatch, "coefficients", 5, lambda c: Poly.one())
        assert check_degree_collapse(2) == CheckReport(
            "degree-collapse", {"p": 2, "n": 5, "exact": 1}, BiPoly.one()
        )
        with pytest.raises(ValueError, match="need a positive integer power, got 0"):
            check_degree_collapse(0)

    def test_a_vanishing_coefficient_is_named_in_the_parameters(self, monkeypatch):
        # even p: G_4 at p = 2 must have degree exactly 0, and is zero
        plant(monkeypatch, "coefficients", 4, lambda c: Poly.zero())
        assert check_degree_collapse(2) == CheckReport(
            "degree-collapse", {"p": 2, "n": 4, "exact": 0, "vanishes": True}, BiPoly.zero()
        )
        # n <= p: G_2 at p = 3 must have degree exactly 2, and is zero
        plant(monkeypatch, "coefficients", 2, lambda c: Poly.zero())
        assert check_degree_collapse(3) == CheckReport(
            "degree-collapse", {"p": 3, "n": 2, "expected": 2, "vanishes": True}, BiPoly.zero()
        )
        # at t = 1/2, G_4 must have p-degree 2, and is zero there
        g = list(g_via_bernoulli(6))
        flat = g[:4] + [g[4] - BiPoly.of(g[4].eval_t(F(1, 2)))] + g[5:]
        given(monkeypatch, Series(flat))
        assert check_half_argument(6) == CheckReport(
            "half-argument", {"n": 4, "expected_degree": 2, "vanishes": True}, BiPoly.zero()
        )

    def test_half_argument_reports_an_odd_order_and_a_p_degree(self, monkeypatch):
        g = list(g_via_bernoulli(6))
        odd = g[:3] + [g[3] + BiPoly.var_p() * F(1, 1000)] + g[4:]
        given(monkeypatch, Series(odd))
        assert check_half_argument(6) == CheckReport(
            "half-argument", {"n": 3}, BiPoly.var_p() * F(1, 1000)
        )
        cube = BiPoly.var_p() * BiPoly.var_p() * BiPoly.var_p() * F(1, 1000)
        deep = g[:4] + [g[4] + cube] + g[5:]
        given(monkeypatch, Series(deep))
        assert check_half_argument(6) == CheckReport(
            "half-argument", {"n": 4, "expected_degree": 2}, BiPoly.of(g[4].eval_t(F(1, 2))) + cube
        )

    def test_collected_terms_start_at_index_one(self):
        with pytest.raises(ValueError, match="identity index starts at 1"):
            bernoulli_identity_terms(0)


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
        assert len(results) == len(_reference_doc()["tables"])
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

    def test_printed_terms_are_read_in_the_computed_variable(self):
        def printed(*terms):
            return {"printed": {"terms": [[i, j, c] for i, j, c in terms]}}

        in_t = printed((0, 2, "1"), (0, 1, "-1"))
        in_p = printed((2, 0, "4"))
        mixed = printed((1, 1, "1"))
        assert _printed_value(in_t, Poly.zero()) == Poly((F(0), F(-1), F(1)))
        assert _printed_value(in_p, Poly.zero("p")) == Poly((F(0), F(0), F(4)), "p")
        assert _printed_value(printed(), Poly.zero("p")) == Poly.zero("p")
        assert _printed_value(mixed, BiPoly.zero()) == BiPoly.var_p() * BiPoly.var_t()
        # a term in the variable the computed value does not have
        for entry, var in ((mixed, "t"), (mixed, "p"), (in_p, "t"), (in_t, "p")):
            with pytest.raises(ValueError, match=f"not in {var},"):
                _printed_value(entry, Poly.zero(var))


class TestErrataReport:
    def test_statements_come_first_then_table_rows(self):
        entries = errata_report()
        statements = _reference_doc()["statements"]
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
        with pytest.raises(ValueError):
            ErrataEntry("somewhere", "same", "other")._replace(computed="same")


def test_reports_and_errata_are_immutable_values():
    report = CheckReport.failed("x", Poly([1, 2]), n=3)
    assert report == CheckReport.failed("x", BiPoly.of(Poly([1, 2])), n=3)
    assert report != CheckReport.passed("x", n=3) == CheckReport("x", {"n": 3})
    entry = ErrataEntry("here", "1/2", "1/3")
    assert entry == ErrataEntry(location="here", printed="1/2", computed="1/3", note="")
    assert entry != ErrataEntry("here", "1/2", "1/4")
    assert tuple(entry) == ("here", "1/2", "1/3", "")
    for value, attr in ((report, "witness"), (entry, "note"), (entry, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
