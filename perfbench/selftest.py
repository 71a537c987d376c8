"""Tests of the benchmark's own output checks.

    python3 perfbench/selftest.py

Run from the repository root. Each check must accept the program's real
output and reject it once one answer in it is perturbed: a wrong
coefficient, a wrong or missing erratum, a failed theorem check, or an mpf
value moved by more than the check's bound.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import unittest
from unittest import mock
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SPOTS = [(Fraction(2, 7), Fraction(5, 3)), (Fraction(9, 4), Fraction(1, 6))]


def cli(*args: str) -> str:
    return subprocess.run([sys.executable, "-m", "exppsi.cli", *args], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def moved(value: str, abs_error: str, times) -> str:
    """``value`` plus ``times`` * ``abs_error``, in full digits."""
    with mpmath.workprec(4000):
        return mpmath.nstr(mpmath.mpf(value) + times * mpmath.mpf(abs_error), 1000)


def coeffs_check(out: str, **kw) -> tuple[int, list[str]]:
    params = dict(kind="g", n=6, p=None, t=None, spots=SPOTS)
    params.update(kw)
    return checks.check_coeffs(out, **params)


class CoeffsChecks(unittest.TestCase):
    def test_each_format_accepted_and_one_wrong_coefficient_rejected(self):
        cases = [
            (dict(fmt="json"), '"den":"24","num":"1"', '"den":"25","num":"1"'),
            (dict(fmt="text"), "1/24", "1/25"),
            (dict(fmt="latex"), "\\frac{1}{24}", "\\frac{1}{25}"),
            (dict(fmt="csv", p=Fraction(5, 3)), ",1,", ",2,"),
            (dict(fmt="json", p=Fraction(5, 3), t=Fraction(3, 4)), '"value":"1"', '"value":"2"'),
            (dict(fmt="text", kind="s"), "1/24", "1/25"),
        ]
        for params, good, bad in cases:
            kind = params.get("kind", "g")
            args = ["coeffs", kind, "--n", "6", "--format", params["fmt"]]
            for name in ("p", "t"):
                if params.get(name) is not None:
                    args += [f"--{name}", str(params[name])]
            out = cli(*args)
            with self.subTest(args=args):
                self.assertEqual(coeffs_check(out, **params), (0, []))
                self.assertIn(good, out)
                failed, errors = coeffs_check(out.replace(good, bad, 1), **params)
                self.assertTrue(errors)

    def test_wrong_order_rejected(self):
        out = cli("coeffs", "g", "--n", "5", "--format", "text")
        self.assertTrue(coeffs_check(out, fmt="text")[1])

    def test_p_named_t_counts_as_failed_call(self):
        t = workloads.MISLABEL_T
        out = cli("coeffs", "g", "--n", "6", "--t", str(t), "--format", "latex")
        self.assertEqual(coeffs_check(out, fmt="latex", t=t), (1, []))
        text = cli("coeffs", "g", "--n", "6", "--t", str(t), "--format", "text")
        self.assertEqual(coeffs_check(text, fmt="text", t=t), (0, []))
        wrong = out.replace("\\frac{1}{4}", "\\frac{1}{5}", 1)
        self.assertNotEqual(wrong, out)
        self.assertTrue(coeffs_check(wrong, fmt="latex", t=t)[1])


class VerifyChecks(unittest.TestCase):
    def test_pass_accepted_fail_or_missing_family_rejected(self):
        for suite, fmt in (("all", "text"), ("half", "json"), ("even-p", "json")):
            out = cli("verify", "--suite", suite, "--max-n", "8", "--format", fmt)
            with self.subTest(suite=suite, fmt=fmt):
                self.assertEqual(checks.check_verify(out, suite=suite, max_n=8, fmt=fmt), (0, []))
                self.assertTrue(checks.check_verify(out, suite=suite, max_n=10, fmt=fmt)[1])
        out = cli("verify", "--suite", "all", "--max-n", "8")
        failed = out.replace("PASS reflection", "FAIL reflection")
        self.assertTrue(checks.check_verify(failed, suite="all", max_n=8, fmt="text")[1])
        lines = [line for line in out.splitlines() if "derivative-relation" not in line]
        lines[-1] = f"{len(lines) - 1}/{len(lines) - 1} checks passed"
        missing = "\n".join(lines) + "\n"
        self.assertTrue(checks.check_verify(missing, suite="all", max_n=8, fmt="text")[1])


class ErrataChecks(unittest.TestCase):
    tables = json.loads((ROOT / "src" / "exppsi" / "reference_tables.json").read_text())

    def check(self, out: str, fmt: str) -> list[str]:
        failed, errors = checks.check_errata(out, fmt=fmt, tables=self.tables)
        self.assertEqual(failed, 0)
        return errors

    def test_formats_accepted(self):
        for fmt in ("text", "json", "markdown"):
            with self.subTest(fmt=fmt):
                self.assertEqual(self.check(cli("errata", "--format", fmt), fmt), [])

    def test_wrong_missing_or_extra_erratum_rejected(self):
        doc = json.loads(cli("errata", "--format", "json"))
        entry = next(e for e in doc["entries"] if e["location"].endswith("order 3 term"))
        entry["computed"] = "1/47"
        self.assertTrue(self.check(json.dumps(doc), "json"))
        doc = json.loads(cli("errata", "--format", "json"))
        doc["entries"].pop()
        self.assertTrue(self.check(json.dumps(doc), "json"))
        confirmed = next(e for e in self.tables["tables"] if e["status"] == "confirmed")
        doc = json.loads(cli("errata", "--format", "json"))
        doc["entries"].append({"location": confirmed["location"], "printed": "1", "computed": "2", "note": ""})
        self.assertTrue(self.check(json.dumps(doc), "json"))
        text = cli("errata")
        self.assertTrue(self.check(text.replace("computed: 1/48", "computed: -1/48"), "text"))


class NumericChecks(unittest.TestCase):
    def test_sweep_accepted_value_or_order_off_rejected(self):
        params = dict(target="exp-psi", n=20, order=6, p=Fraction(5, 3), t=Fraction(3, 4),
                      prec=256, fmt="json")
        out = cli("approx", "exp-psi", "--n", "20", "--order", "6", "--p", "5/3", "--t", "3/4",
                  "--sweep", "--format", "json")
        self.assertEqual(checks.check_approx(out, **params), (0, []))
        for times, rejected in ((0, False), (3, True)):
            doc = json.loads(out)
            sample = doc["samples"][1]
            sample["value"] = moved(sample["value"], sample["abs_error"], times)
            self.assertEqual(bool(checks.check_approx(json.dumps(doc), **params)[1]), rejected)
        doc = json.loads(out)
        doc["fitted_order"] = str(Fraction(doc["fitted_order"]) + 1)
        self.assertTrue(checks.check_approx(json.dumps(doc), **params)[1])
        for fmt in ("text", "csv"):
            out = cli("approx", "gamma", "--n", "40", "--order", "4", "--sweep", "--format", fmt)
            gamma = dict(params, target="gamma", n=40, order=4, p=Fraction(1), t=Fraction(1), fmt=fmt)
            self.assertEqual(checks.check_approx(out, **gamma), (0, []))

    def test_session_accepted_and_perturbed_value_rejected(self):
        calls = [{"target": target, "order": 4, "p": "2/3", "t": "5/4"}
                 for target in ("exp-psi", "gamma", "harmonic")]
        spec = {"n": 30, "prec": 128, "calls": calls}
        out = subprocess.run([sys.executable, str(HERE / "session.py"), json.dumps(spec)],
                             env=ENV, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        params = dict(calls=calls, n=30, prec=128)
        self.assertEqual(checks.check_session(out, **params), (0, []))
        lines = out.splitlines()
        result = json.loads(lines[0])
        result["value"] = moved(result["value"], result["abs_error"], 2)
        bad = "\n".join([json.dumps(result), *lines[1:]]) + "\n"
        self.assertTrue(checks.check_session(bad, **params)[1])
        self.assertEqual(checks.check_session("\n".join(lines[1:]), **params)[0], 3)

    def test_session_wrong_coefficient_with_honest_error_rejected(self):
        """A wrong G_3 moves the value, and exppsi's own abs_error follows it;
        only the comparison with the reference approximant catches that."""
        sys.path.insert(0, str(ROOT / "src"))
        import exppsi
        from exppsi import numeric
        from exppsi.algebra import BiPoly

        import session

        build = numeric._exp_series

        def broken(order):
            g = build(order)
            terms = dict(g.coeffs[3].terms)
            terms[(0, 0)] = terms.get((0, 0), 0) + Fraction(1, 1000)
            return dataclasses.replace(g, coeffs=(*g.coeffs[:3], BiPoly(terms), *g.coeffs[4:]))

        calls = [{"target": target, "order": 4, "p": "2/3", "t": "5/4"}
                 for target in ("exp-psi", "gamma", "harmonic")]
        spec = {"n": 30, "prec": 128, "calls": calls}
        params = dict(calls=calls, n=30, prec=128)
        good = "\n".join(session.result_lines(exppsi, spec))
        self.assertEqual(checks.check_session(good, **params), (0, []))
        with mock.patch.object(numeric, "_exp_series", broken):
            bad = "\n".join(session.result_lines(exppsi, spec))
        failed, errors = checks.check_session(bad, **params)
        self.assertEqual(failed, 0)
        self.assertEqual(len(errors), 3)
        self.assertTrue(all("approximant" in e for e in errors))


class Spans(unittest.TestCase):
    def test_self_time_and_helpers_roll_up(self):
        doc = {"g_terms": 3, "g_max_bits": 5, "spans": [
            ["cli.main", -1, 0.0, 10.0, None],
            ["expansions.g_via_compositions", 0, 1.0, 7.0, None],
            ["expansions.composition_buckets", 1, 2.0, 6.0, None],
            ["algebra.Poly.__mul__", 2, 3.0, 4.0, None],
            ["numeric.to_mpf", 0, 8.0, 9.0, 300],
        ]}
        out = spans.per_layer([doc], stdout_bytes=7, overhead_s=0.5)
        self.assertEqual(out["cli.self_s"], 10.0 - 6.0 - 1.0 + 1.0)
        self.assertEqual(out["expansions.g_compositions_s"], 5.0)
        self.assertEqual(out["algebra.poly_mul_s"], 1.0)
        self.assertEqual(out["algebra.poly_mul_calls"], 1)
        self.assertEqual(out["numeric.max_prec_bits"], 300)
        self.assertEqual(set(out), set(spans.UNITS))

    def test_benchmark_json_lists_every_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, spans.UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
