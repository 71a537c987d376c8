"""End-to-end tests for the command-line interface."""

import importlib
import json
import shutil
import subprocess
import sys
from importlib import resources

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from exppsi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    text = resources.files("exppsi").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def validate(doc: dict, schema_name: str) -> None:
    poly = load_schema("polynomial.json")
    registry = Registry().with_resources(
        [(poly["$id"], Resource.from_contents(poly))]
    )
    Draft202012Validator(load_schema(schema_name), registry=registry).validate(doc)


class TestCoeffs:
    def test_text_output_for_log_series(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "s", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["S_0 = 1", "S_1 = t - 1/2", "S_2 = 1/24"]

    def test_csv_fully_specialized(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "g", "--n", "4", "--p", "2", "--t", "0", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[-1] == "4,-1/90"

    def test_csv_symbolic_layout(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "g", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p_pow,t_pow,num,den"
        assert lines[1] == "0,0,0,1,1"

    def test_json_validates_against_schema(self, capsys):
        for argv in (
            ["coeffs", "g", "--n", "3", "--format", "json"],
            ["coeffs", "g", "--n", "3", "--p", "2", "--t", "0", "--format", "json"],
            ["coeffs", "s", "--n", "3", "--format", "json"],
            ["coeffs", "g", "--n", "3", "--t", "1/2", "--format", "json"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            validate(json.loads(out), "coeffs_output.json")

    def test_specialized_at_t_is_a_polynomial_in_p(self, capsys):
        argv = ["coeffs", "g", "--n", "3", "--t", "3/4"]
        code, out, _ = run_cli(capsys, *argv, "--format", "latex")
        assert code == 0
        assert out.splitlines()[2] == "G_{1} &= \\frac{1}{4} p,\\\\"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "coeffs_output.json")
        assert doc["coeffs"][1]["poly"]["terms"] == [{"den": "4", "num": "1", "p": 1, "t": 0}]

    def test_latex_block(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "s", "--n", "1", "--format", "latex")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "\\begin{align*}"
        assert lines[1] == "S_{0} &= 1,\\\\"
        assert lines[2] == "S_{1} &= t - \\frac{1}{2}"
        assert lines[-1] == "\\end{align*}"

    def test_exponent_option_is_rejected_for_log_series(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "s", "--n", "2", "--p", "3")
        assert code == 2
        assert "exponential family" in err

    def test_malformed_rational_is_a_usage_error(self, capsys):
        for argv, opt in (
            (["coeffs", "g", "--n", "2", "--p", "1.5"], "--p"),
            (["coeffs", "g", "--n", "3", "--t", "1/0"], "--t"),
            (["approx", "gamma", "--n", "3", "--t", "1/0"], "--t"),
            (["approx", "exp-psi", "--n", "3", "--p=-2/00"], "--p"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert f"argument {opt}:" in capsys.readouterr().err

    def test_negative_rational_as_its_own_word(self, capsys, monkeypatch):
        for head, opt, value in (
            (("coeffs", "g", "--n", "7"), "--t", "-3/4"),
            (("approx", "exp-psi", "--n", "10"), "--p", "-1/2"),
        ):
            split = (*head, opt, value)
            code, want, _ = run_cli(capsys, *head, f"{opt}={value}")
            assert code == 0
            assert run_cli(capsys, *split) == (0, want, "")
            monkeypatch.setattr(sys, "argv", ["exppsi", *split])
            assert main() == 0
            assert capsys.readouterr().out == want
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "g", "--n", "2", "--t", "-0.5"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "reflection", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS reflection")
        assert lines[-1] == "1/1 checks passed"

    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_route_agreement_reaches_the_requested_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "routes", "--max-n", "18")
        assert code == 0
        assert out.splitlines() == ["PASS route-agreement [n_max=18]", "1/1 checks passed"]

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "half", "--max-n", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "verify_report.json")
        assert doc["failures"] == 0


class TestErrata:
    def test_text_has_documented_corrections(self, capsys):
        code, out, _ = run_cli(capsys, "errata")
        assert code == 0
        assert out.count("* ") >= 13
        assert "4/455" in out and "4/45" in out

    def test_output_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "errata", "--format", "markdown")
        _, second, _ = run_cli(capsys, "errata", "--format", "markdown")
        assert first == second

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(capsys, "errata", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "errata.json")
        assert len(doc["entries"]) >= 13

    def test_csv_and_latex_render(self, capsys):
        code, out, _ = run_cli(capsys, "errata", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "location,printed,computed,note"
        code, out, _ = run_cli(capsys, "errata", "--format", "latex")
        assert code == 0
        assert "\\begin{tabular}" in out


class TestApprox:
    def test_order_zero_exponential(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "exp-psi", "--n", "10", "--order", "0", "--t", "1"
        )
        assert code == 0
        assert "n=10 order=0 value=10.0 " in out

    def test_sweep_reports_fitted_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "gamma", "--n", "16", "--order", "3", "--sweep"
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("fitted order: ")
        fitted = float(out.splitlines()[-1].split(": ")[1])
        assert abs(fitted - 4.0) < 0.2

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "harmonic", "--n", "10", "--order", "4", "--sweep",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "approx_output.json")
        assert len(doc["samples"]) == 4
        assert doc["p"] is None

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "harmonic", "--n", "10", "--order", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,order,value,abs_error,est_order"


@pytest.mark.skipif(shutil.which("exppsi") is None, reason="entry point not installed")
def test_console_script_matches_module_invocation():
    script = subprocess.run(
        ["exppsi", "errata", "--format", "json"], capture_output=True, text=True
    )
    module = subprocess.run(
        [sys.executable, "-m", "exppsi.cli", "errata", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


def test_every_exported_name_resolves():
    # perfbench/spans.py wraps the functions it finds by these names
    import exppsi

    modules = [exppsi] + [
        importlib.import_module(f"exppsi.{name}")
        for name in ("algebra", "bernoulli", "expansions", "identities", "numeric", "cli")
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
