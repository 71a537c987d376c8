"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import exppsi
from exppsi.cli import MAX_ORDER, MAX_PREC, MAX_VERIFY_N, _build_parser, _errata_latex, main
from exppsi.identities import ErrataEntry, errata_report


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

    def test_malformed_count_names_the_expected_integer(self, capsys):
        for argv, opt, want in (
            (["coeffs", "g", "--n", "abc"], "--n", "expected a nonnegative integer, got abc"),
            (["coeffs", "g", "--n", "-1"], "--n", "expected a nonnegative integer, got -1"),
            (["verify", "--max-n", "x"], "--max-n", "expected a positive integer, got x"),
            (["approx", "gamma", "--n", "3", "--prec", "1.5"], "--prec", "expected a positive integer, got 1.5"),
            (["approx", "gamma", "--n", "3", "--prec", str(MAX_PREC + 1)], "--prec",
             f"precision is limited to {MAX_PREC} bits, got {MAX_PREC + 1}"),
            (["verify", "--max-n", str(MAX_VERIFY_N + 1)], "--max-n",
             f"checks are limited to order {MAX_VERIFY_N}, got {MAX_VERIFY_N + 1}"),
            (["approx", "gamma", "--n", "3", "--order", str(MAX_ORDER + 1)], "--order",
             f"series order is limited to {MAX_ORDER}, got {MAX_ORDER + 1}"),
            (["coeffs", "g", "--n", str(MAX_ORDER + 1)], "--n",
             f"coefficients are limited to order {MAX_ORDER}, got {MAX_ORDER + 1}"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {opt}: {want}")

    def test_order_ceilings_admit_their_value(self):
        # parsed only: neither ceiling is ever run here
        assert MAX_VERIFY_N >= 40 and MAX_ORDER >= 40
        parser = _build_parser()
        assert parser.parse_args(["verify", "--max-n", str(MAX_VERIFY_N)]).max_n == MAX_VERIFY_N
        argv = ["approx", "gamma", "--n", "3", "--order", str(MAX_ORDER)]
        assert parser.parse_args(argv).order == MAX_ORDER
        assert parser.parse_args(["coeffs", "g", "--n", str(MAX_ORDER)]).n == MAX_ORDER

    def test_precision_ceiling_admits_8192_bits(self):
        # parsed only: the ceiling itself is never run here
        assert MAX_PREC >= 8192
        args = _build_parser().parse_args(["approx", "gamma", "--n", "3", "--prec", str(MAX_PREC)])
        assert args.prec == MAX_PREC

    def test_nonpositive_point_is_a_usage_error(self, capsys):
        for argv, want in (
            (["approx", "gamma", "--n", "1", "--t", "2", "--order", "28"], "n + 1 - t > 0, got n = 1, t = 2"),
            (["approx", "exp-psi", "--n", "5", "--t", "-6"], "n + t > 0, got n = 5, t = -6"),
        ):
            assert run_cli(capsys, *argv) == (2, "", f"error: need {want}\n")

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

    def test_renderings_cover_all_entries(self, capsys):
        entries = errata_report()
        code, text, _ = run_cli(capsys, "errata")
        assert code == 0
        code, md, _ = run_cli(capsys, "errata", "--format", "markdown")
        assert code == 0
        assert sum(line.startswith("* ") for line in text.splitlines()) == len(entries)
        for e in entries:
            assert f"* {e.location}\n    printed:  {e.printed}\n    computed: {e.computed}\n" in text
            assert e.location in md
        assert md.splitlines()[0] == "| location | printed | computed | note |"
        assert len(md.splitlines()) == len(entries) + 2

    def test_latex_escapes_each_special_character_once(self):
        lines = _errata_latex([ErrataEntry("a\\b", "x^2~y", "z_1")]).splitlines()
        assert lines[4] == "a\\textbackslash{}b & \\texttt{x\\^{}2\\~{}y} & \\texttt{z\\_1} \\\\"


class TestApprox:
    def test_order_zero_exponential(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "exp-psi", "--n", "10", "--order", "0", "--t", "1"
        )
        assert code == 0
        assert "n=10 order=0 value=10.0 " in out

    def test_exponent_option_is_rejected_for_gamma_and_harmonic(self, capsys):
        for target in ("gamma", "harmonic"):
            argv = ["approx", target, "--n", "10", "--p", "5"]
            assert run_cli(capsys, *argv) == (2, "", "error: --p applies only to the target exp-psi\n")
        argv = ["approx", "exp-psi", "--n", "10"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--p", "1")

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

    def test_sweep_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "harmonic", "--n", "10", "--order", "2", "--sweep",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["n", "order", "value", "abs_error", "est_order"]
        assert [row[:2] for row in rows[1:5]] == [["10", "2"], ["20", "2"], ["40", "2"], ["80", "2"]]
        assert rows[1][4] == ""
        for row in rows[2:5]:
            assert abs(Fraction(row[4]) - 3) < 1, row
        assert rows[5][0].startswith("# fitted_order")

    def test_sweep_leaves_out_samples_at_the_rounding_floor(self, capsys):
        # at n = 32 the error is 2^-112, the rounding floor of 64 + 48 guard bits
        argv = ["approx", "gamma", "--n", "4", "--order", "30", "--sweep", "--prec", "64"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "approx_output.json")
        assert [s["est_order"] is None for s in doc["samples"]] == [True, False, False, True]
        assert abs(Fraction(doc["fitted_order"]) - 31) < 1
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[3].startswith("n=32 ")
        assert "est_order" not in out.splitlines()[3]


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


def test_closed_pipe_exits_quietly():
    # about 380 kB of CSV, far more than a pipe buffers, so writing blocks
    # until the reader has closed its end
    env = dict(os.environ, PYTHONPATH=str(Path(exppsi.__file__).parents[1]))
    argv = [sys.executable, "-m", "exppsi.cli", "coeffs", "g", "--n", "30", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"n,p_pow,t_pow,num,den\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def run_fresh(code: str) -> list[str]:
    """Stdout lines of ``code`` run in a fresh interpreter without ``site``,
    so no .pth file preloads modules; mpmath stays importable."""
    import mpmath

    path = [str(Path(exppsi.__file__).parents[1]), str(Path(mpmath.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_exact_commands_leave_mpmath_unloaded():
    # loaded after the import, coeffs, errata and verify: mpmath never is;
    # the shift check in verify draws its points with random
    code = """
import contextlib, io, sys
import exppsi.cli
def loaded():
    print(" ".join(m for m in ("mpmath", "random") if m in sys.modules) or "-")
loaded()
for argv in (["coeffs", "g", "--n", "6", "--format", "json"], ["errata"],
             ["verify", "--suite", "all", "--max-n", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert exppsi.cli.main(argv) == 0
    loaded()
"""
    assert run_fresh(code) == ["-", "-", "-", "random"]


def test_float_results_load_mpmath_and_match(capsys):
    argv = ["approx", "gamma", "--n", "10"]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = run_fresh(f"""
import sys
import exppsi.cli
exppsi.cli.main({argv!r})
print("mpmath" in sys.modules)
""")
    assert lines == [*want.splitlines(), "True"]
    result = exppsi.approx_gamma(10, 4)
    lines = run_fresh("""
import sys
import exppsi
result = exppsi.approx_gamma(10, 4)
print("mpmath" in sys.modules)
print(result.value._mpf_, result.abs_error._mpf_)
""")
    assert lines == ["True", f"{result.value._mpf_} {result.abs_error._mpf_}"]


# SHA-256 of the package's exported names, sorted and joined by spaces
EXPORTED_SHA256 = "9e9561f9182e775ca372bb3f2f539f0b44b04ad812d8c9fb0803a41fbe9b32d6"


def test_every_exported_name_resolves():
    # perfbench/spans.py wraps the functions it finds by these names
    modules = [exppsi] + [
        importlib.import_module(f"exppsi.{name}")
        for name in ("algebra", "bernoulli", "expansions", "identities", "numeric", "cli")
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # the package re-exports each name as the object its module defines
    for module in modules[1:-1]:
        for name in module.__all__:
            assert getattr(exppsi, name) is getattr(module, name), name
    assert len(set(exppsi.__all__)) == len(exppsi.__all__)
    digest = hashlib.sha256(" ".join(sorted(exppsi.__all__)).encode()).hexdigest()
    assert digest == EXPORTED_SHA256


# SHA-256 of stdout for a fixed set of commands: the README commands and
# commands shaped like the benchmark's operations. A change to any of these
# outputs must be deliberate; record the new digest and say why.
STDOUT_SHA256 = [
    ("coeffs s --n 6", "10ab994b1496dc4cf869d98dd6b6b7a0e1b19f4dd5e248aacc4ec55f26836d94"),
    ("coeffs g --n 4 --p 2 --t 0 --format csv", "be40cae4d847b58048b64d7858c55ff977a8c5d8a81a05d00d734250fde97973"),
    ("coeffs g --n 8 --t 1/2 --format latex", "af5bea350161a26e117628e125b58f78487dcf199f363aa8d87cfb9dedc23cc1"),
    ("verify --suite all --max-n 12", "0735d16a9500b62631e77262e5aec9ff05f9e2f1e7f88929ee29f1bd3e0a094d"),
    ("verify --suite half --format json", "1ff4aff58f33bde958ff5391679dca524ea2cedd5cd5cb7d5335c5c6e348399b"),
    ("errata", "54c6cccc43dc24c2c24d8afd52c2c148310bc7155b322c7eccb450aa0e4e9a41"),
    ("errata --format markdown", "f6e832cde799951251dbcd0989c961d8cc7695d462b6f69e5c67ed7bc924485f"),
    ("approx gamma --n 32 --order 4 --sweep", "005e4551f1f0e9fa739e5f8fd5fcb3f161bbabd1b335456089e7457c86a4c2bf"),
    ("approx harmonic --n 10 --order 4 --t 1/2", "43bf35f52c8e2510f414bac31de35a6caf2f81c1f65654f5952626721a649794"),
    ("approx exp-psi --n 50 --order 6 --p 3 --prec 512", "ade9f8a1067b02d6d09963810eeddfd54a16a29547670dcd7c5003e777a60970"),
    ("verify --suite routes --max-n 12 --format json", "1bd0fe90be030f7bb1e719e7d37165df82bf61858a04affbee3ffe226e4fb183"),
    ("errata --format csv", "3d6981a9adada0255f77a8f1b1a79aa2b0344eb3f9471b80c2864bf919db2d28"),
    ("errata --format json", "18c24969671087feb73ad98956bc71c6e336d29a4a1ed6d0b907134b402dfbf9"),
    ("coeffs g --n 7 --p=-2/3 --t 5/4 --format json", "06fec486b41111e0f1a8468f20de0159ae0dba0fd7e2b224c26f89781065e9d9"),
    ("approx exp-psi --n 40 --order 16 --sweep --format csv --p 2/3 --t 5/4 --prec 768", "784ce98fc00b072e3615255088a7de7229c2dcb01aeab3d17d086bc954f71a29"),
    ("approx gamma --n 40 --order 8 --sweep --format json --prec 768", "86e0e19f91c15f804e29b97f574b5c98b4ef45109b2af4b4b0a1202b38994434"),
    ("coeffs g --n 7 --t 5/4", "7e4894d2d1644cd8ba132579e7111c5b1a64c8016dc9d4dcab4f1da868b198a6"),
    ("coeffs g --n 7 --t 5/4 --format csv", "3373de37ac65ba7c5c27de849f212e6bc4898265e04bf45207e90882b3785eb0"),
    ("coeffs g --n 7 --t 5/4 --format json", "91a54ef9d447a3d88e87a6cf8682eaab9dd93fe0ae29593816345749cc80513d"),
    ("coeffs g --n 7 --t=-3/4 --format csv", "e02c574ac15789d2220f3f5f99444046c5b779accc90d371453dd0db3e6bf93e"),
    ("errata --format latex", "4c0c43fb99b2bc711e1d7e6c3c97b8a25880c6db44be42cc7cf733f231164c38"),
    ("coeffs s --n 9 --t 5/2 --format csv", "e728b4cb7e228250bdb03dddaa95ccf7730302dec60a2eb5720fcc438733d86c"),
    ("coeffs g --n 7 --p=-2/3 --format latex", "9fb1221052a5b3433844b6d26f7e434da38a083ab1d105f4f0a68e803ee41c36"),
    ("verify --suite all --max-n 5 --format json", "4b88d9f6667967e6a054731f63bca0c1a98af2bfa2d835df08990e96eca3fd5a"),
    ("verify --suite all --max-n 16 --format json", "632ed16c1121f024ddf5eab90d886c2756f0842ceadeeb5e331c3d8d8bfe2602"),
    ("approx harmonic --n 16 --t 1/2 --order 10 --prec 1536 --sweep --format json", "d38a6c4d9cf60035990613e82f61f16024f07f5b7fab42b2f6e1ceafa645d723"),
    ("approx gamma --n 2500 --order 4 --sweep", "ca88529ccee8e5f413fd2fd20a103a82df95e34eb07b057f4bca204d8a2a2ca6"),
]


def test_stdout_matches_recorded_digests(capsys):
    changed = []
    for command, digest in STDOUT_SHA256:
        code, out, _ = run_cli(capsys, *command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(command)
    assert changed == []
