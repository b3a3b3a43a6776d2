import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crackqc
from crackqc import bifurcation as bif
from crackqc import checks, cli
from crackqc import effective as eff
from crackqc.cli import _fmt, main
from crackqc.material import ModelKind, force_law, validate

from conftest import DEPENDENCIES, EDGE_TRACES, random_params


class _Tee(io.StringIO):
    """One output stream that also copies what it gets into `mixed`."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


class Runner:
    """Runs the CLI in this process: `invoke(main, args)` returns its exit
    code, stdout, stderr and both interleaved as `output`."""

    def invoke(self, cli, args):
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                               stderr=err.getvalue(), output=mixed.getvalue())


@pytest.fixture
def runner():
    return Runner()


class TestValidate:
    def test_ok(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0
        assert "OK" in result.output
        assert "z0 = -0.08392021690038397" in result.output

    def test_invalid_exits_2(self, runner):
        result = runner.invoke(main, ["validate", "--k1", "-3"])
        assert result.exit_code == 2
        assert "kappa1" in result.output
        # kappa2 = 0 passes `validate` but leaves no crack-region root.
        for command in ("validate", "limits"):
            result = runner.invoke(main, [command, "--k2", "0"])
            assert result.exit_code == 2, command
            assert "invalid parameters [kappa2]" in result.output, command

    @pytest.mark.parametrize("command", [["validate"],
                                         ["coefficients", "--oracle"]])
    def test_vanishing_substrate_exits_2(self, runner, command):
        # At k3 = 1e-300 the bonded w rounds to 2, the double root z = 1,
        # which the root polish used to move to 0.8125.
        result = runner.invoke(main, command + ["--k3", "1e-300"])
        assert result.exit_code == 2
        assert "invalid parameters [marginal]" in result.output

    def test_small_substrate_matches_oracle_or_exits_2(self, runner):
        # Below kappa3 ~ 1e-16 kappa1 the bonded roots round to z = 1; every
        # k3 either passes the 1e-8 oracle gate or is rejected as marginal.
        codes = set()
        for k3 in np.logspace(-18, -12, 25):
            result = runner.invoke(main, ["coefficients", "--oracle",
                                          "--k3", repr(float(k3))])
            codes.add(result.exit_code)
            if result.exit_code != 0:
                assert result.exit_code == 2, k3
                assert "invalid parameters [marginal]" in result.output, k3
        assert codes == {0, 2}

    @pytest.mark.parametrize("command", [["validate"], ["limits"],
                                         ["coefficients", "--oracle"]])
    @pytest.mark.parametrize("params", [
        ["--k1", "1e308", "--k2", "1e308"],                  # kappa_bar = inf
        ["--k1", "1e300", "--k2", "-1e299", "--k3", "1e300"]])  # delta = nan
    def test_overflowing_parameters_exit_2(self, runner, command, params):
        result = runner.invoke(main, command + params)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid parameters [not_finite]")

    def test_oscillatory_regime_exits_2(self, runner):
        result = runner.invoke(main, ["validate", "--k2", "-0.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["check", "--k2", "0"],
                                      ["reproduce-tables", "--perturb-k1",
                                       "-5"]])
    def test_check_and_tables_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "invalid parameters [" in result.output


class TestInvalidIndices:
    @pytest.mark.parametrize("command", [["coefficients"], ["folds"],
                                         ["compare"],
                                         ["trace", "--model", "qqc"]])
    def test_interface_at_tip_exits_2(self, runner, command):
        result = runner.invoke(main, command + ["--m", "104", "--n", "104"])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_exact_chain_from_n_1(self, runner):
        # The exact model is defined, in closed form and on the chain, from
        # n = 1; n = 0 is refused with the one index rule's message.
        args = ["coefficients", "--oracle", "--model", "exact"]
        assert runner.invoke(main, args + ["--n", "1"]).exit_code == 0
        result = runner.invoke(main, args + ["--n", "0"])
        assert result.exit_code == 2
        assert "exact model requires n >= 1" in result.output

    def test_negative_arc_length_exits_2(self, runner):
        result = runner.invoke(main, ["trace", "--smax", "-1"])
        assert result.exit_code == 2
        assert "error:" in result.output


class TestCoefficients:
    def test_formula_oracle_agreement(self, runner):
        result = runner.invoke(main, ["coefficients", "--oracle"])
        assert result.exit_code == 0

    def test_json_shape(self, runner):
        result = runner.invoke(main, ["coefficients", "--json",
                                      "--model", "qqc"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert set(data["models"]) == {"qqc"}
        entry = data["models"]["qqc"]
        assert entry["kappa"] == pytest.approx(-4.363407363353104, abs=1e-10)
        assert entry["eta"] == pytest.approx(0.929611137867217, abs=1e-11)
        assert data["limits"]["eta0"] == pytest.approx(0.9296111378660926)
        assert len(entry["expansions"]) == 2

    def test_singular_chain_exits_2(self, runner):
        # k3 ~ 1e300 makes the O(1) crack-region pivots look singular.
        result = runner.invoke(main, ["coefficients", "--oracle",
                                      "--k3", "1e300"])
        assert result.exit_code == 2
        assert "error: singular Jacobian" in result.output

    def test_oracle_solver_error_exits_2(self, runner, monkeypatch):
        # The gate catches the solver's error from `material`, where it
        # lives, so this path needs no import of `lattice` in the CLI.
        from crackqc import lattice

        def singular(config):
            raise crackqc.SingularJacobianError(7, 0.0)

        monkeypatch.setattr(lattice, "oracle_coefficients", singular)
        result = runner.invoke(main, ["coefficients", "--oracle"])
        assert result.exit_code == 2
        assert result.stderr == ("error: singular Jacobian: pivot 0.000e+00 "
                                 "at row 7\n")
        assert result.stdout == ""

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["coefficients", "--json", "--oracle"])
        b = runner.invoke(main, ["coefficients", "--json", "--oracle"])
        assert a.output == b.output


class TestLimits:
    def test_values(self, runner):
        result = runner.invoke(main, ["limits", "--json"])
        data = json.loads(result.output)
        assert data["eta0_qc"] == pytest.approx(1.6948085235358459)
        assert data["gap"] == pytest.approx(-0.7651973856697533)

    POLE = ["--k1", "4.5", "--k2", "-1", "--k3", "0.01"]

    @pytest.mark.parametrize("command", [["limits"],
                                         ["coefficients", "--model", "qc",
                                          "--n", "50"],
                                         ["coefficients", "--n", "50"]])
    def test_qc_gamma_pole_exits_2_with_its_name(self, runner, command):
        # QC is undefined where kappa1 + 4.5 kappa2 = 0; `limits` prints
        # its limit, and `coefficients` here asks for its coefficients.
        result = runner.invoke(main, command + self.POLE)
        assert result.exit_code == 2
        assert "QC is undefined at kappa1 + 4.5*kappa2 = 0" in result.output

    @pytest.mark.parametrize("model", ["exact", "qqc", "fqc"])
    def test_qc_gamma_pole_spares_other_models(self, runner, model):
        # Only QC's limit is undefined there: it reads nan (null in JSON)
        # and the requested model's finite coefficients are printed.
        args = ["coefficients", "--model", model, "--n", "50", "--m", "45"]
        args += self.POLE
        text = runner.invoke(main, args)
        assert text.exit_code == 0 and text.stderr == ""
        assert text.stdout.splitlines()[1] == "eta0_qc = nan  gap = nan"
        data = json.loads(runner.invoke(main, args + ["--json"]).stdout)
        assert data["limits"]["eta0_qc"] is None
        assert data["limits"]["gap"] is None
        assert all(map(math.isfinite, [data["limits"]["eta0"],
                                       data["models"][model]["kappa"],
                                       data["models"][model]["eta"]]))


def _reference_csv(curve):
    """The CSV text `cli._write_curve` built when it read `samples`."""
    lines = ["s,u,P,residual"]
    for s, u, p, r in curve.samples:
        lines.append(f"{_fmt(s)},{_fmt(u)},{_fmt(p)},{_fmt(r)}")
    return "\n".join(lines) + "\n"


class TestTrace:
    def test_csv_matches_samples_writer(self, params, rng, capsys):
        # 50 box sets x 4 models, traced until the bond breaks, and the
        # edge traces at the reference set.
        exact = eff.exact_coefficients(params, 104)
        eq = bif.EffectiveEquation(force_law(params), exact.kappa, exact.eta)
        curves = [trace(eq) for trace, _ in EDGE_TRACES.values()]
        for _ in range(50):
            box = random_params(rng)
            n = int(rng.integers(20, 120))
            m = n - int(rng.integers(3, 12))
            for kind in ModelKind:
                coefs = eff.coefficients(box, kind, n, m)
                curves.append(bif.trace_curve(bif.EffectiveEquation(
                    force_law(box), coefs.kappa, coefs.eta), 50.0, 2e-2))
        for curve in curves:
            cli._write_curve(curve, None)
            assert capsys.readouterr().out == _reference_csv(curve)

    def test_csv_header_and_start_row(self, runner):
        result = runner.invoke(main, ["trace", "--smax", "0.002"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "s,u,P,residual"
        assert lines[1] == "0.0,0.0,0.0,0.0"
        assert len(lines) == 4

    def test_zero_length_single_row(self, runner):
        result = runner.invoke(main, ["trace", "--smax", "0"])
        assert result.exit_code == 0
        assert result.output.strip().splitlines() == ["s,u,P,residual",
                                                      "0.0,0.0,0.0,0.0"]

    def test_byte_identical_reruns(self, runner):
        args = ["trace", "--smax", "0.5", "--step", "0.01"]
        assert runner.invoke(main, args).output \
            == runner.invoke(main, args).output

    def test_all_models_need_out(self, runner):
        result = runner.invoke(main, ["trace", "--model", "all"])
        assert result.exit_code == 2

    def test_all_models_writes_files(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, ["trace", "--model", "all",
                                      "--smax", "0.002",
                                      "--out", str(out)])
        assert result.exit_code == 0
        for tag in ("exact", "qc", "qqc", "fqc"):
            text = (tmp_path / f"curve_{tag}.csv").read_text()
            assert text.startswith("s,u,P,residual\n")

    @pytest.mark.parametrize("model", ["exact", "all"])
    @pytest.mark.parametrize("out", ["missing/curve.csv", "."])
    def test_unwritable_or_directory_out_exits_2(self, runner, tmp_path,
                                                 model, out):
        result = runner.invoke(main, ["trace", "--model", model,
                                      "--smax", "0.002",
                                      "--out", str(tmp_path / out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_config_file_defaults_and_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k1": 5.0, "smax": 0.002}))
        with_cfg = runner.invoke(main, ["trace", "--config", str(cfg)])
        plain = runner.invoke(main, ["trace", "--smax", "0.002"])
        override = runner.invoke(main, ["trace", "--config", str(cfg),
                                        "--k1", "4.0"])
        assert with_cfg.exit_code == 0
        assert with_cfg.output != plain.output
        assert override.output == plain.output

    @pytest.mark.parametrize("command,content", [
        ("validate", None),                             # no such file
        ("validate", b"{bad"),                          # not JSON
        ("validate", b'{"out": "caf\xe9.csv"}'),        # not UTF-8
        ("validate", b"[4.0, 0.4]"),                    # not an object
        ("validate", b'{"k1": [1, 2]}'),                # not a number
        ("validate", b'{"k1": null}'),
        ("trace", b'{"model": 7}'),                     # not a choice
        ("trace", b'{"out": null}'),                    # not a string
        ("limits", b'{"as_json": "no"}')])              # not true or false
    def test_malformed_config_exits_2(self, runner, tmp_path, command,
                                      content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error: " in result.stderr

    def test_config_int_for_float_flag(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k1": 5, "seed": 1, "unknown": None}))
        assert runner.invoke(main, ["validate", "--config", str(cfg)]).output \
            == runner.invoke(main, ["validate", "--k1", "5"]).output


class TestFolds:
    def test_two_folds_every_model(self, runner):
        result = runner.invoke(main, ["folds", "--json"])
        data = json.loads(result.output)
        assert set(data) == {"exact", "qc", "qqc", "fqc"}
        for folds in data.values():
            assert len(folds) == 2
        assert data["exact"][0]["u"] == pytest.approx(0.23536949427100265)
        assert data["exact"][0]["P"] == pytest.approx(2.5232420834734177)


class TestCompare:
    def test_qqc_within_bound(self, runner):
        result = runner.invoke(main, ["compare", "--model", "qqc",
                                      "--smax", "1.0", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["sup_distance"] < 1e-10
        assert data["sup_distance"] <= data["lipschitz_bound"]
        assert "exp" in data["derivation"]


class TestReproduceTables:
    def test_honest_failure(self, runner):
        # The embedded reference tables are not reproduced by the stated
        # parameter set; the command reports per-entry errors and exits 1.
        result = runner.invoke(main, ["reproduce-tables"])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert result.output.count("err") >= 16

    def test_json_report(self, runner):
        result = runner.invoke(main, ["reproduce-tables", "--json"])
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["pass"] is False
        assert len(data["rows"]) == 8
        assert data["rows"][0]["ref_kappa"] == -4.782062040603841

    def test_perturbation_diagnostic(self, runner):
        a = runner.invoke(main, ["reproduce-tables", "--json"])
        b = runner.invoke(main, ["reproduce-tables", "--json",
                                 "--perturb-k1", "0.01"])
        assert b.exit_code == 1
        assert json.loads(b.output)["max_error"] \
            != json.loads(a.output)["max_error"]


class TestCheck:
    def test_all_suites_pass(self, runner):
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 0
        for name in ("identities", "energy-force", "oracle-equivalence",
                     "expansion-orders"):
            assert f"{name}: PASS" in result.output

    def test_small_kappa2_ratio_passes(self, runner):
        # At k2/k1 = 0.01 the criss-cross check cancels ~201 digits, more
        # than a fixed 200-digit working precision holds.
        result = runner.invoke(main, ["check", "--k1", "4", "--k2", "0.04",
                                      "--k3", "20"])
        assert result.exit_code == 0
        assert "identities: PASS" in result.output

    def test_seed_determinism(self, runner):
        a = runner.invoke(main, ["check", "--seed", "7"])
        b = runner.invoke(main, ["check", "--seed", "7"])
        assert a.output == b.output

    @pytest.mark.parametrize("k2", ["20", "100"])
    def test_large_kappa2_ratio_passes(self, runner, k2):
        # At k2/k1 = 5 and 25, |z0| = 0.64 and 0.82: over shifts 2..10 the
        # next order of the FQC eta expansion bent the fitted slope by more
        # than 5%.
        result = runner.invoke(main, ["check", "--k1", "4", "--k2", k2])
        assert result.exit_code == 0
        assert result.output.count(": PASS\n") == 4

    def test_oracle_mismatch_exits_1(self, runner, monkeypatch):
        # A closed-form kappa 1e-6 off the oracle fails the oracle suite
        # alone; the other suites still run and report.
        closed_form = eff.coefficients

        def shifted(*args):
            coefs = closed_form(*args)
            return dataclasses.replace(coefs, kappa=coefs.kappa * (1 + 1e-6))

        monkeypatch.setattr(eff, "coefficients", shifted)
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "identities: PASS", "energy-force: PASS",
            "oracle-equivalence: FAIL (exact oracle gap 1.000e-06)",
            "expansion-orders: PASS"]

    # Corners of the admissible domain: k2 < 0, k2/k1 up to 300 (|z0| up to
    # 0.94) and k3 from 1e-3 to 500.
    @pytest.mark.parametrize("k1,k2,k3", [
        (4.0, 0.4, 20.0), (0.5, -0.05, 1e-3), (4.0, -0.8, 1e-3),
        (4.0, 18.0, 500.0), (0.5, 2.5, 1e-3), (50.0, 250.0, 500.0),
        (4.0, 100.0, 20.0), (50.0, 1250.0, 1e-3), (0.5, 150.0, 500.0),
        (4.0, 1200.0, 20.0)])
    def test_expansion_slopes_across_domain(self, k1, k2, k3):
        ok, detail = checks._suite_expansion_orders(
            validate(k1, k2, k3, 0.5), None)
        assert ok, detail


# Each command's flags, as its --help lists them.
_PARAM_FLAGS = ["--config", "--k1", "--k2", "--k3", "--ucut"]
_INDEX_FLAGS = ["--m", "--n"]
FLAGS = {
    "validate": _PARAM_FLAGS,
    "coefficients": _PARAM_FLAGS + _INDEX_FLAGS + ["--model", "--oracle",
                                                   "--json"],
    "limits": _PARAM_FLAGS + ["--json"],
    "trace": _PARAM_FLAGS + _INDEX_FLAGS + ["--model", "--smax", "--step",
                                            "--out"],
    "folds": _PARAM_FLAGS + _INDEX_FLAGS + ["--model", "--json"],
    "compare": _PARAM_FLAGS + _INDEX_FLAGS + ["--model", "--smax", "--step",
                                              "--json"],
    "reproduce-tables": ["--perturb-k1", "--json"],
    "check": _PARAM_FLAGS + ["--seed"],
}


class TestParsing:
    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_names_exactly_the_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", result.stdout))
        assert named == set(FLAGS[command]) | {"--help"}

    def test_short_help_is_help(self, runner):
        for command in FLAGS:
            short = runner.invoke(main, [command, "-h"])
            assert short.exit_code == 0
            assert short.stdout == runner.invoke(main, [command,
                                                        "--help"]).stdout

    @pytest.mark.parametrize("value,code,line", [
        ("-1e-05", 0, "kappa_bar = 3.99996"),
        ("-inf", 2, "invalid parameters [not_finite]: "
                    "kappa2 must be finite, got -inf")])
    def test_negative_value_in_exponent_form(self, runner, value, code, line):
        result = runner.invoke(main, ["validate", "--k2", value])
        assert result.exit_code == code
        assert line in result.output.splitlines()

    @pytest.mark.parametrize("args", [["check", "--se", "0"],
                                      ["trace", "--ou", "curve.csv"],
                                      ["limits", "--js"]])
    def test_abbreviated_flag_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"crackqc"}
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(
        encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", dep).group()
                for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared == DEPENDENCIES


def test_distribution_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "crackqc"
    assert project["version"] == crackqc.__version__


# The public names at the time the package became lazy: the set must not
# shrink or grow by accident.
PUBLIC_NAMES = {
    "BifurcationCurve", "ChainConfig", "CharacteristicRoots",
    "CoefficientLimits", "ConvergenceError", "DisplacementField",
    "EffectiveCoefficients", "EffectiveEquation", "ExpansionRecord",
    "FoldPoint", "ForceLaw", "HyperbolicKernel", "KernelRangeError",
    "MaterialParams", "ModelKind", "ParameterError",
    "SingularJacobianError", "alpha_beta_residuals", "assemble_energy",
    "assemble_residual", "bonded_region_roots", "chain_config",
    "characteristic_roots", "coefficients", "compare_curves",
    "crack_region_root", "exact_coefficients", "exact_limits",
    "expansions", "fold_points", "force_law", "fqc_coefficients",
    "kernel_for", "limits", "linear_system", "lipschitz_bound",
    "newton_solve", "oracle_coefficients", "qc_coefficients",
    "qc_coefficients_qmatrix", "qc_limit", "qqc_coefficients",
    "reconstruct_solution", "solve_branches", "trace_curve", "validate",
}


class TestLazyPackage:
    def test_all_is_the_public_api(self):
        assert len(crackqc.__all__) == len(set(crackqc.__all__))
        assert set(crackqc.__all__) == PUBLIC_NAMES

    def test_names_are_their_home_modules_objects(self):
        for name in crackqc.__all__:
            home = importlib.import_module(
                f"crackqc.{crackqc._MODULE_OF[name]}")
            assert getattr(crackqc, name) is getattr(home, name), name
            assert name in dir(crackqc)

    def test_solver_errors_have_one_home(self):
        from crackqc import lattice, material
        assert lattice.SingularJacobianError is material.SingularJacobianError
        assert lattice.ConvergenceError is material.ConvergenceError

    def test_star_import(self):
        namespace = {}
        exec("from crackqc import *", namespace)
        assert PUBLIC_NAMES <= set(namespace)
        assert namespace["trace_curve"] is crackqc.bifurcation.trace_curve

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            crackqc.no_such_name
        assert not hasattr(crackqc, "_no_such_private")
