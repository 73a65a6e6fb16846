"""Command-line interface: exit codes, output formats, and file handling."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import numerkit
from numerkit import analytic, ratecurve
from numerkit.cli import main
from numerkit.model import Corporate, Esop, product_from_dict, product_to_dict
from numerkit.verify import default_suite

VASICEK_CFG = {"vasicek": {"theta": 0.5, "mu_r": 0.05, "sigma_r": 0.01,
                           "lambda": 0.0, "r0": 0.03},
               "maturities": [1.0, 5.0]}


def _esop_dict(beta=0.85):
    return product_to_dict(Esop(beta=beta, t_reset=0.5, maturity=1.0,
                                sigma=0.2, rate=0.05, spot=100.0))


def _corporate_dict():
    return product_to_dict(Corporate(
        shares=1_000_000, bonds=10_000, conv_rate=2.0, face=1.0, sigma_v=0.3,
        rho=-0.1, maturity=1.0, firm_value=500_000.0,
        vasicek=ratecurve.VasicekModel(theta=0.3, mu_r=0.04, sigma_r=0.01,
                                       lam=0.0, r0=0.03)))


def _run_module(*args):
    """``python -m numerkit.cli ARGS`` with this numerkit on the child's path."""
    src = str(Path(numerkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "numerkit.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDispatch:
    def test_help(self, capsys):
        assert main(["-h"]) == 0
        assert "usage: numerkit" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 64
        assert "usage: numerkit" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_bad_flag_value(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec, "--method", "bisection"]) == 2


class TestFlags:
    """Each command takes only the flags its usage line lists."""

    def test_price_rejects_tol(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec, "--tol", "9"]) == 2

    def test_verify_rejects_method(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["verify", "--input", spec, "--method", "pde_full"]) == 2

    def test_reduce_rejects_simulation_and_grid_flags(self, tmp_path, capsys):
        cfg = {"covariance": [[0.04, 0.0], [0.0, 0.09]],
               "payoff": {"kind": "max"}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 0
        for flag, value in (("--paths", "-5"), ("--method", "pde_full"),
                            ("--tol", "9"), ("--grid-nodes", "64")):
            assert main(["reduce", "--input", path, flag, value]) == 2

    def test_curve_rejects_seed(self, tmp_path, capsys):
        path = _write(tmp_path, "curve.json", VASICEK_CFG)
        assert main(["curve", "--input", path]) == 0
        assert main(["curve", "--input", path, "--seed", "3"]) == 2


class TestPrice:
    def test_analytic_json(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["product"]["type"] == "esop"
        product = Esop(beta=0.85, t_reset=0.5, maturity=1.0, sigma=0.2,
                       rate=0.05, spot=100.0)
        assert payload["quote"]["value"] == pytest.approx(
            analytic.esop_price(product), rel=1e-12)
        assert payload["quote"]["method"] == "analytic"

    def test_quadrature_close_to_analytic(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec, "--method", "quadrature"]) == 0
        value = json.loads(capsys.readouterr().out)["quote"]["value"]
        product = Esop(beta=0.85, t_reset=0.5, maturity=1.0, sigma=0.2,
                       rate=0.05, spot=100.0)
        assert value == pytest.approx(analytic.esop_price(product), rel=1e-6)

    def test_monte_carlo_quote_carries_seed(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        rc = main(["price", "--input", spec, "--method", "monte_carlo",
                   "--paths", "4000", "--seed", "17"])
        assert rc == 0
        quote = json.loads(capsys.readouterr().out)["quote"]
        assert quote["seed"] == 17
        assert quote["std_error"] > 0.0

    def test_csv_format(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "product,method,value,std_error,seed"
        assert lines[1].startswith("esop,analytic,")

    def test_output_file(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        out = tmp_path / "quote.json"
        assert main(["price", "--input", spec, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["quote"]["method"] == "analytic"

    def test_invalid_spec_lists_violations(self, tmp_path, capsys):
        spec = _write(tmp_path, "bad.json", _esop_dict(beta=2.0))
        assert main(["price", "--input", spec]) == 2
        assert "beta must lie in [0, 1]" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["price", "--input", str(path)]) == 2

    @pytest.mark.parametrize("payload", [
        [1, 2],
        dict(_corporate_dict(), vasicek=[0.3, 0.04, 0.01, 0.0, 0.03]),
        dict(_corporate_dict(), shares=1.5),
        dict(_corporate_dict(), bonds=True),
        dict(_esop_dict(), sigma=True),
    ], ids=["array", "vasicek_array", "fractional_shares", "boolean_bonds",
            "boolean_sigma"])
    @pytest.mark.parametrize("command", ["price", "verify"])
    def test_malformed_spec_exits_two(self, tmp_path, capsys, command, payload):
        spec = _write(tmp_path, "bad.json", payload)
        assert main([command, "--input", spec]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_array_payload_subprocess(self, tmp_path):
        spec = _write(tmp_path, "arr.json", [1, 2])
        proc = _run_module("price", "--input", spec)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_negative_sigma_exits_two(self, tmp_path, capsys):
        spec = _write(tmp_path, "bad.json", dict(_esop_dict(), sigma=-0.2))
        for method in ("analytic", "quadrature", "monte_carlo"):
            assert main(["price", "--input", spec, "--method", method,
                         "--paths", "1000"]) == 2
            assert "sigma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["pde_reduced", "pde_full"])
    def test_oversized_grid_exits_two(self, tmp_path, capsys, method):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["price", "--input", spec, "--method", method,
                     "--grid-nodes", "100000000"]) == 2
        assert "grid budget" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["price"]) == 2
        assert "--input is required" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["price", "--input", str(tmp_path / "absent.json")]) == 2


class TestVerify:
    FAST = ["--grid-nodes", "64", "--time-steps", "16", "--paths", "4000"]

    def test_single_product_passes(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict(beta=0.0))
        assert main(["verify", "--input", spec, *self.FAST]) == 0
        suite = json.loads(capsys.readouterr().out)
        assert suite["all_passed"] is True
        assert suite["summary"]["products"] == 1
        assert suite["reports"][0]["label"] == "esop"

    def test_impossible_tolerance_exits_three(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        rc = main(["verify", "--input", spec, *self.FAST, "--tol", "1e-15"])
        assert rc == 3
        suite = json.loads(capsys.readouterr().out)
        assert suite["all_passed"] is False

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tolerance_exits_two(self, tmp_path, capsys, tol):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["verify", "--input", spec, *self.FAST, "--tol", tol]) == 2
        assert "tol must be" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_the_philox_key_exits_two(self, tmp_path, capsys, seed):
        spec = _write(tmp_path, "esop.json", _esop_dict())
        assert main(["verify", "--input", spec, *self.FAST, "--seed", seed]) == 2
        assert "seed must be" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, capsys):
        spec = _write(tmp_path, "esop.json", _esop_dict(beta=0.0))
        rc = main(["verify", "--input", spec, "--format", "csv", *self.FAST])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "product,method,value,std_error,seed"
        assert len(lines) == 6

    def test_invalid_product(self, tmp_path, capsys):
        spec = _write(tmp_path, "bad.json", _esop_dict(beta=2.0))
        assert main(["verify", "--input", spec, *self.FAST]) == 2


class TestReduce:
    def test_loadings_exchange(self, tmp_path, capsys):
        cfg = {"loadings": [[0.2], [0.3]], "maturity": 2.0,
               "payoff": {"kind": "exchange", "asset": 1, "against": 0}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 1
        # (sigma_1 - sigma_0)^2 for perfectly correlated single-factor loadings
        assert payload["b_matrix"][0][0] == pytest.approx(0.01, abs=1e-15)
        assert payload["psd"] is True
        assert payload["maturity"] == 2.0

    def test_covariance_csv(self, tmp_path, capsys):
        cfg = {"covariance": [[0.04, 0.03], [0.03, 0.09]],
               "payoff": {"kind": "relative_call", "asset": 1,
                          "strike_ratio": 1.1}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,b"
        assert lines[1] == "0,0,%.17g" % 0.07

    def test_three_assets(self, tmp_path, capsys):
        cfg = {"covariance": [[0.04, 0.0, 0.0], [0.0, 0.09, 0.0],
                              [0.0, 0.0, 0.01]],
               "payoff": {"kind": "max"}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2
        assert payload["psd"] is True

    def test_unknown_payoff_kind(self, tmp_path, capsys):
        cfg = {"covariance": [[0.04]], "payoff": {"kind": "butterfly"}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 2

    def test_index_out_of_range(self, tmp_path, capsys):
        cfg = {"covariance": [[0.04, 0.0], [0.0, 0.09]],
               "payoff": {"kind": "exchange", "asset": 5}}
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 2

    def test_missing_matrix(self, tmp_path, capsys):
        path = _write(tmp_path, "problem.json", {"payoff": {"kind": "max"}})
        assert main(["reduce", "--input", path]) == 2

    @pytest.mark.parametrize("cfg", [
        {"covariance": [[0.04, 0.0], [0.0, 0.09]],
         "payoff": {"kind": "exchange", "asset": None}},
        {"covariance": [[0.04, 0.0], [0.0, 0.09]],
         "payoff": {"kind": "exchange", "asset": 1.5}},
        {"covariance": [[0.04, 0.0], [0.0, 0.09]], "payoff": [1, 2]},
        {"covariance": [[0.04, None], [None, 0.09]],
         "payoff": {"kind": "max"}},
        {"loadings": [[0.2], 0.3], "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.3]], "spots": None,
         "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.3]], "maturity": None,
         "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.3]], "spots": [1.0, -1.0],
         "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.3]], "spots": [1.0, math.nan],
         "payoff": {"kind": "max"}},
        {"covariance": [[0.04, 0.0], [0.0, 0.09]], "spots": [1.0],
         "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.3]], "maturity": 0.0,
         "payoff": {"kind": "max"}},
    ], ids=["null_asset", "fractional_asset", "array_payoff",
            "null_covariance_entry", "scalar_loading_row", "null_spots",
            "null_maturity", "negative_spot", "nan_spot", "short_spots",
            "zero_maturity"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, cfg):
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        {"covariance": [], "payoff": {"kind": "max"}},
        {"covariance": [[0.04, 0.0], [0.0]], "payoff": {"kind": "max"}},
        {"covariance": [[0.04, 0.0]], "payoff": {"kind": "max"}},
        {"loadings": [[0.2], [0.1, 0.3]], "payoff": {"kind": "max"}},
    ], ids=["empty_covariance", "ragged_covariance", "non_square_covariance",
            "ragged_loadings"])
    def test_malformed_shape_exits_two(self, tmp_path, capsys, cfg):
        path = _write(tmp_path, "problem.json", cfg)
        assert main(["reduce", "--input", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_null_asset_subprocess(self, tmp_path):
        cfg = {"covariance": [[0.04, 0.0], [0.0, 0.09]],
               "payoff": {"kind": "exchange", "asset": None}}
        proc = _run_module("reduce", "--input", _write(tmp_path, "p.json", cfg))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestCurve:
    def test_json_values(self, tmp_path, capsys):
        path = _write(tmp_path, "curve.json", VASICEK_CFG)
        assert main(["curve", "--input", path]) == 0
        rows = json.loads(capsys.readouterr().out)["curve"]
        model = ratecurve.VasicekModel(theta=0.5, mu_r=0.05, sigma_r=0.01,
                                       lam=0.0, r0=0.03)
        assert [r["maturity"] for r in rows] == [1.0, 5.0]
        for row in rows:
            assert row["bond_price"] == pytest.approx(
                ratecurve.bond_price(model, 0.03, 0.0, row["maturity"]),
                rel=1e-15)
            assert row["sigma_p"] == pytest.approx(
                ratecurve.sigma_p(model, 0.0, row["maturity"]), rel=1e-15)

    def test_csv_header(self, tmp_path, capsys):
        path = _write(tmp_path, "curve.json", VASICEK_CFG)
        assert main(["curve", "--input", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "maturity,bond_price,sigma_p"
        assert len(lines) == 3

    def test_missing_block(self, tmp_path, capsys):
        path = _write(tmp_path, "curve.json", {"maturities": [1.0]})
        assert main(["curve", "--input", path]) == 2

    def test_negative_maturity(self, tmp_path, capsys):
        cfg = dict(VASICEK_CFG, maturities=[-1.0])
        path = _write(tmp_path, "curve.json", cfg)
        assert main(["curve", "--input", path]) == 2

    @pytest.mark.parametrize("cfg", [
        dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], theta=None)),
        dict(VASICEK_CFG, vasicek=[0.5, 0.05, 0.01, 0.0, 0.03]),
        dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], sigma_r=True)),
        dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], theta=0.0)),
        dict(VASICEK_CFG, maturities=[1.0, None]),
        dict(VASICEK_CFG, maturities=5.0),
    ], ids=["null_theta", "array_block", "boolean_sigma_r", "zero_theta",
            "null_maturity", "scalar_maturities"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, cfg):
        path = _write(tmp_path, "curve.json", cfg)
        assert main(["curve", "--input", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_subnormal_theta_takes_the_zero_theta_limit(self, tmp_path, capsys):
        # theta tau is subnormal, so B is tau and the bond is its theta -> 0
        # limit exp(-r tau + sigma_r^2 tau^3 / 6)
        cfg = dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], theta=5e-324),
                   maturities=[0.3])
        assert main(["curve", "--input", _write(tmp_path, "c.json", cfg)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["curve"]
        tau, r, sigma_r = 0.3, 0.03, 0.01
        assert row["bond_price"] == pytest.approx(
            math.exp(-r * tau + sigma_r * sigma_r * tau ** 3 / 6.0), rel=1e-14)
        assert row["sigma_p"] == pytest.approx(sigma_r * tau, rel=1e-15)

    def test_zero_theta_lists_violation(self, tmp_path, capsys):
        cfg = dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], theta=0.0))
        assert main(["curve", "--input", _write(tmp_path, "c.json", cfg)]) == 2
        assert "vasicek.theta must be positive" in capsys.readouterr().err

    def test_null_theta_subprocess(self, tmp_path):
        cfg = dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"], theta=None))
        proc = _run_module("curve", "--input", _write(tmp_path, "c.json", cfg))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_overflow_exits_three(self, tmp_path, capsys):
        cfg = dict(VASICEK_CFG, vasicek=dict(VASICEK_CFG["vasicek"],
                                             **{"lambda": 1e308}))
        assert main(["curve", "--input", _write(tmp_path, "c.json", cfg)]) == 3
        assert "Traceback" not in capsys.readouterr().err


# every value below replaces each field, nested field (of a Vasicek block or
# a payoff), list element and matrix entry in turn
SUBSTITUTES = [None, [], [1, 2], {}, "x", True, 0, -1, 1.5, float("nan"),
               1e308, -1e308, 1e-300, 1e6, 50, 1e-9]


def _substituted(node):
    """Copies of a JSON object or array, each with one field, nested field,
    list element or matrix entry replaced by one of SUBSTITUTES; a "type"
    tag is kept."""
    keys = range(len(node)) if isinstance(node, list) else \
        [key for key in node if key != "type"]
    for key in keys:
        child = node[key]
        nested = _substituted(child) if isinstance(child, (dict, list)) else ()
        for value in [*SUBSTITUTES, *nested]:
            copy = list(node) if isinstance(node, list) else dict(node)
            copy[key] = value
            yield copy


# the README's reduce and curve examples, and a covariance with spots
REDUCE_AND_CURVE = [
    ("reduce", {"loadings": [[0.2, 0.0], [0.1, 0.25], [0.3, -0.1]],
                "maturity": 2.0,
                "payoff": {"kind": "exchange", "asset": 1, "against": 2}}),
    ("reduce", {"covariance": [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02],
                               [0.0, 0.02, 0.0625]],
                "spots": [1.0, 2.0, 0.5], "maturity": 1.5,
                "payoff": {"kind": "relative_call", "asset": 2,
                           "strike_ratio": 1.1}}),
    ("curve", {"vasicek": {"theta": 0.5, "mu_r": 0.05, "sigma_r": 0.01,
                           "lambda": 0.0, "r0": 0.03},
               "maturities": [1.0, 2.0, 5.0, 10.0]}),
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestSubstitutionGrid:
    """Each default product with one field replaced by a hostile value, on
    the routes without simulation, and the reduce and curve inputs with one
    position replaced: every run ends in a documented exit code, never in a
    traceback or a warning of any category, and a run that exits 0 prints
    finite values."""

    @pytest.mark.parametrize("product", default_suite(),
                             ids=lambda p: type(p).__name__)
    def test_exit_codes_documented(self, tmp_path, capsys, product):
        path = tmp_path / "spec.json"
        codes = {}
        for spec in _substituted(product_to_dict(product)):
            path.write_text(json.dumps(spec))
            for method in ("analytic", "quadrature", "pde_reduced"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main(["price", "--input", str(path), "--method", method,
                                     "--grid-nodes", "32", "--time-steps", "16"])
                    except Exception as exc:  # the failure this test looks for
                        code = type(exc).__name__
                out = capsys.readouterr().out
                if caught:
                    code = f"{caught[0].category.__name__}: {caught[0].message}"
                if code == 0 and not math.isfinite(json.loads(out)["quote"]["value"]):
                    code = "non-finite value"
                codes.setdefault(code, []).append((method, spec))
        stray = {code: runs[:3] for code, runs in codes.items() if code not in (0, 2, 3)}
        assert not stray, stray

    def test_reduce_and_curve_exit_codes_documented(self, tmp_path, capsys):
        # 768 runs; a run that exits 0 prints strict JSON (no NaN or Infinity)
        path = tmp_path / "input.json"
        codes = {}
        for command, base in REDUCE_AND_CURVE:
            for cfg in _substituted(base):
                path.write_text(json.dumps(cfg))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main([command, "--input", str(path)])
                    except Exception as exc:  # the failure this test looks for
                        code = type(exc).__name__
                out, err = capsys.readouterr()
                if caught:
                    code = f"{caught[0].category.__name__}: {caught[0].message}"
                if "Traceback" in err:
                    code = "traceback"
                if code == 0:
                    try:
                        json.loads(out, parse_constant=_reject_constant)
                    except ValueError as exc:
                        code = str(exc)
                codes.setdefault(code, []).append((command, cfg))
        stray = {code: runs[:3] for code, runs in codes.items() if code not in (0, 2, 3)}
        assert not stray, stray
        assert sum(map(len, codes.values())) == 768

    def test_overflowing_ratio_exits_three_without_warning(self, tmp_path, capsys):
        # fx = 1e308 puts the pound formulation's ratio spot / (1 / fx) at
        # inf; quadrature refuses it before integrating
        spec = dict(product_to_dict(default_suite()[1]), fx=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["price", "--input", _write(tmp_path, "fx.json", spec),
                         "--method", "quadrature"]) == 3
        assert "price ratio is not finite" in capsys.readouterr().err

    def test_kink_underflowing_against_the_ratio_is_priced(self, tmp_path, capsys):
        # face / dilution is subnormal, and divided by the firm-to-bond ratio
        # it rounds to zero; the kink's abscissa must not take log(0)
        spec = dict(_corporate_dict(), shares=34684, bonds=77, conv_rate=0.3,
                    face=5e-324, sigma_v=0.02, rho=0.01, maturity=1.1,
                    firm_value=1436708.81,
                    vasicek={"theta": 0.3333, "mu_r": 0.00082, "sigma_r": 0.00407,
                             "lambda": -0.1169, "r0": 0.01284})
        path = _write(tmp_path, "c.json", spec)
        values = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("analytic", "quadrature"):
                assert main(["price", "--input", path, "--method", method]) == 0
                values[method] = json.loads(capsys.readouterr().out)["quote"]["value"]
        product = product_from_dict(spec)
        notional = product.face + product.dilution * product.firm_value
        assert abs(values["quadrature"] - values["analytic"]) <= 1e-9 * notional

    @pytest.mark.parametrize("method", ["pde_full", "pde_reduced"])
    def test_unrepresentable_grid_exits_three(self, tmp_path, capsys, method):
        # sigma = 50 puts the log grid's half-width past exp's range; it is
        # refused before the grid is built on, with no numpy warning
        spec = _write(tmp_path, "esop.json", dict(_esop_dict(), sigma=50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["price", "--input", spec, "--method", method,
                         "--grid-nodes", "32", "--time-steps", "16"]) == 3
        assert "not representable" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "quadrature", "pde_reduced"])
    def test_vanishing_bond_numeraire_rejected(self, tmp_path, capsys, method):
        spec = dict(_corporate_dict(), maturity=1e6)
        assert main(["price", "--input", _write(tmp_path, "c.json", spec),
                     "--method", method]) == 2
        assert "bond price must be positive" in capsys.readouterr().err

    def test_division_by_zero_exits_three(self, tmp_path, capsys):
        spec = product_to_dict(default_suite()[2])
        spec["r_d"] = -1e308
        assert main(["price", "--input", _write(tmp_path, "s.json", spec)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "pde_reduced"])
    def test_overflow_names_the_route(self, tmp_path, capsys, method):
        # sigma ** 2 is out of the double range on both routes
        spec = _write(tmp_path, "esop.json", dict(_esop_dict(), sigma=1e308))
        assert main(["price", "--input", spec, "--method", method]) == 3
        err = capsys.readouterr().err
        assert f"{method}: the arithmetic overflowed" in err
        assert "Traceback" not in err

    def test_vanishing_diffusion_priced_in_physical_time(self, tmp_path, capsys):
        # both volatilities square to zero, so the pound quotient only drifts
        # and discounts: the reduced solve transports and discounts its
        # terminal exactly and takes no steps
        spec = dict(product_to_dict(default_suite()[1]), sigma_s=1e-170, sigma_x=1e-170)
        path = _write(tmp_path, "fx.json", spec)
        values = {}
        for method in ("analytic", "pde_reduced"):
            assert main(["price", "--input", path, "--method", method]) == 0
            values[method] = json.loads(capsys.readouterr().out)["quote"]["value"]
        assert values["pde_reduced"] == pytest.approx(values["analytic"], rel=1e-4)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = _write(tmp_path, "curve.json", VASICEK_CFG)
        proc = _run_module("curve", "--input", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["curve"]
