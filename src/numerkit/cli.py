"""Command-line front end.

Four commands:

  price    price one product spec (JSON file) with a chosen engine
  verify   run the cross-engine agreement suite (default scenarios or a file)
  reduce   quotient a covariance + homogeneous payoff and certify the result
  curve    tabulate Vasicek bond prices and bond volatilities by maturity

Exit codes: 0 success, 2 invalid input (one violation per line on stderr),
3 numerical failure, 64 unknown command.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from . import ratecurve
from .errors import DimensionError, PricingError, ValidationFailure
from .model import (
    CovarianceMatrix,
    covariance_from_loadings,
    json_number,
    product_from_dict,
    product_to_dict,
    quote_to_dict,
    validate_vasicek,
    vasicek_from_dict,
)
from .montecarlo import McSpec
from .numeraire import certify_psd, reduce as reduce_problem
from .pde import GridSpec
from .verify import (
    ALL_METHODS,
    build_engines,
    price_with_method,
    run_suite,
    suite_to_csv,
    suite_to_json,
)

_USAGE = """usage: numerkit <command> [options]

commands:
  price    --input SPEC.json [--method M] [--format json|csv] [--output PATH]
           [--seed N] [--paths N] [--grid-nodes N] [--time-steps N]
  verify   [--input SPEC.json] [--tol X] [--format json|csv] [--output PATH]
           [--seed N] [--paths N] [--grid-nodes N] [--time-steps N]
  reduce   --input PROBLEM.json [--format json|csv] [--output PATH]
  curve    --input CURVE.json [--format json|csv] [--output PATH]
"""


_FLAGS = {
    "--input": dict(default=None),
    "--method": dict(default="analytic", choices=list(ALL_METHODS)),
    "--output": dict(default=None),
    "--format": dict(default="json", choices=["json", "csv"]),
    "--seed": dict(type=int, default=0),
    "--paths": dict(type=int, default=100_000),
    "--grid-nodes": dict(type=int, default=400),
    "--time-steps": dict(type=int, default=200),
    "--tol": dict(type=float, default=1e-3),
}


def _parser(command: str) -> argparse.ArgumentParser:
    """A parser taking only the flags ``_USAGE`` lists for ``command``."""
    p = argparse.ArgumentParser(prog=f"numerkit {command}", add_help=True)
    listed = re.search(rf"^  {command} (.*?)(?=^  \w|\Z)", _USAGE,
                       re.M | re.S).group(1)
    for flag in re.findall(r"--[\w-]+", listed):
        p.add_argument(flag, **_FLAGS[flag])
    return p


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path: Optional[str]) -> dict:
    if path is None:
        raise ValueError("--input is required for this command")
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"input must be a JSON object, got {type(data).__name__}")
    return data


def _cmd_price(args) -> int:
    product = product_from_dict(_load_json(args.input))
    grid = GridSpec(nodes_per_axis=args.grid_nodes, time_steps=args.time_steps)
    mc = McSpec(paths=args.paths, seed=args.seed)
    quote = price_with_method(product, args.method, grid=grid, mc=mc)
    if args.format == "csv":
        report = {"label": build_engines(product)[0].label,
                  "quotes": {quote.method: quote_to_dict(quote)}}
        _emit(suite_to_csv({"reports": [report]}), args.output)
    else:
        payload = {"product": product_to_dict(product),
                   "quote": quote_to_dict(quote)}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    products = None
    if args.input is not None:
        products = [product_from_dict(_load_json(args.input))]
    grid = GridSpec(nodes_per_axis=args.grid_nodes, time_steps=args.time_steps)
    mc = McSpec(paths=args.paths, seed=args.seed)
    suite = run_suite(products, grid=grid, mc=mc, tol=args.tol)
    if args.format == "csv":
        _emit(suite_to_csv(suite), args.output)
    else:
        _emit(suite_to_json(suite), args.output)
    return 0 if suite["all_passed"] else 3


def _array(name: str, values, depth: int = 1) -> list:
    """A JSON array of numbers (depth 1) or of such arrays (depth 2)."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON array, got {type(values).__name__}")
    if depth == 1:
        return [json_number(f"{name}[{i}]", v) for i, v in enumerate(values)]
    return [_array(f"{name}[{i}]", v, depth - 1) for i, v in enumerate(values)]


_PAYOFF_KINDS = ("exchange", "relative_call", "forward", "max")


def _registry_payoff(cfg: dict, dim: int):
    """Homogeneous payoffs addressable from JSON input.

    exchange:       max(S_i - S_j, 0)
    relative_call:  max(S_i - k S_0, 0)
    forward:        S_i - k S_0
    max:            max_i S_i
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"payoff must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind not in _PAYOFF_KINDS:
        raise ValueError(f"payoff kind must be one of {_PAYOFF_KINDS}")
    i = json_number("payoff.asset", cfg.get("asset", 1), integral=True)
    j = json_number("payoff.against", cfg.get("against", 0), integral=True)
    k = json_number("payoff.strike_ratio", cfg.get("strike_ratio", 1.0))
    for idx, name in ((i, "asset"), (j, "against")):
        if not 0 <= idx < dim:
            raise ValueError(f"{name} index {idx} out of range for {dim} assets")
    if kind == "exchange":
        return lambda s: max(float(s[i]) - float(s[j]), 0.0)
    if kind == "relative_call":
        return lambda s: max(float(s[i]) - k * float(s[0]), 0.0)
    if kind == "forward":
        return lambda s: float(s[i]) - k * float(s[0])
    return lambda s: float(np.max(s))


def _cmd_reduce(args) -> int:
    cfg = _load_json(args.input)
    if "loadings" in cfg:
        rows = _array("loadings", cfg["loadings"], depth=2)
        a = covariance_from_loadings(rows).as_array()
        mismatch = "spots and loadings must have the same length"
    elif "covariance" in cfg:
        values = _array("covariance", cfg["covariance"], depth=2)
        a = CovarianceMatrix(values).as_array()
        mismatch = "spots must match the covariance dimension"
    else:
        raise ValueError("input must provide 'covariance' or 'loadings'")
    # spots are checked, not read: the quotient does not depend on them
    spots = _array("spots", cfg.get("spots", [1.0] * len(a)))
    if len(spots) != len(a):
        raise ValueError(mismatch)
    if not all(0.0 < s < math.inf for s in spots):
        raise ValueError("asset spot must be positive and finite")
    maturity = json_number("maturity", cfg.get("maturity", 1.0))
    if not maturity > 0.0:
        raise ValueError("maturity must be positive")
    b = reduce_problem(a, _registry_payoff(cfg.get("payoff", {}), len(a)))
    payload = {
        "dim": len(b),
        "b_matrix": [list(map(float, row)) for row in b],
        "psd": bool(certify_psd(b)),
        "maturity": maturity,
    }
    if args.format == "csv":
        lines = ["i,j,b"]
        for i, row in enumerate(b):
            lines.extend("%d,%d,%.17g" % (i, j, v) for j, v in enumerate(row))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_curve(args) -> int:
    cfg = _load_json(args.input)
    if "vasicek" not in cfg:
        raise ValueError("input must provide a 'vasicek' block")
    model = vasicek_from_dict(cfg["vasicek"])
    violations = validate_vasicek(model)
    if violations:
        raise ValidationFailure(violations)
    maturities = _array("maturities",
                        cfg.get("maturities", [1.0, 2.0, 5.0, 10.0]))
    if not all(m > 0.0 and math.isfinite(m) for m in maturities):
        raise ValueError("maturities must be positive and finite")
    rows = []
    for m in maturities:
        rows.append({
            "maturity": m,
            "bond_price": ratecurve.bond_price(model, model.r0, 0.0, m),
            "sigma_p": ratecurve.sigma_p(model, 0.0, m),
        })
        if not all(map(math.isfinite, rows[-1].values())):
            raise PricingError(f"curve at maturity {m:g} is not finite")
    if args.format == "csv":
        lines = ["maturity,bond_price,sigma_p"]
        for row in rows:
            lines.append("%.17g,%.17g,%.17g" % (
                row["maturity"], row["bond_price"], row["sigma_p"]))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(json.dumps({"curve": rows}, indent=2) + "\n", args.output)
    return 0


_COMMANDS = {
    "price": _cmd_price,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "curve": _cmd_curve,
}


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if not argv or argv[0] not in _COMMANDS:
        sys.stderr.write(_USAGE)
        return 64
    command, rest = argv[0], argv[1:]
    try:
        args = _parser(command).parse_args(rest)
    except SystemExit as exc:
        # argparse already printed its message (help exits 0)
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[command](args)
    except ValidationFailure as exc:
        for violation in exc.violations:
            sys.stderr.write(violation + "\n")
        return 2
    except (ValueError, KeyError, OSError, DimensionError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (PricingError, OverflowError, ZeroDivisionError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
