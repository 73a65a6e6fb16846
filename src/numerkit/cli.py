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
    covariance,
    covariance_from_loadings,
    json_number,
    json_object,
    product_from_dict,
    product_to_dict,
    quote_to_dict,
    require_valid,
    vasicek_from_dict,
)
from .montecarlo import McSpec
from .numeraire import certify_psd, reduce as reduce_problem
from .pde import GridSpec
from .verify import (
    ALL_METHODS,
    TOL,
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


# the library's defaults, so that each is written once
_GRID, _MC = GridSpec(), McSpec()
_FLAGS = {
    "--input": dict(default=None),
    "--method": dict(default="analytic", choices=list(ALL_METHODS)),
    "--output": dict(default=None),
    "--format": dict(default="json", choices=["json", "csv"]),
    "--seed": dict(type=int, default=_MC.seed),
    "--paths": dict(type=int, default=_MC.paths),
    "--grid-nodes": dict(type=int, default=_GRID.nodes_per_axis,
                         help="nodes of the 1-D axis and of the widest 2-D axis"),
    "--time-steps": dict(type=int, default=_GRID.time_steps),
    "--tol": dict(type=float, default=TOL),
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


def _load_json(path: Optional[str]):
    if path is None:
        raise ValueError("--input is required for this command")
    with open(path) as fh:
        return json.load(fh)


def _specs(args) -> dict:
    """The ``grid`` and ``mc`` keyword arguments that the flags ask for."""
    return dict(grid=GridSpec(nodes_per_axis=args.grid_nodes, time_steps=args.time_steps),
                mc=McSpec(paths=args.paths, seed=args.seed))


def _cmd_price(args) -> tuple:
    product = product_from_dict(_load_json(args.input))
    quote = quote_to_dict(price_with_method(product, args.method, **_specs(args)))
    payload = {"product": product_to_dict(product), "quote": quote}
    report = {"label": build_engines(product)[0].label,
              "quotes": {quote["method"]: quote}}
    return json.dumps(payload, indent=2) + "\n", suite_to_csv({"reports": [report]}), 0


def _cmd_verify(args) -> tuple:
    products = None if args.input is None else [product_from_dict(_load_json(args.input))]
    suite = run_suite(products, tol=args.tol, **_specs(args))
    return suite_to_json(suite), suite_to_csv(suite), 0 if suite["all_passed"] else 3


def _array(name: str, values, depth: int = 1) -> list:
    """A JSON array of numbers (depth 1) or of such arrays (depth 2)."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON array, got {type(values).__name__}")
    if depth == 1:
        return [json_number(f"{name}[{i}]", v) for i, v in enumerate(values)]
    return [_array(f"{name}[{i}]", v, depth - 1) for i, v in enumerate(values)]


_PAYOFF_KINDS = ("exchange", "relative_call", "forward", "max")


def _registry_payoff(cfg, dim: int):
    """Homogeneous payoffs addressable from JSON input.

    exchange:       max(S_i - S_j, 0)
    relative_call:  max(S_i - k S_0, 0)
    forward:        S_i - k S_0
    max:            max_i S_i
    """
    cfg = json_object("payoff", cfg, ("kind",),
                      {"asset": 1, "against": 0, "strike_ratio": 1.0})
    kind = cfg["kind"]
    if kind not in _PAYOFF_KINDS:
        raise ValueError(f"payoff kind must be one of {_PAYOFF_KINDS}")
    i = json_number("payoff.asset", cfg["asset"], integral=True)
    j = json_number("payoff.against", cfg["against"], integral=True)
    k = json_number("payoff.strike_ratio", cfg["strike_ratio"])
    if not math.isfinite(k):
        raise ValueError("payoff.strike_ratio must be finite")
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


_ABSENT = object()  # the default of a key that may be left out: no JSON decodes to it


def _cmd_reduce(args) -> tuple:
    cfg = json_object("input", _load_json(args.input), ("payoff",),
                      {"loadings": _ABSENT, "covariance": _ABSENT,
                       "spots": _ABSENT, "maturity": 1.0})
    if (cfg["loadings"] is _ABSENT) == (cfg["covariance"] is _ABSENT):
        raise ValueError("input must provide exactly one of 'covariance' or 'loadings'")
    if cfg["loadings"] is not _ABSENT:
        a = covariance_from_loadings(_array("loadings", cfg["loadings"], depth=2))
    else:
        a = covariance(_array("covariance", cfg["covariance"], depth=2))
    # spots are checked, not read: the quotient does not depend on them
    spots = [1.0] * len(a) if cfg["spots"] is _ABSENT else _array("spots", cfg["spots"])
    if len(spots) != len(a):
        raise ValueError(f"spots must give one spot for each of the {len(a)} assets")
    if not all(0.0 < s < math.inf for s in spots):
        raise ValueError("asset spot must be positive and finite")
    maturity = json_number("maturity", cfg["maturity"])
    if not 0.0 < maturity < math.inf:
        raise ValueError("maturity must be positive and finite")
    b = reduce_problem(a, _registry_payoff(cfg["payoff"], len(a)))
    payload = {
        "dim": len(b),
        "b_matrix": [list(map(float, row)) for row in b],
        "psd": bool(certify_psd(b)),
        "maturity": maturity,
    }
    lines = ["i,j,b"] + ["%d,%d,%.17g" % (i, j, v)
                         for i, row in enumerate(b) for j, v in enumerate(row)]
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n", 0


def _cmd_curve(args) -> tuple:
    cfg = json_object("input", _load_json(args.input), ("vasicek",),
                      {"maturities": [1.0, 2.0, 5.0, 10.0]})
    model = vasicek_from_dict(cfg["vasicek"])
    require_valid(model)
    maturities = _array("maturities", cfg["maturities"])
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
    lines = ["maturity,bond_price,sigma_p"] + [
        "%.17g,%.17g,%.17g" % tuple(row.values()) for row in rows]
    return json.dumps({"curve": rows}, indent=2) + "\n", "\n".join(lines) + "\n", 0


# each command returns its output as JSON text, as CSV text and its exit
# code; ``main`` writes the one --format chose
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
        json_text, csv_text, code = _COMMANDS[command](args)
        _emit(csv_text if args.format == "csv" else json_text, args.output)
        return code
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
