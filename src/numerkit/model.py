"""Problem statement types: the covariance of log-returns, product specs.

A covariance is validated once and handed on as a plain array.  Product specs
are plain frozen dataclasses with a canonical JSON form: a "type"
discriminator plus flat numeric fields, the Vasicek block nested under
"vasicek".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, ValidationFailure
from .ratecurve import VasicekModel

SYMMETRY_RTOL = 1e-12
PSD_EIG_FLOOR = 1e-10  # scaled by trace


class CovarianceMatrix:
    """Symmetric positive semidefinite covariance of log-returns (per year).

    Validation happens here once so downstream code can assume a clean matrix:
    symmetry within 1e-12 relative, smallest eigenvalue >= -1e-10 * trace.
    """

    def __init__(self, values):
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a))))
        with np.errstate(over="ignore"):  # entries near 1e308
            asymmetry = np.max(np.abs(a - a.T))
            a = 0.5 * a + 0.5 * a.T  # a + a.T would overflow
            trace = float(np.trace(a))
        if asymmetry > SYMMETRY_RTOL * scale:
            raise ValueError("covariance must be symmetric to 1e-12 relative")
        if not math.isfinite(trace):
            raise ValueError("covariance trace overflows double precision")
        eig_min = float(np.linalg.eigvalsh(a)[0])
        if eig_min < -PSD_EIG_FLOOR * max(trace, 0.0) - 0.0:
            raise ValueError(f"covariance is not positive semidefinite (min eig {eig_min:g})")
        a.flags.writeable = False
        self._a = a

    def as_array(self) -> np.ndarray:
        return self._a

    def __repr__(self):
        return f"CovarianceMatrix({self._a.tolist()!r})"


def covariance_from_loadings(rows) -> CovarianceMatrix:
    """Assemble the covariance a_ij = sum_k L_ik L_jk from loading rows L_i,
    one per asset, each with one loading per common driver."""
    if len(rows) == 0:
        raise DimensionError("no assets given")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DimensionError("asset loading rows must all have the same length")
    if width < 1:
        raise DimensionError("asset needs at least one driver loading")
    L = np.array(rows, dtype=float)
    if not np.isfinite(L).all():
        raise ValueError("asset loadings must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a = L @ L.T
    return CovarianceMatrix(a)


# ---------------------------------------------------------------------------
# Product specs


@dataclass(frozen=True)
class Esop:
    """Employee stock option plan with one strike reset at t_reset."""

    beta: float
    t_reset: float
    maturity: float
    sigma: float
    rate: float
    spot: float


@dataclass(frozen=True)
class FxStrike:
    """Call on a foreign stock struck in domestic currency at S(0)X(0)."""

    sigma_s: float
    sigma_x: float
    rho: float
    r_d: float
    r_p: float
    spot: float
    fx: float
    maturity: float


@dataclass(frozen=True)
class Savings:
    """Deposit paying the better of a domestic indexed leg and a foreign leg."""

    sigma_x: float
    sigma_i: float
    rho: float
    r_d: float
    r_f: float
    fx: float          # Y(0), foreign units per domestic unit
    price_level: float  # I(0)
    maturity: float


@dataclass(frozen=True)
class Convertible:
    """Bond convertible into one share at conv_date, bond matures later."""

    sigma_s: float
    rho: float
    conv_date: float
    bond_maturity: float
    spot: float
    vasicek: VasicekModel


@dataclass(frozen=True)
class Corporate:
    """Convertible corporate debt: n bonds convertible into alpha shares each."""

    shares: int
    bonds: int
    conv_rate: float
    face: float
    sigma_v: float
    rho: float
    maturity: float
    firm_value: float
    vasicek: VasicekModel

    @property
    def dilution(self) -> float:
        """Post-conversion ownership fraction alpha/(m + n*alpha) per bond."""
        return self.conv_rate / (self.shares + self.bonds * self.conv_rate)


ProductSpec = Union[Esop, FxStrike, Savings, Convertible, Corporate]

_TYPE_TAGS = {
    Esop: "esop",
    FxStrike: "fx_strike",
    Savings: "savings",
    Convertible: "convertible",
    Corporate: "corporate",
}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


@dataclass(frozen=True)
class PriceQuote:
    """One price from one method; std_error only for Monte Carlo quotes."""

    value: float
    method: str
    std_error: Optional[float] = None
    seed: Optional[int] = None


# ---------------------------------------------------------------------------
# Validation


def _finite(name, value, out):
    if not math.isfinite(value):
        out.append(f"{name} must be finite")
        return False
    return True


def _positive(name, value, out):
    if _finite(name, value, out) and not value > 0.0:
        out.append(f"{name} must be positive")


def _nonnegative(name, value, out):
    if _finite(name, value, out) and value < 0.0:
        out.append(f"{name} must be nonnegative")


def _unit(name, value, out):
    if _finite(name, value, out) and not 0.0 <= value <= 1.0:
        out.append(f"{name} must lie in [0, 1]")


def _open_rho(name, value, out):
    if _finite(name, value, out) and not (-1.0 < value < 1.0):
        out.append(f"{name} must lie in the open interval (-1, 1)")


def _count(least: int, kind: str):
    def rule(name, value, out):
        if not (math.isfinite(value) and value == int(value) and value >= least):
            out.append(f"{name} must be a {kind} integer")
    return rule


def _vasicek(name, v: VasicekModel, out):
    _positive(f"{name}.theta", v.theta, out)
    _finite(f"{name}.mu_r", v.mu_r, out)
    _nonnegative(f"{name}.sigma_r", v.sigma_r, out)
    _finite(f"{name}.lambda", v.lam, out)
    _finite(f"{name}.r0", v.r0, out)


# the rule of each field, by name; every other field must be positive
_RULES = {
    "beta": _unit, "rho": _open_rho, "face": _nonnegative, "vasicek": _vasicek,
    "rate": _finite, "r_d": _finite, "r_p": _finite, "r_f": _finite,
    "shares": _count(1, "positive"), "bonds": _count(0, "nonnegative"),
}
# date field -> the date that must precede it
_PRECEDES = {"maturity": "t_reset", "bond_maturity": "conv_date"}


def validate(spec: ProductSpec) -> list[str]:
    """Return all constraint violations for a product spec (empty if valid).

    Fields are checked in declaration order, each by its rule in ``_RULES``.
    """
    if type(spec) not in _TYPE_TAGS:
        raise TypeError(f"not a product spec: {type(spec).__name__}")
    out: list[str] = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        _RULES.get(f.name, _positive)(f.name, value, out)
        earlier = _PRECEDES.get(f.name)
        if earlier is not None and hasattr(spec, earlier) \
                and getattr(spec, earlier) >= value:
            out.append(f"{earlier} must precede {f.name}")
    return out


def validate_vasicek(model: VasicekModel) -> list[str]:
    """Constraint violations of a Vasicek block on its own (empty if valid)."""
    out: list[str] = []
    _vasicek("vasicek", model, out)
    return out


def require_valid(spec: ProductSpec) -> None:
    """Raise ValidationFailure carrying every violation of ``spec``."""
    violations = validate(spec)
    if violations:
        raise ValidationFailure(violations)


# ---------------------------------------------------------------------------
# JSON encode / decode


def product_to_dict(spec: ProductSpec) -> dict:
    """Canonical dict form: type tag first, fields in declaration order."""
    tag = _TYPE_TAGS.get(type(spec))
    if tag is None:
        raise TypeError(f"not a product spec: {type(spec).__name__}")
    out = {"type": tag}
    for f in fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, VasicekModel):
            out[f.name] = {
                "theta": v.theta,
                "mu_r": v.mu_r,
                "sigma_r": v.sigma_r,
                "lambda": v.lam,
                "r0": v.r0,
            }
        else:
            out[f.name] = v
    return out


def json_number(name: str, value, integral: bool = False):
    """A JSON number as float, or as int when ``integral``.

    Booleans, strings and nulls are rejected, and so are fractional counts.
    """
    kind = "an integer" if integral else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of the floating-point range") from None
    if integral and not number.is_integer():
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(number) if integral else number


def vasicek_from_dict(vd) -> VasicekModel:
    """Strict decoding of a "vasicek" block; ``lambda`` defaults to 0.

    Raises ValueError on a non-object block or a non-number field, KeyError
    on a missing one.
    """
    if not isinstance(vd, dict):
        raise ValueError(f"vasicek must be a JSON object, got {type(vd).__name__}")
    return VasicekModel(
        theta=json_number("vasicek.theta", vd["theta"]),
        mu_r=json_number("vasicek.mu_r", vd["mu_r"]),
        sigma_r=json_number("vasicek.sigma_r", vd["sigma_r"]),
        lam=json_number("vasicek.lambda", vd.get("lambda", 0.0)),
        r0=json_number("vasicek.r0", vd["r0"]),
    )


def product_from_dict(data: dict) -> ProductSpec:
    """Inverse of product_to_dict; raises ValueError or KeyError on bad shapes.

    Decoding is strict: numeric fields take JSON numbers only (not booleans
    or strings), and ``shares`` and ``bonds`` take integral values only.
    """
    if not isinstance(data, dict):
        raise ValueError(f"product must be a JSON object, got {type(data).__name__}")
    d = dict(data)
    tag = d.pop("type", None)
    cls = _TAG_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown product type: {tag!r}")
    if "vasicek" in d:
        d["vasicek"] = vasicek_from_dict(d["vasicek"])
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            raise ValueError(f"missing field {f.name!r} for product {tag!r}")
        v = d.pop(f.name)
        if f.name in ("shares", "bonds"):
            kwargs[f.name] = json_number(f.name, v, integral=True)
        elif f.name == "vasicek":
            kwargs[f.name] = v
        else:
            kwargs[f.name] = json_number(f.name, v)
    if d:
        raise ValueError(f"unexpected fields for product {tag!r}: {sorted(d)}")
    return cls(**kwargs)


def quote_to_dict(quote: PriceQuote) -> dict:
    out = {"value": quote.value, "method": quote.method}
    if quote.std_error is not None:
        out["std_error"] = quote.std_error
    if quote.seed is not None:
        out["seed"] = quote.seed
    return out
