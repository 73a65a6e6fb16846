"""Problem statement types: the covariance of log-returns, product specs.

A covariance is validated once and handed on as a plain array.  Product specs
are plain frozen dataclasses with a canonical JSON form: a "type"
discriminator plus flat numeric fields, the Vasicek block nested under
"vasicek".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, ValidationFailure
from .ratecurve import VasicekModel

SYMMETRY_RTOL = 1e-12
PSD_EIG_FLOOR = 1e-10  # scaled by trace


def covariance(values) -> np.ndarray:
    """Symmetric positive semidefinite covariance of log-returns (per year),
    validated once and returned as a read-only array, so downstream code can
    assume a clean matrix: symmetry within 1e-12 relative, smallest
    eigenvalue >= -1e-10 * trace.
    """
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
    return a


def covariance_from_loadings(rows) -> np.ndarray:
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
    return covariance(a)


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


# each VasicekModel attribute, in declaration order -> its JSON key, its rule
VASICEK_FIELDS = {
    "theta": ("theta", _positive), "mu_r": ("mu_r", _finite),
    "sigma_r": ("sigma_r", _nonnegative), "lam": ("lambda", _finite),
    "r0": ("r0", _finite),
}


def _vasicek(name, v: VasicekModel, out):
    for attr, (key, rule) in VASICEK_FIELDS.items():
        rule(f"{name}.{key}", getattr(v, attr), out)


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


def require_valid(spec: Union[ProductSpec, VasicekModel]) -> None:
    """Raise ValidationFailure carrying every violation of a product spec, or
    of a Vasicek block on its own (named as in a spec, ``vasicek.theta``)."""
    if isinstance(spec, VasicekModel):
        violations: list[str] = []
        _vasicek("vasicek", spec, violations)
    else:
        violations = validate(spec)
    if violations:
        raise ValidationFailure(violations)


def require_integers(spec) -> None:
    """Refuse with ValueError a field of the frozen dataclass ``spec`` that is
    not an integer; a bool is not one, and a numpy integer is kept as int."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        object.__setattr__(spec, f.name, int(value))


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
            v = {key: getattr(v, attr) for attr, (key, _) in VASICEK_FIELDS.items()}
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


def json_object(name: str, data, required=(), defaults=None) -> dict:
    """The JSON object ``data`` as a new dict, each key of ``required`` present
    and each missing key of ``defaults`` at its default; any other key is
    refused (ValueError).  A tagged object gives ``required`` as a dict from
    each value of its "type" key to its keys, and is named ``name 'tag'``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}")
    if isinstance(required, dict):
        tag = data.get("type")
        if not isinstance(tag, str) or tag not in required:
            raise ValueError(f"unknown {name} type: {tag!r}")
        name, required = f"{name} {tag!r}", required[tag]
    defaults = defaults or {}
    for key in required:
        if key not in data:
            raise ValueError(f"missing field {key!r} for {name}")
    extra = data.keys() - set(required) - defaults.keys()
    if extra:
        raise ValueError(f"unexpected fields for {name}: {sorted(extra)}")
    return {**defaults, **data}


def vasicek_from_dict(vd) -> VasicekModel:
    """Strict decoding of a "vasicek" block; ``lambda`` defaults to 0.  A
    block that is not an object or a missing, unknown or non-number key is a
    ValueError."""
    vd = json_object("vasicek", vd, ("theta", "mu_r", "sigma_r", "r0"), {"lambda": 0.0})
    return VasicekModel(**{attr: json_number(f"vasicek.{key}", vd[key])
                           for attr, (key, _) in VASICEK_FIELDS.items()})


# each product's keys, by its type tag: the tag, then its fields
_PRODUCT_KEYS = {tag: ("type", *(f.name for f in fields(cls)))
                 for cls, tag in _TYPE_TAGS.items()}


def product_from_dict(data) -> ProductSpec:
    """Inverse of product_to_dict; raises ValueError on bad shapes.

    Decoding is strict: numeric fields take JSON numbers only (not booleans
    or strings), and the counts, the fields declared ``int`` (``shares`` and
    ``bonds``), integral values only.
    """
    d = json_object("product", data, _PRODUCT_KEYS)
    cls = _TAG_TYPES[d["type"]]
    # a count is a field declared ``int`` (a string: annotations are postponed)
    return cls(**{f.name: vasicek_from_dict(d[f.name]) if f.name == "vasicek"
                  else json_number(f.name, d[f.name], integral=f.type == "int")
                  for f in fields(cls)})


def quote_to_dict(quote: PriceQuote) -> dict:
    return {key: v for key, v in asdict(quote).items() if v is not None}
