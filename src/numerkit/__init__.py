"""Dimension-reduced pricing of homogeneous multi-asset claims.

Price ratios strip one dimension from lognormal pricing problems whose payoff
is homogeneous of degree one. The package carries the reduction machinery,
closed forms for five products built on it, and independent finite-difference,
quadrature, and Monte Carlo engines to check every formula against the full
dynamics.
"""

from .errors import PricingError, TimeDomainError, ValidationFailure
from .model import Convertible, Corporate, Esop, FxStrike, Savings
from .ratecurve import VasicekModel
from .analytic import esop_price
from .pde import GridSpec, reduction_gap
from .montecarlo import McSpec, price_mc
from .verify import build_engines, price_with_method, run_suite, verify_product

__version__ = "0.1.0"
