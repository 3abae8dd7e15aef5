"""Pricing of credit-risky zero-coupon, puttable and callable bonds under a
two-factor structural model (Vasicek short rate + lognormal firm value).

The closed forms load with the package.  The oracle names (``cn_solve``,
``mc_forward``, ``mc_spot`` and their records) load ``credbond.oracles``,
and SciPy's solvers with it, on first access.
"""

from .model import ModelParams, MarketState
from .bond import BondSpec, BondPriceResult, bond_price, survival_w
from .options import (
    OptionSpec,
    OptionPriceResult,
    find_boundary_l,
    put_price,
    call_price,
    put_call_parity_gap,
    puttable_bond_price,
    callable_bond_price,
)

_ORACLE_NAMES = frozenset(
    ("GridConfig", "GridSolution", "McEstimate", "cn_solve", "mc_forward",
     "mc_spot"))


def __getattr__(name):
    """The oracle names, served from credbond.oracles on first access (PEP 562)."""
    if name in _ORACLE_NAMES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ModelParams",
    "MarketState",
    "BondSpec",
    "BondPriceResult",
    "bond_price",
    "survival_w",
    "OptionSpec",
    "OptionPriceResult",
    "find_boundary_l",
    "put_price",
    "call_price",
    "put_call_parity_gap",
    "puttable_bond_price",
    "callable_bond_price",
    "GridConfig",
    "GridSolution",
    "McEstimate",
    "cn_solve",
    "mc_forward",
    "mc_spot",
]

__version__ = "0.1.0"
