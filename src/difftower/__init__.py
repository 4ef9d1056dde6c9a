"""Exact symbolic engine for towers of antiderivative extensions over Q(z)."""

from .ansatz import Bounds, Found, NoSolutionWithinBounds, Witness
from .ratfun import MPoly, RatFun
from .tower import SubfieldSpec, Tower, tower_from_pairs

__all__ = [
    "Bounds", "Found", "NoSolutionWithinBounds", "Witness",
    "MPoly", "RatFun",
    "SubfieldSpec", "Tower", "tower_from_pairs",
]

__version__ = "0.1.0"
