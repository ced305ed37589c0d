"""Interval superposition arithmetic.

Encloses the image of factorable functions on box domains by propagating an
interval constant plus an n x N matrix of interval coefficients through the
function's computational graph: every axis is cut into N branches and the
model's value at a point is the constant plus the Minkowski sum of one
coefficient per axis.  Row-wise range bounds are
exact in O(nN), and the composition rules stay useful on domains far too wide
for local approximation methods.
"""

__version__ = "0.1.0"

from . import bivariate, expr, interval, model, oracle, univariate
from .bivariate import *
from .expr import *
from .interval import *
from .model import *
from .oracle import *
from .univariate import *

__all__ = ["__version__"] + [
    name for module in (interval, model, univariate, bivariate, expr, oracle)
    for name in module.__all__
]
