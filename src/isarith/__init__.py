"""Interval superposition arithmetic.

Encloses the image of factorable functions on box domains by propagating an
n x N matrix of interval coefficients through the function's computational
graph: every axis is cut into N branches and the model's value at a point is
the Minkowski sum of one coefficient per axis.  Row-wise range bounds are
exact in O(nN), and the composition rules stay useful on domains far too wide
for local approximation methods.
"""

__version__ = "0.1.0"

from .interval import (
    PI,
    PI_HALF,
    TAU,
    DomainViolation,
    Interval,
    IntervalError,
    ZeroInDomain,
)
from .model import (
    Domain,
    DomainMismatch,
    OutOfDomain,
    RangeBounds,
    SuperpositionModel,
    init_constant,
    init_variable,
)
from .univariate import (
    Atom,
    CompositionWorkspace,
    RemainderUnbounded,
    central_points,
    compose,
    cot_model,
    pow_model,
    recip_model,
    remainder_bound,
    sqrt_model,
)
from .bivariate import (
    ProductWorkspace,
    RemainderCapExceeded,
    add_models,
    div_models,
    mul_models,
    product_workspace,
    scalar_affine,
    sub_models,
)
from .expr import (
    ArityError,
    Expr,
    ParseError,
    ShapeMismatch,
    UnknownIdentifier,
    eval_interval,
    eval_ism,
    eval_point,
    eval_points,
    parse,
    parse_vector,
    self_compose,
    to_text,
)
from .oracle import (
    BudgetExceeded,
    ImageSample,
    SoundnessViolation,
    brute_force_range,
    hausdorff_enclosure,
    remainder_violation_search,
    sample_image,
)

__all__ = [
    "__version__",
    "Interval",
    "IntervalError",
    "DomainViolation",
    "ZeroInDomain",
    "PI",
    "PI_HALF",
    "TAU",
    "Domain",
    "SuperpositionModel",
    "RangeBounds",
    "OutOfDomain",
    "DomainMismatch",
    "init_variable",
    "init_constant",
    "Atom",
    "CompositionWorkspace",
    "RemainderUnbounded",
    "central_points",
    "remainder_bound",
    "compose",
    "sqrt_model",
    "cot_model",
    "pow_model",
    "recip_model",
    "ProductWorkspace",
    "RemainderCapExceeded",
    "product_workspace",
    "add_models",
    "mul_models",
    "sub_models",
    "div_models",
    "scalar_affine",
    "Expr",
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "ShapeMismatch",
    "parse",
    "parse_vector",
    "to_text",
    "eval_point",
    "eval_points",
    "eval_interval",
    "eval_ism",
    "self_compose",
    "ImageSample",
    "BudgetExceeded",
    "SoundnessViolation",
    "sample_image",
    "hausdorff_enclosure",
    "brute_force_range",
    "remainder_violation_search",
]
