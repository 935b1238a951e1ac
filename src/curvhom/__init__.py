"""Curvature tensors, covariant derivatives and homogeneity classification
for symbolic pseudo-Riemannian metrics on R^3."""

from .classify import (
    GridAxis,
    GridSpec,
    HomogeneityReport,
    HypothesisViolation,
    classify,
    f_first_invariant,
    f_scale_ratio,
    h_first_invariant,
    h_second_ratios,
)
from .expr import DomainError, ParseError, eval_jet, parse, pretty
from .families import (
    FamilySpec,
    custom_metric,
    family_f_metric,
    family_f_oracle,
    family_h_metric,
    family_h_oracle,
)
from .geometry import ConnectionJet, MetricField, christoffel, nabla_k_riemann, nabla_riemann_sequence, riemann
from .jets import jet_compose_univariate, jet_div, jet_mul, partial
from .models import (
    ModelSpace,
    adapted_frame_f,
    adapted_frame_h,
    build_model,
    check_automorphism_order0,
    check_automorphism_order1,
)
from .tensor import Frame, TensorAtPoint, pullback

__version__ = "0.1.0"

__all__ = [
    "ConnectionJet",
    "DomainError",
    "FamilySpec",
    "Frame",
    "GridAxis",
    "GridSpec",
    "HomogeneityReport",
    "HypothesisViolation",
    "MetricField",
    "ModelSpace",
    "ParseError",
    "TensorAtPoint",
    "__version__",
    "adapted_frame_f",
    "adapted_frame_h",
    "build_model",
    "check_automorphism_order0",
    "check_automorphism_order1",
    "christoffel",
    "classify",
    "custom_metric",
    "eval_jet",
    "f_first_invariant",
    "f_scale_ratio",
    "family_f_metric",
    "family_f_oracle",
    "family_h_metric",
    "family_h_oracle",
    "h_first_invariant",
    "h_second_ratios",
    "jet_compose_univariate",
    "jet_div",
    "jet_mul",
    "nabla_k_riemann",
    "nabla_riemann_sequence",
    "parse",
    "partial",
    "pretty",
    "pullback",
    "riemann",
]
