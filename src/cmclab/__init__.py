"""Spectral toolkit for CMC spheres and quasi-local mass audits."""

__version__ = "0.1.0"

from . import _blas  # noqa: F401  (must precede the first numpy import)
from .errors import (
    CapacityError,
    CmclabError,
    ConfigError,
    DomainError,
    EmbeddingError,
    FitError,
    GeometryError,
    NormalizationError,
    PreconditionError,
    UndefinedRatioError,
)
from .metrics import (
    MetricModel,
    PerturbationSpec,
    PerturbationTerm,
    euclidean_model,
    evaluate_metric,
    perturbed_model,
    scalar_curvature,
    schwarzschild_model,
)
from .sphere import QuadratureGrid, SphereGraph, analyze, moment_normalize, synthesize

__all__ = [
    "CapacityError",
    "CmclabError",
    "ConfigError",
    "DomainError",
    "EmbeddingError",
    "FitError",
    "GeometryError",
    "MetricModel",
    "NormalizationError",
    "PerturbationSpec",
    "PerturbationTerm",
    "PreconditionError",
    "QuadratureGrid",
    "SphereGraph",
    "UndefinedRatioError",
    "analyze",
    "euclidean_model",
    "evaluate_metric",
    "moment_normalize",
    "perturbed_model",
    "scalar_curvature",
    "schwarzschild_model",
    "synthesize",
    "__version__",
]
