"""Zero-divisor graphs of Z_n: construction, exact connectivity, predictions."""

from .arith import Factorization, factorize, format_factorization
from .errors import NoZeroDivisorsError, ResourceLimitError
from .formulas import (
    Prediction,
    predict,
    predict_edge_connectivity,
    predict_min_degree,
    predict_vertex_connectivity,
)
from .graphs import (
    CompressedZdg,
    DegreeProfile,
    ZeroDivisorGraph,
    build_compressed,
    build_explicit,
    class_members,
    degree_profile,
    export_dot,
    quotient_report,
)
from .harness import AuditFinding, AuditResult, analyze, audit, render, sweep

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "AuditResult",
    "CompressedZdg",
    "DegreeProfile",
    "Factorization",
    "NoZeroDivisorsError",
    "Prediction",
    "ResourceLimitError",
    "ZeroDivisorGraph",
    "analyze",
    "audit",
    "build_compressed",
    "build_explicit",
    "class_members",
    "degree_profile",
    "export_dot",
    "factorize",
    "format_factorization",
    "predict",
    "predict_edge_connectivity",
    "predict_min_degree",
    "predict_vertex_connectivity",
    "quotient_report",
    "render",
    "sweep",
]
