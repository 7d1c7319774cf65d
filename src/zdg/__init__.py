"""Zero-divisor graphs of Z_n: construction, exact connectivity, predictions."""

from .arith import Factorization, factorize, format_factorization
from .connectivity import (
    ConnectivityReport,
    connectivity_report,
    edge_connectivity,
    min_degree,
    quotient_report,
    vertex_connectivity,
)
from .errors import NoZeroDivisorsError, ResourceLimitError
from .formulas import (
    Prediction,
    predict,
    predict_edge_connectivity,
    predict_min_degree,
    predict_vertex_connectivity,
    witness_cut,
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
)
from .harness import AuditFinding, AuditResult, analyze, audit, render, sweep

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "AuditResult",
    "CompressedZdg",
    "ConnectivityReport",
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
    "connectivity_report",
    "degree_profile",
    "edge_connectivity",
    "export_dot",
    "factorize",
    "format_factorization",
    "min_degree",
    "predict",
    "predict_edge_connectivity",
    "predict_min_degree",
    "predict_vertex_connectivity",
    "quotient_report",
    "render",
    "sweep",
    "vertex_connectivity",
    "witness_cut",
]
