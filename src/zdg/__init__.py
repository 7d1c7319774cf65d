"""Zero-divisor graphs of Z_n: the audit pipeline from n to its verdict.

The explicit graph, the degree profile and the per-quantity predictions
are the oracle side; import them from zdg.graphs and zdg.formulas.
"""

from .arith import Factorization, factorize, format_factorization
from .errors import NoZeroDivisorsError, ResourceLimitError
from .formulas import predict
from .graphs import (
    CompressedZdg,
    build_compressed,
    class_members,
    export_dot,
    quotient_report,
)
from .harness import AuditFinding, AuditResult, analyze, audit, render, sweep

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "AuditResult",
    "CompressedZdg",
    "Factorization",
    "NoZeroDivisorsError",
    "ResourceLimitError",
    "analyze",
    "audit",
    "build_compressed",
    "class_members",
    "export_dot",
    "factorize",
    "format_factorization",
    "predict",
    "quotient_report",
    "render",
    "sweep",
]
