"""Zero-divisor graphs of Z_n: the audit pipeline from n to its verdict.

The explicit graph, the compressed graph, the degree profile, the DOT
export and the per-quantity predictions are the oracle side; import them
from zdg.graphs and zdg.formulas.  Importing the package loads neither
zdg.graphs nor the flow oracle.
"""

from .arith import Factorization, factorize, format_factorization
from .errors import NoZeroDivisorsError, ResourceLimitError
from .formulas import predict
from .harness import AuditFinding, AuditResult, analyze, audit, render, sweep
from .quotient import quotient_report

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "AuditResult",
    "Factorization",
    "NoZeroDivisorsError",
    "ResourceLimitError",
    "analyze",
    "audit",
    "factorize",
    "format_factorization",
    "predict",
    "quotient_report",
    "render",
    "sweep",
]
