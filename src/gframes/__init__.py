"""Finite frames generated by graph Laplacians.

Build a frame from a simple graph's Laplacian eigendecomposition, then ask
the questions that matter for erasure-robust reconstruction: is the graph
walk-regular, what is the frame's spark, what do the canonical-dual norm
products look like, and is the canonical dual the best dual when a
coefficient is lost. Vertices are 0-based in this API; the edge-list file
format and all CLI reports use 1-based labels.
"""

from .exceptions import ConvergenceError, EdgeListError, EnumerationGuardError
from .graphs import (
    Graph,
    degree_sequence,
    is_regular,
    laplacian_matrix,
    parse_edge_list,
)
from .linalg import (
    SymmetricSpectrum,
    eigh_symmetric,
    numerical_rank,
    spectral_norm,
)
from .walkreg import (
    WalkRegularityReport,
    is_walk_regular,
    is_walk_regular_definition,
)
from .frames import (
    Frame,
    GraphFrameBundle,
    build_lg_frame,
    canonical_dual,
    dual_family_member,
    spark,
    spark_via_components,
    verify_dual,
)
from .erasure import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_OD,
    VERDICT_OD_SINGLE,
    VERDICT_UNIQUE_ALL,
    ConstancyCertificate,
    ErasureReport,
    SearchResult,
    canonical_verdict,
    d1_fast,
    d_r,
    perturbation_search,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "EdgeListError", "EnumerationGuardError",
    "Graph", "degree_sequence", "is_regular", "laplacian_matrix",
    "parse_edge_list",
    "SymmetricSpectrum", "eigh_symmetric", "numerical_rank", "spectral_norm",
    "WalkRegularityReport", "is_walk_regular", "is_walk_regular_definition",
    "Frame", "GraphFrameBundle", "build_lg_frame", "canonical_dual",
    "dual_family_member", "spark", "spark_via_components", "verify_dual",
    "VERDICT_INCONCLUSIVE", "VERDICT_NOT_OD", "VERDICT_OD_SINGLE",
    "VERDICT_UNIQUE_ALL", "ConstancyCertificate", "ErasureReport",
    "SearchResult", "canonical_verdict", "d1_fast", "d_r", "perturbation_search",
    "__version__",
]
