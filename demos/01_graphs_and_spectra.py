"""Graphs, their matrices, and Laplacian spectra.

Parse an edge-list file, inspect the adjacency and Laplacian matrices, and
see the one structural fact everything else builds on: the Laplacian's
rank is the vertex count minus the number of connected components.
"""

from pathlib import Path

import numpy as np

from gframes import (
    adjacency_matrix,
    degree_sequence,
    eigh_symmetric,
    laplacian_matrix,
    numerical_rank,
    parse_edge_list,
    relabel_by_component,
)
from gframes.graphs import Graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

np.set_printoptions(precision=4, suppress=True)

# The bundled 7-vertex fixture: a triangle and a 4-cycle, disconnected.
g = parse_edge_list((FIXTURES / "figure1.edges").read_text())
print(f"parsed graph: n={g.n}, m={g.m}")
print(f"components (0-based): {g.components}")
print(f"degrees: {degree_sequence(g)}")

lap = laplacian_matrix(g)
print("\nLaplacian (degree matrix minus adjacency matrix):")
print(lap)
print("row sums are exactly zero:", lap.sum(axis=1).tolist())
print("L equals D - A:", np.array_equal(
    lap, np.diag(degree_sequence(g)) - adjacency_matrix(g)))

# Eigendecomposition: LAPACK eigh, eigenvalues descending, fixed eigenvector signs.
spectrum = eigh_symmetric(lap)
print("\nLaplacian eigenvalues:", np.round(spectrum.eigenvalues, 9))
print("one zero eigenvalue per component:",
      g.n - spectrum.nonzero_count, "zeros for", len(g.components), "components")
print("rank(L) = n - p:", numerical_rank(lap, 1e-9), "=", g.n, "-", len(g.components))

# Relabeling puts each component into a contiguous label range; graphs that
# are already contiguous come back unchanged.
interleaved = Graph(4, frozenset({(0, 2), (1, 3)}))
relabeled, mapping = relabel_by_component(interleaved)
print("\ninterleaved components", interleaved.components,
      "relabel to", relabeled.components, "via mapping", mapping)
print("relabeled Laplacian is block-diagonal:")
print(laplacian_matrix(relabeled))
