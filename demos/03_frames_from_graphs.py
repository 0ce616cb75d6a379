"""Building a frame from a graph Laplacian.

Scaling the eigenvectors of the nonzero Laplacian eigenvalues by the
square roots of those eigenvalues gives a synthesis matrix whose Gramian
reproduces the Laplacian exactly. The frame vectors inherit the graph's
structure: squared norms are vertex degrees, each component's vectors sum
to zero, and any two realizations differ only by an orthogonal map.
"""

from pathlib import Path

import numpy as np

from gframes import (
    Frame,
    build_lg_frame,
    degree_sequence,
    laplacian_matrix,
    parse_edge_list,
    verify_dual,
    canonical_dual,
    dual_family_member,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

np.set_printoptions(precision=4, suppress=True)

# The bundled 7-vertex fixture: a triangle and a 4-cycle, disconnected.
bundle = build_lg_frame(parse_edge_list((FIXTURES / "figure1.edges").read_text()))
frame = bundle.frame
print(f"frame: {frame.count} vectors in dimension {frame.dim}"
      f" (n={bundle.graph.n}, p={bundle.component_count} components)")

print("\nsynthesis matrix (columns are frame vectors):")
print(frame.synthesis)
print("\nGramian minus Laplacian, max |entry|:",
      np.abs(frame.gramian - laplacian_matrix(bundle.graph)).max())
print("squared norms vs degrees:", np.diag(frame.gramian), degree_sequence(bundle.graph))
print("frame operator is the diagonal of nonzero eigenvalues:")
print(frame.frame_operator)
for members in bundle.graph.components:
    total = frame.synthesis[:, list(members)].sum(axis=1)
    print(f"component {members} columns sum to zero: |sum| = {np.linalg.norm(total):.2e}")

# Unitary equivalence: rotate the frame, then recover the rotation as the
# polar factor of synthesis @ rotated^T (orthogonal Procrustes).
rng = np.random.default_rng(1)
q, _ = np.linalg.qr(rng.standard_normal((frame.dim, frame.dim)))
rotated = Frame(q @ frame.synthesis)
u, _, vt = np.linalg.svd(frame.synthesis @ rotated.synthesis.T)
witness = u @ vt
print("\nrecovered the rotation between two realizations:",
      np.abs(witness @ rotated.synthesis - frame.synthesis).max())

# Duals are plain k x n matrices, column v being vertex v's dual vector:
# the canonical dual S^-1 F, and the full family of duals obtained by
# adding one arbitrary shift vector per component.
dual = canonical_dual(bundle)
print("\ncanonical dual residual:", verify_dual(frame, dual))
shifts = 0.2 * rng.standard_normal((bundle.component_count, frame.dim))
member = dual_family_member(bundle, shifts)
print("random family member residual:", verify_dual(frame, member))
