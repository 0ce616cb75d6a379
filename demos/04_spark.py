"""Spark: the smallest dependent subset of frame vectors.

Frames from connected graphs are full spark (every dim-subset is a
basis), which is what makes them robust to erasures. For disconnected
graphs the spark drops to the smallest component order, because each
component's vectors carry their own zero-sum dependence.
"""

from pathlib import Path

import numpy as np

from gframes import build_lg_frame, parse_edge_list, spark, spark_via_components

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_edge_list((FIXTURES / f"{name}.edges").read_text())


for name in ("k3", "c4", "petersen", "figure2", "figure1", "two_triangles"):
    g = load(name)
    bundle = build_lg_frame(g)
    brute = spark(bundle.frame)
    formula = spark_via_components(g)
    print(f"{name:14s} spark: brute force {brute}, component minimum {formula}, "
          f"full spark: {brute == bundle.frame.dim + 1} "
          f"(dim {bundle.frame.dim}, count {bundle.frame.count})")

# The dependence witness on the 7-vertex fixture: the triangle's three
# columns already span only a 2-dimensional block.
bundle = build_lg_frame(load("figure1"))
triangle_block = bundle.frame.synthesis[:, :3]
print("\ntriangle columns, rank", np.linalg.matrix_rank(triangle_block), "of 3:")
print(np.round(triangle_block, 4))
print("their sum:", np.round(triangle_block.sum(axis=1), 12))
