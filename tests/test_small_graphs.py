"""Every connected graph on 2–6 vertices, up to isomorphism, as a correctness
oracle: each frame is full spark, the verdict is NOT_OD exactly when the
canonical products are not constant, and the argmax set is exact. Products
are decided in rational arithmetic: ``|f_i|² = d_i`` and ``|S⁻¹f_i|² =
(L⁺)_ii``, so vertex ``i``'s squared product is ``d_i·(L⁺)_ii``."""

import pytest

from gframes import (
    VERDICT_NOT_OD,
    VERDICT_UNIQUE_ALL,
    build_lg_frame,
    canonical_verdict,
    degree_sequence,
    spark,
    spark_via_components,
)

from _oracles import connected_graphs, exact_pinv_diagonal, spark_by_subsets

#: Connected graphs on n vertices up to isomorphism, OEIS A001349.
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

GRAPHS = connected_graphs(max(A001349))


def test_counts_match_oeis():
    assert {n: len(graphs) for n, graphs in GRAPHS.items()} == A001349


@pytest.mark.parametrize("n", sorted(A001349))
def test_full_spark(n):
    for g in GRAPHS[n]:
        frame = build_lg_frame(g).frame
        assert spark(frame) == spark_by_subsets(frame) == frame.dim + 1, sorted(g.edges)
        assert spark_via_components(g) == g.n


@pytest.mark.parametrize("n", sorted(A001349))
def test_verdict_and_argmax_set_are_exact(n):
    for g in GRAPHS[n]:
        squares = [d * p for d, p in zip(degree_sequence(g), exact_pinv_diagonal(g))]
        top = max(squares)
        report = canonical_verdict(build_lg_frame(g))
        expected = VERDICT_UNIQUE_ALL if len(set(squares)) == 1 else VERDICT_NOT_OD
        assert report.verdict == expected, sorted(g.edges)
        assert report.lambda1 == tuple(i for i, sq in enumerate(squares) if sq == top)
