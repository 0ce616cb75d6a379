"""Every connected graph on 2–7 vertices, up to isomorphism, as a correctness
oracle: each frame is full spark, the verdict is NOT_OD exactly when the
canonical products are not constant, the argmax set is exact, and the walk
census agrees with its definition. Products are decided in rational
arithmetic: ``|f_i|² = d_i`` and ``|S⁻¹f_i|² = (L⁺)_ii``, so vertex ``i``'s
squared product is ``d_i·(L⁺)_ii``. The graphs on 2–6 vertices are generated;
the 853 on 7 vertices, whose generation takes seconds, are read from
``data/connected7.g6``, written once by :func:`connected_graphs`."""

from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from gframes import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_OD,
    VERDICT_OD_SINGLE,
    VERDICT_UNIQUE_ALL,
    Graph,
    build_lg_frame,
    canonical_verdict,
    degree_sequence,
    is_walk_regular,
    spark,
    spark_via_components,
)
from gframes.walkreg import is_walk_regular_definition

from _oracles import (
    circulant_graph,
    connected_graphs,
    exact_pinv_diagonal,
    hypercube_graph,
    k33,
    petersen,
    read_graph6,
    spark_by_subsets,
)

#: Connected graphs on n vertices up to isomorphism, OEIS A001349.
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

GRAPHS = connected_graphs(6)
GRAPHS[7] = [read_graph6(line) for line in
             (Path(__file__).parent / "data" / "connected7.g6").read_text().split()]


def squared_products(g):
    return [d * p for d, p in zip(degree_sequence(g), exact_pinv_diagonal(g))]


SQUARES = {n: [squared_products(g) for g in graphs] for n, graphs in GRAPHS.items()}


def test_counts_match_oeis():
    assert {n: len(graphs) for n, graphs in GRAPHS.items()} == A001349
    assert all(g.n == 7 and g.is_connected for g in GRAPHS[7])
    assert len({g.edges for g in GRAPHS[7]}) == A001349[7]


@pytest.mark.parametrize("n", sorted(A001349))
def test_full_spark(n):
    for g in GRAPHS[n]:
        frame = build_lg_frame(g).frame
        assert spark(frame) == spark_by_subsets(frame) == frame.dim + 1, sorted(g.edges)
        assert spark_via_components(g) == g.n


@pytest.mark.parametrize("n", sorted(A001349))
def test_verdict_and_argmax_set_are_exact(n):
    for g, squares in zip(GRAPHS[n], SQUARES[n]):
        top = max(squares)
        report = canonical_verdict(build_lg_frame(g))
        expected = VERDICT_UNIQUE_ALL if len(set(squares)) == 1 else VERDICT_NOT_OD
        assert report.verdict == expected, sorted(g.edges)
        assert report.lambda1 == tuple(i for i, sq in enumerate(squares) if sq == top)


@pytest.mark.parametrize("n", sorted(A001349))
def test_census_matches_definition(n):
    for g in GRAPHS[n]:
        assert (is_walk_regular(g).is_walk_regular
                == is_walk_regular_definition(g, g.n).is_walk_regular), sorted(g.edges)


def test_products_within_rounding_of_exact():
    # the verdict's relative 1e-12 sits two orders of magnitude above this
    for n, graphs in GRAPHS.items():
        for g, squares in zip(graphs, SQUARES[n]):
            exact = np.sqrt(np.array(squares, dtype=float))
            products = canonical_verdict(build_lg_frame(g)).per_vertex_products
            assert np.abs(products - exact).max() <= 1e-14 * exact.max(), sorted(g.edges)


def test_pairs_follow_the_per_component_rule():
    # every pair of graphs on at most 5 vertices, exact ties across
    # components included: a component with constant products attaining the
    # exact maximum gives OD_1_ERASURE and a tie dual of the same D^1
    small = [(g, squares) for n in (2, 3, 4, 5) for g, squares in zip(GRAPHS[n], SQUARES[n])]
    verdicts = set()
    for (a, sa), (b, sb) in combinations_with_replacement(small, 2):
        g = Graph(a.n + b.n, frozenset(a.edges | {(u + a.n, v + a.n) for u, v in b.edges}))
        top = max(sa + sb)
        report = canonical_verdict(build_lg_frame(g))
        if len(set(sa + sb)) == 1:
            expected = VERDICT_UNIQUE_ALL
        elif any(len(set(s)) == 1 and s[0] == top for s in (sa, sb)):
            expected = VERDICT_OD_SINGLE
            assert report.verdict_basis["tie_d1"] == report.d1_canonical, sorted(g.edges)
        else:
            expected = VERDICT_INCONCLUSIVE
        assert report.verdict == expected, sorted(g.edges)
        verdicts.add(expected)
    assert len(verdicts) == 3


def corona(g):
    """G∘K1: a pendant vertex ``i + n`` at each vertex ``i`` of G."""
    return Graph(2 * g.n, frozenset(g.edges | {(i, i + g.n) for i in range(g.n)}))


def complete(m):
    return Graph(m, frozenset((u, v) for u in range(m) for v in range(u + 1, m)))


def prism(k):
    rim = {(i, (i + 1) % k) for i in range(k)}
    return Graph(2 * k, frozenset(rim | {(u + k, v + k) for u, v in rim} | {(i, i + k) for i in range(k)}))


CORONA_BASES = {
    **{f"C{m}": circulant_graph(m, [1]) for m in range(3, 11)},
    **{f"K{m}": complete(m) for m in range(3, 8)},
    "Petersen": petersen(), "K3,3": k33(), "Q3": hypercube_graph(3),
    **{f"prism{k}": prism(k) for k in range(3, 7)},
}


def test_corona_constancy_condition():
    # G∘K1 of a walk-regular d-regular G on m vertices has constant products
    # exactly when 4(m − 1) = d·(4·tr L_G⁺ + 1)
    constant = []
    for name, g in CORONA_BASES.items():
        m, d = g.n, degree_sequence(g)[0]
        condition = 4 * (m - 1) == d * (4 * sum(exact_pinv_diagonal(g)) + 1)
        squares = set(squared_products(corona(g)))
        assert (len(squares) == 1) == condition, name
        verdict = canonical_verdict(build_lg_frame(corona(g))).verdict
        assert verdict == (VERDICT_UNIQUE_ALL if condition else VERDICT_NOT_OD), name
        if condition:
            constant.append(name)
            assert squares == {Fraction(9, 8) if name == "C4" else Fraction(1)}
    assert constant == ["C4", "K4"]
