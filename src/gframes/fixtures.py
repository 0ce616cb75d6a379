"""Named test graphs used throughout the test suite and the demos.

Each constructor mirrors one of the bundled ``fixtures/*.edges`` files
(the registry below is keyed by file stem), so file parsing can be
cross-checked against an independent in-code definition.
"""

from __future__ import annotations

from .graphs import Graph


def k3() -> Graph:
    """Complete graph on 3 vertices."""
    return Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))


def c4() -> Graph:
    """Cycle on 4 vertices."""
    return Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def path3() -> Graph:
    """Path on 3 vertices; the smallest non-regular connected graph."""
    return Graph(3, frozenset({(0, 1), (1, 2)}))


def two_triangles() -> Graph:
    """Disjoint union of two triangles."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}))


def k33() -> Graph:
    """Complete bipartite graph on parts {0,1,2} and {3,4,5}."""
    return Graph(6, frozenset((u, v) for u in range(3) for v in range(3, 6)))


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle, inner pentagram, matching spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, frozenset(outer + spokes + inner))


def k3_plus_c4() -> Graph:
    """Disjoint union of a triangle on {0,1,2} and a 4-cycle on {3,4,5,6}.

    The smallest fixture whose frame is not full spark, and whose canonical
    dual is optimal for one erasure without being the unique such dual.
    """
    return Graph(7, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 6), (4, 5), (5, 6)}))


def cubic8() -> Graph:
    """Connected 3-regular graph on 8 vertices that is not walk-regular:
    its two triangles avoid vertices 0 and 5, so closed 3-walk counts
    differ between vertices. Canonical-dual products are non-constant."""
    edges = {(0, 1), (0, 4), (0, 5), (1, 2), (1, 7), (2, 3), (2, 7),
             (3, 4), (3, 6), (4, 6), (5, 6), (5, 7)}
    return Graph(8, frozenset(edges))


def c4_corona() -> Graph:
    """C4∘K1: a 4-cycle on {0,1,2,3} with a pendant vertex ``i + 4`` at each
    vertex ``i``. Irregular, so not walk-regular, yet every canonical
    product is √(9/8): the canonical dual is the unique optimal dual by
    constancy alone."""
    cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
    return Graph(8, frozenset(cycle | {(i, i + 4) for i in range(4)}))


def k4_corona() -> Graph:
    """K4∘K1: a complete graph on {0,1,2,3} with a pendant vertex ``i + 4``
    at each vertex ``i``. Irregular, yet every canonical product is 1."""
    clique = {(u, v) for u in range(4) for v in range(u + 1, 4)}
    return Graph(8, frozenset(clique | {(i, i + 4) for i in range(4)}))


#: Registry keyed by the bundled edge-list file stems.
FIXTURES = {
    "k3": k3,
    "c4": c4,
    "path3": path3,
    "two_triangles": two_triangles,
    "k33": k33,
    "petersen": petersen,
    "figure1": k3_plus_c4,
    "figure2": cubic8,
    "c4_corona": c4_corona,
    "k4_corona": k4_corona,
}

#: Fixtures that are walk-regular (hence regular with equal-diagonal
#: pseudoinverses and constant canonical products).
WALK_REGULAR = ("k3", "c4", "two_triangles", "k33", "petersen")

#: Fixtures that fail walk-regularity; the coronas still have constant
#: canonical products.
NOT_WALK_REGULAR = ("path3", "figure1", "figure2", "c4_corona", "k4_corona")
