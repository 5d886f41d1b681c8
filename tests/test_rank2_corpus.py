"""Every finite rank-2 Weyl groupoid from a triangulated polygon with at most 9 sides.

Cuntz and Heckenberger ("Weyl groupoids of rank two and continued fractions",
Algebra & Number Theory 3, 2009) showed that the finite connected rank-2 Cartan
graphs with a finite root system are given by the quiddity cycles of
triangulated convex polygons: q_k is the number of triangles at vertex k, and
the fan of the n-gon's groupoid reads the cycle q twice.  The corpus is
enumerated here, so no data file is needed.
"""

from __future__ import annotations

import functools

import pytest

from weylgpd.arrangement import chamber_bfs, default_seed_chamber
from weylgpd.realization import realize, roundtrip_check
from weylgpd.subarr import canonical_cycle, identify_rank2, rank2_graph_from_edge_sequence

from _oracles import gauss_solve, reference_affine_functional

SIZES = range(3, 10)


@functools.lru_cache(maxsize=None)
def triangulations(vertices: tuple) -> tuple:
    """All triangulations of the convex polygon on `vertices`, as triangle tuples.

    The side from the first to the last vertex lies in exactly one triangle;
    its apex splits the rest into two smaller polygons.
    """
    if len(vertices) < 3:
        return ((),)
    first, last = vertices[0], vertices[-1]
    out = []
    for k in range(1, len(vertices) - 1):
        for left in triangulations(vertices[: k + 1]):
            for right in triangulations(vertices[k:]):
                out.append(((first, vertices[k], last),) + left + right)
    return tuple(out)


def quiddity_cycles(n: int) -> list:
    """The quiddity cycle of every labelled triangulation of the n-gon."""
    cycles = []
    for triangles in triangulations(tuple(range(n))):
        counts = [0] * n
        for triangle in triangles:
            for v in triangle:
                counts[v] += 1
        cycles.append(tuple(counts))
    return cycles


CORPUS = sorted({canonical_cycle(q): q for n in SIZES for q in quiddity_cycles(n)}.values())


def test_corpus_size():
    assert [len(quiddity_cycles(n)) for n in SIZES] == [1, 2, 5, 14, 42, 132, 429]
    assert len(CORPUS) == 49


@pytest.mark.parametrize("q", CORPUS, ids=lambda q: "".join(map(str, q)))
def test_polygon_groupoid_realizes_and_identifies(q):
    n = len(q)
    seq = q * 2
    graph = rank2_graph_from_edge_sequence(seq)
    re = realize(graph, depth=2 * n)
    assert re.complete and len(re.order) == 2 * n
    assert re.gamma is None
    for depth in (n // 2, n, 2 * n):
        re_at = realize(graph, depth=depth)
        assert re_at.gamma == reference_affine_functional(2, [c.rays for c in re_at.chambers.values()])
    report = roundtrip_check(graph, depth=2 * n)
    assert report.equivalent, report.mismatches
    assert identify_rank2(re.table).signature == canonical_cycle(seq)
    # The survey's objects are the distinct root sets R^a of its chambers,
    # solved here by Fraction elimination: one for the Weyl groups A2, B2
    # and G2, several for every other polygon.
    atlas = chamber_bfs(re.table, default_seed_chamber(re.table), 10_000)
    root_sets = {frozenset(gauss_solve(c.basis, r) for r in re.table.roots) for c in atlas.chambers}
    assert {obj for obj in atlas.objects if obj is not None} == root_sets
    assert (len(root_sets) == 1) == ("".join(map(str, q)) in {"111", "2121", "313131"})
