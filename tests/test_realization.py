"""Geometric realization: chambers from graphs, separation, point location."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
import sys

import pytest

from weylgpd import arrangement, realization
from weylgpd.arrangement import Truncated, check_additive, check_crystallographic, default_seed_chamber
from weylgpd.builtins import BUILTIN_GCMS, builtin_graph
from weylgpd.cartan import CartanGraph, GeneralizedCartanMatrix, canonical_basis_key, generate_real_roots
from weylgpd.errors import AxiomViolation, BudgetExceeded, NotSimplyConnected
from weylgpd.exactlin import vec, vneg
from weylgpd.jsonio import graph_from_json
from weylgpd.arrangement import _column_is_coherent
from weylgpd.realization import (
    _root_defects,
    adjacency_equivalences_test,
    gallery_distance,
    local_cartan_graph_at,
    locate_point,
    realize,
    roundtrip_check,
    separating_set,
)
from weylgpd.subarr import rank2_graph_from_edge_sequence

from test_kernel import counting
from test_rank2_corpus import CORPUS
from _oracles import reference_affine_functional


A2 = ((2, -1), (-1, 2))
#: Standard graphs, and the depths at which their realizations' gamma is
#: checked against the full solve.
GAMMA_GRAPHS = {name: (rows, range(1, 9)) for name, rows in BUILTIN_GCMS.items()} | {
    "A2^(1)": (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (4, 6, 8)),
    "C2^(1)": (((2, -1, 0), (-2, 2, -2), (0, -1, 2)), (4, 6, 8)),
    "G2^(1)": (((2, -1, 0), (-1, 2, -3), (0, -1, 2)), (4, 6, 8)),
}
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

#: The A2 path 0 -(0)- 1 -(1)- 2 with base 1, a truncation of the A2 hexagon:
#: edge 1 at 0 and edge 0 at 2 are missing.
A2_PATH_JSON = {
    "rank": 2,
    "base": "1",
    "truncated": True,
    "objects": [{"id": str(k), "cartan": [list(row) for row in A2]} for k in range(3)],
    "edges": [
        {"i": 0, "from": "0", "to": "1"},
        {"i": 0, "from": "1", "to": "0"},
        {"i": 1, "from": "1", "to": "2"},
        {"i": 1, "from": "2", "to": "1"},
    ],
}


def a2_path(build: str) -> CartanGraph:
    if build == "json":
        return graph_from_json(A2_PATH_JSON)
    gcm = GeneralizedCartanMatrix.from_rows(A2)
    edges = {(0, 0): 1, (1, 0): 0, (1, 1): 2, (2, 1): 1}
    return CartanGraph.explicit({k: gcm for k in range(3)}, edges, 1, truncated=True)


def rank2_stream_quiddities(seed: int) -> list:
    """The quiddity cycles of the benchmark's rank2-stream workload, drawn
    from `seed` as its set-up draws them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    sizes = [n for n in workloads.RANK2_SIZES for _ in range(workloads.RANK2_PER_SIZE)]
    rng.shuffle(sizes)
    return [workloads.quiddity(rng, n) for n in sizes]


def assert_coherence_flags(graph: CartanGraph, depth: int) -> None:
    """The check that `realize` makes of each carried frame, on its new
    column across the realization's first edge into the object, is the full
    sign test of the frame."""
    re = realize(graph, depth)
    first_edge = {}
    for (obj, i), nxt in re.edges.items():
        if nxt != re.base:
            first_edge.setdefault(nxt, (obj, i))
    assert list(re.chambers) == [re.base, *first_edge] == list(re.bases)
    assert next(_root_defects(re.chambers[re.base].frame), None) is None
    for nxt, (obj, i) in first_edge.items():
        parent, frame = re.chambers[obj].frame, re.chambers[nxt].frame
        coherent = _column_is_coherent(parent.num_cols, i, frame.num_cols[i])
        assert coherent == (next(_root_defects(frame), None) is None)


class TestRealize:
    def test_a2(self):
        re = realize(builtin_graph("a2"), depth=8)
        assert re.complete
        assert len(re.order) == 6
        assert len(re.table.roots) == 6

    def test_rank_one(self):
        graph = CartanGraph.standard(GeneralizedCartanMatrix.from_rows([[2]]))
        re = realize(graph, depth=4)
        assert re.complete and len(re.order) == 2
        assert set(re.table.roots) == {vec((1,)), vec((-1,))}

    def test_affine_a1_bases_match_closed_form(self):
        re = realize(builtin_graph("aff-a1"), depth=10)
        assert not re.complete
        assert len(re.order) == 21
        gamma = vec((1, 1))

        def b_pos(n):  # {e2 + n*gamma, -(e2 + (n-1)*gamma)}
            return {vec((n, n + 1)), vneg(vec((n - 1, n)))}

        def b_neg(n):  # {e1 + n*gamma, -(e1 + (n-1)*gamma)}
            return {vec((n + 1, n)), vneg(vec((n, n - 1)))}

        found = {frozenset(basis) for basis in (set(b) for b in re.bases.values())}
        expected = {frozenset({vec((1, 0)), vec((0, 1))})}
        for n in range(1, 11):
            expected.add(frozenset(b_pos(n)))
            expected.add(frozenset(b_neg(n)))
        assert found == expected
        assert re.gamma == gamma

    @pytest.mark.parametrize(
        "seq, depth, obj, distance, text",
        [
            # (1,1,1,1,1,2) is no quiddity cycle: at depth 2 a realized root
            # has mixed signs at object 2.
            ((1, 1, 1, 1, 1, 2), 2, 2, 2, "root (-1, -2) is not sign-coherent at 2: coords (-1, 1)"),
            # Nor is (1,3,1,1,1,1,2,2), whose first defect is 4 edges away.
            ((1, 3, 1, 1, 1, 1, 2, 2), 16, 4, 4, "root (-1, 0) is not sign-coherent at 4: coords (2, -1)"),
            # Nor is (1,1,2,1,2,2,1,2): at depth 3 a root of object 3's basis
            # has mixed signs at the base, whose frame is checked first.
            ((1, 1, 2, 1, 2, 2, 1, 2), 3, 0, 0, "root (-1, 1) is not sign-coherent at 0: coords (-1, 1)"),
        ],
        ids=["distance-2", "distance-4", "base"],
    )
    def test_sign_incoherent_root_is_an_axiom_violation(self, seq, depth, obj, distance, text):
        graph = rank2_graph_from_edge_sequence(seq)
        with pytest.raises(AxiomViolation) as exc:
            realize(graph, depth=depth)
        assert str(exc.value) == text
        assert graph.ball(graph.base, depth)[0][obj] == distance

    @pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
    def test_carried_coherence_flag_of_builtin_graphs(self, name):
        assert_coherence_flags(builtin_graph(name), 8)

    def test_carried_coherence_flag_on_the_rank2_stream(self):
        quiddities = rank2_stream_quiddities(seed=1)
        assert len(quiddities) == 200
        for q in quiddities:
            assert_coherence_flags(rank2_graph_from_edge_sequence(q * 2), 2 * len(q))

    @pytest.mark.parametrize("name", sorted(GAMMA_GRAPHS))
    def test_gamma_is_the_full_solve(self, name):
        rows, depths = GAMMA_GRAPHS[name]
        graph = CartanGraph.standard(GeneralizedCartanMatrix.from_rows(rows))
        for depth in depths:
            re = realize(graph, depth=depth)
            assert re.gamma == reference_affine_functional(re.rank, [c.rays for c in re.chambers.values()])

    @pytest.mark.parametrize("build", ["explicit", "json"])
    def test_missing_edge_leaves_the_region_open(self, build):
        graph = a2_path(build)
        re = realize(graph, depth=8)
        assert re.complete is False
        assert isinstance(re.table.cone, Truncated)
        assert re.certified == {graph.base}
        assert generate_real_roots(graph, graph.base, 8).complete is False

    def test_double_cover_of_the_a2_hexagon_is_not_simply_connected(self):
        """The edge sequence (1,)*12 goes twice around the A2 hexagon: objects
        3 and 9 get one basis, so they realize the same chamber."""
        with pytest.raises(NotSimplyConnected) as exc:
            realize(rank2_graph_from_edge_sequence((1,) * 12))
        assert str(exc.value) == "objects 3 and 9 realize the same chamber"

    def test_not_simply_connected_detected(self):
        gcm = GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])
        one_object = CartanGraph.explicit({0: gcm}, {(0, 0): 0, (0, 1): 0}, 0)
        with pytest.raises(NotSimplyConnected):
            realize(one_object, depth=3)


class TestSeparatingSet:
    def test_same_object_empty(self):
        re = realize(builtin_graph("a2"), depth=8)
        b = re.order[0]
        assert len(separating_set(re, b, b)) == 0

    def test_adjacent_singleton_named(self):
        re = realize(builtin_graph("a2"), depth=8)
        b = re.base
        for i in range(2):
            b2 = re.edges[(b, i)]
            sep = separating_set(re, b, b2)
            assert len(sep) == 1
            from weylgpd.exactlin import primitive_normalize

            assert sep.keys == {primitive_normalize(re.bases[b][i])}

    def test_opposite_a2(self):
        re = realize(builtin_graph("a2"), depth=8)
        opposite = next(o for o in re.order if gallery_distance(re, re.base, o) == 3)
        assert len(separating_set(re, re.base, opposite)) == 3

    def test_object_outside_the_generated_region(self):
        """An object the realization does not hold is a bad argument, at
        either end and also when both ends are it."""
        re = realize(builtin_graph("a2"), depth=8)
        for args in ((re.base, "x"), ("x", re.base), ("x", "x")):
            with pytest.raises(ValueError, match=r"^x is not an object of the realization$"):
                gallery_distance(re, *args)

    def test_distance_equals_separation_everywhere(self):
        for name, depth in (("a2", 16), ("b2", 16), ("g2", 16), ("a3", 16), ("aff-a1", 8)):
            re = realize(builtin_graph(name), depth=depth)
            for b, b2 in itertools.combinations(re.order, 2):
                assert gallery_distance(re, b, b2) == len(separating_set(re, b, b2)), name


class TestAdjacencyEquivalences:
    def test_adjacent_pair_all_true(self):
        re = realize(builtin_graph("aff-a1"), depth=6)
        b = re.base
        b2 = re.edges[(b, 0)]
        result = adjacency_equivalences_test(re, b, b2, 0)
        assert result.i_adjacent and result.rho_matches and result.separating_singleton
        assert result.sandwich is None  # incomplete region cannot certify iii)

    def test_same_object_all_false(self):
        re = realize(builtin_graph("a2"), depth=8)
        result = adjacency_equivalences_test(re, re.base, re.base, 0)
        assert result == result.__class__(False, False, False, False)

    def test_same_object_at_the_edge_of_a_truncation(self):
        """A2 at depth 1: across wall 1 of ((-1, 0), (1, 1)) nothing is
        generated, and no other chamber meets the region of its wall 0, so
        the sandwich holds on the truncation; an object is not adjacent to
        itself, and the sandwich is False."""
        re = realize(builtin_graph("a2"), depth=1)
        b = ((-1, 0), (1, 1))
        assert (b, 1) not in re.edges and not re.complete
        result = adjacency_equivalences_test(re, b, b, 1)
        assert result == result.__class__(False, False, False, False)

    def test_opposite_pair_all_false(self):
        re = realize(builtin_graph("a2"), depth=8)
        opposite = next(o for o in re.order if gallery_distance(re, re.base, o) == 3)
        for i in range(2):
            result = adjacency_equivalences_test(re, re.base, opposite, i)
            assert not result.i_adjacent and not result.rho_matches
            assert result.sandwich is False and not result.separating_singleton

    def test_quadruple_agreement_property(self):
        re = realize(builtin_graph("b2"), depth=16)
        assert re.complete
        for b, b2 in itertools.product(re.order, repeat=2):
            for i in range(2):
                result = adjacency_equivalences_test(re, b, b2, i)
                assert result.all_agree(), (b, b2, i, result)


class TestLocatePoint:
    def test_interior_of_base(self):
        re = realize(builtin_graph("a2"), depth=8)
        result = locate_point(re, (2, 1))
        assert result.found and result.obj == re.base and result.steps == 0

    def test_affine_vertex_segmentwalk(self):
        re = realize(builtin_graph("aff-a1"), depth=10)
        result = locate_point(re, (3, -2))  # on the halfspace slice, two walls away
        assert result.found
        basis = re.bases[result.obj]
        assert all(sum(c * x for c, x in zip(beta, (3, -2))) >= 0 for beta in basis)

    def test_affine_negative_side_is_not_in_cone(self):
        re = realize(builtin_graph("aff-a1"), depth=10)
        assert locate_point(re, (1, -2)).status == "not_in_cone"
        assert locate_point(re, (-1, -1)).status == "not_in_cone"

    def test_spherical_far_corner(self):
        re = realize(builtin_graph("a3"), depth=16)
        result = locate_point(re, (-7, -5, -2))
        assert result.found

    def test_zero_rejected(self):
        re = realize(builtin_graph("a2"), depth=8)
        with pytest.raises(ValueError):
            locate_point(re, (0, 0))

    @pytest.mark.parametrize("x, text", [((1, 2, 3), r"\(1, 2, 3\)"), ((1,), r"\(1\)")])
    def test_a_point_of_another_rank_is_refused(self, x, text):
        """The walk's integer dot products would read only the shorter of the
        point and a basis covector: the rank is checked up front."""
        re = realize(builtin_graph("a2"), depth=8)
        with pytest.raises(ValueError, match=rf"^point {text} does not have rank 2$"):
            locate_point(re, x)

    def test_step_budget(self):
        re = realize(builtin_graph("a2"), depth=8)
        result = locate_point(re, (-2, -1), budget=0)
        assert (result.status, result.obj, result.steps) == ("budget_exceeded", ((-1, 0), (1, 1)), 1)

    def test_walk_leaves_the_generated_region(self):
        re = realize(builtin_graph("a2"), depth=1)
        result = locate_point(re, (-2, -1))
        assert (result.status, result.obj, result.steps) == ("budget_exceeded", ((-1, 0), (1, 1)), 1)


class TestLocalCartanGraph:
    def test_point_location_failure(self):
        re = realize(builtin_graph("a2"), depth=8)
        with pytest.raises(BudgetExceeded, match="^point location failed: budget_exceeded$"):
            local_cartan_graph_at(re, (-2, -1), budget=0)

    def test_interior_point_empty(self):
        re = realize(builtin_graph("a2"), depth=8)
        local = local_cartan_graph_at(re, (2, 1))
        assert local.indices == () and local.graph is None and local.roots == ()

    def test_single_wall_rank_one(self):
        re = realize(builtin_graph("a2"), depth=8)
        local = local_cartan_graph_at(re, (1, 0))  # on the e2-wall only
        assert len(local.indices) == 1
        assert set(local.roots) == {vec((0, 1)), vec((0, -1))}
        assert len(local.graph.objects) == 2

    def test_affine_vertex(self):
        re = realize(builtin_graph("aff-a1"), depth=10)
        local = local_cartan_graph_at(re, (1, 0))  # the first lattice vertex
        assert set(local.roots) == {vec((0, 1)), vec((0, -1))}
        for roots in local.integer_roots.values():
            assert roots == {(1,), (-1,)}

    def test_a3_codim2_point(self):
        re = realize(builtin_graph("a3"), depth=16)
        basis = re.bases[re.base]
        from weylgpd.exactlin import dual_basis

        rays = dual_basis(basis)
        x = rays[2]  # on the walls 0 and 1
        local = local_cartan_graph_at(re, tuple(x))
        assert local.indices == (0, 1)
        assert len(local.graph.objects) == 6  # triple-count fan of the pair residue


class TestRoundTrip:
    @pytest.mark.parametrize("name,objects", [("a2", 6), ("b2", 8), ("g2", 12), ("a3", 24)])
    def test_finite(self, name, objects):
        report = roundtrip_check(builtin_graph(name), depth=16)
        assert report.equivalent, report.mismatches[:3]
        assert report.objects_compared == objects

    @pytest.mark.parametrize("name,depth,certified,visited", [("b3", 3, 9, 16), ("a3", 1, 1, 4), ("f4", 3, 14, 30)])
    def test_checks_of_a_realized_truncation_stay_in_its_certified_region(self, name, depth, certified, visited):
        # The certified region plus its border; a3 at depth 1 and f4 at depth 3
        # used to walk past the border into chambers of missing roots.
        table = realize(builtin_graph(name), depth=depth).table
        for report in (check_crystallographic(table), check_additive(table)):
            assert report.passed
            assert (report.certified, report.chambers_visited) == (certified, visited)

    def test_a_wrong_extracted_entry_is_reported(self, monkeypatch):
        """Extraction that reads G2's -3 as -2 still gives a GCM, shared by
        the one object, so (C2) holds and the round trip compares every
        object: each of the 12 reports the entry."""
        extracted = arrangement._matrix_from_atlas

        def misread(*args):
            rows = extracted(*args).rows
            return GeneralizedCartanMatrix.from_rows([[-2 if a == -3 else a for a in row] for row in rows])

        monkeypatch.setattr(arrangement, "_matrix_from_atlas", misread)
        report = roundtrip_check(builtin_graph("g2"), depth=16)
        assert not report.equivalent and report.objects_compared == len(report.mismatches) == 12
        assert report.mismatches[0] == "object ((-1, 0), (1, 1)): matrix entry (1,0) is -3 in the graph, -2 extracted"
        assert all("matrix entry (1,0) is -3 in the graph, -2 extracted" in m for m in report.mismatches)

    def test_a_chamber_missing_from_the_extraction_is_reported(self, monkeypatch):
        """The survey of B3's realization at depth 3 takes its last certified
        chamber for one outside the certified region: that chamber is not
        extracted, and the other 8 compare equal."""
        realized = realize(builtin_graph("b3"), depth=3)
        last = realized.canon[[obj for obj in realized.order if obj in realized.certified][-1]]
        is_true = arrangement.chamber_is_true
        monkeypatch.setattr(
            arrangement, "chamber_is_true", lambda table, chamber: chamber.key != last and is_true(table, chamber)
        )
        report = roundtrip_check(builtin_graph("b3"), depth=3)
        assert not report.equivalent and report.objects_compared == 8
        assert report.mismatches == ("chamber ((0, -1, -2), (0, 1, 1), (1, 1, 2)) missing from extraction",)

    def test_a_differently_indexed_chamber_is_reported(self, monkeypatch):
        """The survey builds G2's last realized chamber with its basis
        reversed: that object's indexing differs, and the other 11 compare
        equal."""
        realized = realize(builtin_graph("g2"), depth=16)
        last = realized.canon[realized.order[-1]]
        build = arrangement._chamber

        def reversed_at_last(*args, **kwargs):
            chamber = build(*args, **kwargs)
            if canonical_basis_key(chamber.basis) == last:
                chamber.__dict__["basis"] = chamber.basis[::-1]
            return chamber

        monkeypatch.setattr(arrangement, "_chamber", reversed_at_last)
        report = roundtrip_check(builtin_graph("g2"), depth=16)
        assert not report.equivalent and report.objects_compared == 11
        assert report.mismatches == ("object ((-1, 0), (0, -1)): basis indexing differs",)

    def test_a_disagreeing_edge_is_reported(self, monkeypatch):
        """The extracted graph of G2's realization leads one edge of its
        second object to its last: the round trip names that edge, by the
        graph's index 1, which the index map sends to the chamber's 0."""
        realized = realize(builtin_graph("g2"), depth=16)
        second, last = realized.canon[realized.order[1]], realized.canon[realized.order[-1]]

        class Misread(CartanGraph):
            def rho(self, i, obj):
                return last if (i, obj) == (0, second) else super().rho(i, obj)

        monkeypatch.setattr(arrangement, "CartanGraph", Misread)
        report = roundtrip_check(builtin_graph("g2"), depth=16)
        assert not report.equivalent and report.objects_compared == 12
        assert report.mismatches == ("object ((-1, 0), (1, 1)): edge 1 disagrees",)

    def test_survey_starts_at_the_first_certified_object(self):
        # The base object 0 of this path has a missing edge, so only object 1
        # is certified; the survey and the index map start there.
        graph = graph_from_json({**A2_PATH_JSON, "base": "0"})
        report = roundtrip_check(graph, depth=8)
        assert report.equivalent, report.mismatches
        assert report.objects_compared == 1
        assert check_crystallographic(realize(graph, depth=8).table).certified == 1

    def test_affine_certified_interior(self):
        report = roundtrip_check(builtin_graph("aff-a1"), depth=8)
        assert report.equivalent, report.mismatches[:3]
        assert report.objects_compared == 15  # 17 generated, 2 frontier objects excluded

    @pytest.mark.parametrize(
        "graph,depth",
        [
            *((builtin_graph(name), depth) for name in sorted(BUILTIN_GCMS) for depth in (2, 4, 8)),
            *((rank2_graph_from_edge_sequence(q * 2), 2 * len(q)) for q in CORPUS),
        ],
        ids=[
            *(f"{name}-{depth}" for name in sorted(BUILTIN_GCMS) for depth in (2, 4, 8)),
            *("polygon-" + "".join(map(str, q)) for q in CORPUS),
        ],
    )
    def test_survey_starts_at_the_anchors_held_chamber(self, graph, depth):
        """The round trip surveys from the anchor's held chamber, indexed as
        a default seed: it equals `default_seed_chamber` of the realized
        table, with the same frame.  No seed is eliminated
        (`_extreme_basis`), and the report, index map included, is the one a
        survey from the default seed gives."""
        realized = realize(graph, depth)
        anchor = realization._anchor(realized.order, realized.certified, realized.base)
        seed, default = realization._anchor_seed(realized, anchor), default_seed_chamber(realized.table)
        assert seed == default
        fields = ("table", "index", "cols", "det", "num_cols", "integral")
        assert [getattr(seed.frame, f) for f in fields] == [getattr(default.frame, f) for f in fields]
        with counting({"_extreme_basis": 0}) as calls:
            report = roundtrip_check(graph, depth)
        assert calls["_extreme_basis"] == 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(realization, "_anchor_seed", lambda realized, anchor: default_seed_chamber(realized.table))
            assert roundtrip_check(graph, depth) == report
