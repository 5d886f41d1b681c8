"""Cartan matrices, graphs, real roots, axioms, residues, morphisms."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from weylgpd.builtins import BUILTIN_GCMS, builtin_graph
from weylgpd.cartan import (
    AxiomFinding,
    CartanGraph,
    GeneralizedCartanMatrix,
    Infinite,
    Morphism,
    SimpleConnectivityReport,
    _carried_column,
    _reflected_rows,
    check_root_system_axioms,
    check_simply_connected,
    generate_real_roots,
    m_ij,
    m_ij_certified,
    reflect,
    residue,
    validate_gcm,
)
from weylgpd.errors import BudgetExceeded, InvalidCartanMatrix, InvalidTable, NonSquare, NotSimplyConnected
from weylgpd.subarr import rank2_graph_from_edge_sequence

from _oracles import brute_real_roots_standard, int_mat_mul, reference_explicit_check, reflection_matrix

A2 = GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])


def one_object_graph(gcm: GeneralizedCartanMatrix) -> CartanGraph:
    edges = {(0, i): 0 for i in range(gcm.rank)}
    return CartanGraph.explicit({0: gcm}, edges, 0)


def cut_hexagon() -> CartanGraph:
    """A2's hexagon of objects (edge sequence (1,)*6) with the edge pair at
    object 0, wall 1 removed, built as a truncation: the path 0 - 1 - ... - 5."""
    hexagon = rank2_graph_from_edge_sequence((1,) * 6)
    matrices = {obj: hexagon.matrix(obj) for obj in hexagon.objects}
    cut = ((0, 1), (5, 1))
    edges = {(obj, i): hexagon.rho(i, obj) for obj in hexagon.objects for i in range(2) if (obj, i) not in cut}
    return CartanGraph.explicit(matrices, edges, 0, truncated=True)


class TestValidateGcm:
    def test_valid(self):
        assert validate_gcm([[2, -1], [-1, 2]]).valid
        assert validate_gcm([[2, -3], [-1, 2]]).valid

    def test_positive_off_diagonal_violation(self):
        report = validate_gcm([[2, 1], [-1, 2]])
        assert [str(v) for v in report.violations] == ["(M1) at (0, 1): off-diagonal entry 1 > 0"]

    def test_zero_symmetry_violation(self):
        report = validate_gcm([[2, 0], [-1, 2]])
        assert not report.valid
        assert any(v.axiom == "M2" and v.position == (0, 1) for v in report.violations)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            validate_gcm([[2, -1]])

    def test_constructor_enforces(self):
        with pytest.raises(InvalidCartanMatrix):
            GeneralizedCartanMatrix.from_rows([[1, 0], [0, 2]])

    def test_constructor_refuses_non_integer_entries(self):
        for entry in (2.5, Fraction(5, 2), float("inf"), float("nan"), "2.5"):
            with pytest.raises(ValueError, match="not an integer"):
                GeneralizedCartanMatrix.from_rows([[entry]])
        assert GeneralizedCartanMatrix.from_rows([[2.0, Fraction(-1)], ["-1", 2]]).rows == ((2, -1), (-1, 2))


class TestReflect:
    def test_a2(self):
        assert reflect(A2, 0, (0, 1)) == (1, 1)

    def test_diagonal(self):
        assert reflect(A2, 0, (1, 0)) == (-1, 0)
        assert reflect(A2, 1, (0, 1)) == (0, -1)

    def test_triple_bond(self):
        g2 = GeneralizedCartanMatrix.from_rows([[2, -3], [-1, 2]])
        assert reflect(g2, 0, (0, 1)) == (3, 1)

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(200):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            for i in (0, 1):
                assert reflect(A2, i, reflect(A2, i, v)) == v

    def test_a_rational_vector_is_reflected_on_its_rationals(self):
        assert reflect(A2, 0, (Fraction(1, 2), 0)) == (Fraction(-1, 2), 0)
        assert reflect(A2, 0, (Fraction(1, 2), 1)) == (Fraction(1, 2), 1)


def a2_standard():
    graph = CartanGraph.standard(A2)
    return graph, graph.base


# Each of these answered, or raised IndexError or KeyError, before its argument was checked.
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda g, b: reflect(A2, -1, (1, 0)), "wall -1 is outside 0..1"),
        (lambda g, b: reflect(A2, 0, (1,)), "vector (1) does not have rank 2"),
        (lambda g, b: Morphism.from_word(g, b, (-1,)), "wall -1 is outside 0..1"),
        (lambda g, b: m_ij(generate_real_roots(g, b, 3), b, -1, 0), "wall -1 is outside 0..1"),
        (lambda g, b: residue(g, b, (-1,), 10), "wall -1 is outside 0..1"),
        (lambda g, b: m_ij_certified(g, b, 0, 5, 10), "wall 5 is outside 0..1"),
        (lambda g, b: m_ij_certified(g, b, 1, 1, 10), "m_ij needs distinct indices"),
        (lambda g, b: g.rho(0, (9, 9)), "(9, 9) is not an object of the graph"),
    ],
    ids=["reflect-wall", "reflect-vector", "from_word", "m_ij", "residue", "m_ij_certified", "m_ij_certified-equal",
         "rho"],
)
def test_a_bad_index_or_object_is_refused_on_the_graph_side(call, text):
    with pytest.raises(InvalidTable, match=f"^{re.escape(text)}$"):
        call(*a2_standard())


# Indefinite matrices whose standard graphs `weylgpd roundtrip` passes at
# depths 3 and 5.
INDEFINITE = {
    "indef-2": [[2, -3], [-3, 2]],
    "indef-3a": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
    "indef-3b": [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]],
}


def transpose(matrix):
    return tuple(zip(*matrix))


@pytest.mark.parametrize("name", [*BUILTIN_GCMS, *INDEFINITE])
def test_simple_reflection_matches_the_reference(name):
    """The library's one statement of the simple reflection, T with row
    j = e_j - c_ij e_i, against the full matrix S = T^t of sigma_i and its
    products: `reflect` is S . v, the right action x . T and the left action
    T . M are M . S^t and S^t . M on seeded random integer matrices,
    `Morphism.from_word` is the product of the S along the word, and T is an
    involution."""
    C = GeneralizedCartanMatrix.from_rows(BUILTIN_GCMS.get(name) or INDEFINITE[name])
    r = C.rank
    rng = random.Random(name)
    identity = tuple(tuple(int(j == k) for k in range(r)) for j in range(r))
    for i in range(r):
        S, m = reflection_matrix(C, i), [-c for c in C.rows[i]]
        for _ in range(20):
            v = tuple(rng.randint(-9, 9) for _ in range(r))
            assert reflect(C, i, v) == tuple(row[0] for row in int_mat_mul(S, transpose([v])))
            n = rng.randint(1, 6)
            M = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(r))
            assert _reflected_rows(M, i, m) == int_mat_mul(transpose(S), M)
            # M's rows are the columns of the n x r matrix M^t.
            assert _carried_column(M, i, m) == transpose(int_mat_mul(transpose(M), transpose(S)))[i]
        assert _reflected_rows(_reflected_rows(identity, i, m), i, m) == identity
        # I . T by columns is T by columns, the rows of S.
        once = identity[:i] + (_carried_column(identity, i, m),) + identity[i + 1:]
        assert once == S and once[:i] + (_carried_column(once, i, m),) + once[i + 1:] == identity
    graph = CartanGraph.standard(C)
    for _ in range(20):
        word = [rng.randrange(r) for _ in range(rng.randint(0, 10))]
        product = identity
        for i in word:
            product = int_mat_mul(reflection_matrix(C, i), product)
        assert Morphism.from_word(graph, graph.base, word).matrix == product


class TestGenerateRealRoots:
    def test_a2_single_object(self):
        graph = one_object_graph(A2)
        rrs = generate_real_roots(graph, 0, 3)
        assert rrs.complete
        assert rrs.at(0) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}

    def test_negative_depth(self):
        with pytest.raises(InvalidTable, match="^depth must be >= 0$"):
            generate_real_roots(one_object_graph(A2), 0, -1)

    def test_rank_one(self):
        graph = CartanGraph.standard(GeneralizedCartanMatrix.from_rows([[2]]))
        rrs = generate_real_roots(graph, graph.base, 1)
        assert rrs.complete
        assert rrs.at(graph.base) == {(1,), (-1,)}

    @pytest.mark.parametrize("depth", [4, 7, 10])
    def test_affine_a1_matches_brute_force_and_formula(self, depth):
        graph = builtin_graph("aff-a1")
        rrs = generate_real_roots(graph, graph.base, depth)
        assert not rrs.complete
        got = rrs.at(graph.base)
        assert got == brute_real_roots_standard(((2, -2), (-2, 2)), depth)
        # Every root has the closed form +-(alpha_i + k*gamma), gamma = (1,1).
        for v in got:
            a, b = v
            assert abs(a - b) == 1

    def test_finite_types_stabilize(self):
        sizes = {"a2": 6, "b2": 8, "g2": 12, "a3": 12, "b3": 18}
        for name, count in sizes.items():
            graph = builtin_graph(name)
            rrs = generate_real_roots(graph, graph.base, 16)
            assert rrs.complete, name
            assert len(rrs.at(graph.base)) == count, name


class TestAxioms:
    def test_a2_all_pass(self):
        graph = one_object_graph(A2)
        rrs = generate_real_roots(graph, 0, 4)
        report = check_root_system_axioms(graph, rrs, 4)
        assert report.all_pass

    def test_r2_failure_witness(self):
        graph = one_object_graph(A2)
        bad = {0: {(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}}
        report = check_root_system_axioms(graph, bad, 4)
        finding = next(f for f in report.findings if f.axiom == "R2")
        assert finding.status == "fail"
        assert finding.witness == (2, 0)

    def test_r2_missing_negation_fails(self):
        """An interior object of a complete set that holds alpha_0's multiples
        only as -alpha_0's absence fails (R2), with -alpha_0 as its witness."""
        graph = builtin_graph("a2")
        roots = {graph.base: {(1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}}
        report = check_root_system_axioms(graph, roots, 4)
        assert [(f.status, f.witness) for f in report.findings if f.axiom == "R2"] == [("fail", (-1, 0))]

    def test_r3_failures_name_the_wall_and_the_root(self):
        """On the square graph of edge sequence (0, 0, 0, 0), every object
        holding +-e_1 and +-e_2, and rho_0(base) +-(1, 1) as well: sigma_0
        carries (1, 1) out of object 1's neighbor set, and the images into
        object 1 cannot cover it, which (R3) names at objects 0 and 2."""
        graph = rank2_graph_from_edge_sequence((0, 0, 0, 0))
        roots = {obj: {(1, 0), (-1, 0), (0, 1), (0, -1)} for obj in graph.objects}
        roots[graph.rho(0, graph.base)] |= {(1, 1), (-1, -1)}
        report = check_root_system_axioms(graph, roots, 4)
        r3 = {f.obj: (f.status, f.witness) for f in report.findings if f.axiom == "R3"}
        assert r3 == {
            0: ("fail", (0, "image differs from neighbor set")),
            1: ("fail", (0, (-1, 1))),
            2: ("fail", (1, "image differs from neighbor set")),
            3: ("pass", None),
        }

    def test_a_root_whose_coordinates_mix_signs_fails_r1(self):
        """(1, -1) in the base object of A2 is not sign-coherent: (R1) fails
        with it as the witness, and the report's status for R1 is "fail"."""
        graph = builtin_graph("a2")
        roots = {graph.base: {(1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)}}
        report = check_root_system_axioms(graph, roots, 1)
        assert [(f.status, f.witness) for f in report.findings if f.axiom == "R1"] == [("fail", (1, -1))]
        assert report.status("R1") == "fail"

    def test_affine_truncation_statuses(self):
        graph = builtin_graph("aff-a1")
        rrs = generate_real_roots(graph, graph.base, 6)
        report = check_root_system_axioms(graph, rrs, 6)
        assert report.status("R1") == "pass"
        assert report.status("R2") == "pass"
        assert report.status("R3") == "pass"
        assert report.status("R4") == "insufficient_depth"

    def test_finite_types_r4(self):
        for name in ("a2", "b2", "g2", "a3"):
            graph = builtin_graph(name)
            rrs = generate_real_roots(graph, graph.base, 16)
            report = check_root_system_axioms(graph, rrs, 16)
            assert report.all_pass, (name, report.failures())

    def test_cut_hexagon_at_depth_one_lacks_depth(self):
        """On the cut hexagon at depth 1, object 0 is the one interior
        object: -alpha_1 reaches it only across the missing edge, so (R2) and
        (R3) lack depth there, and so does (R4), whose residue is not closed."""
        graph = cut_hexagon()
        report = check_root_system_axioms(graph, generate_real_roots(graph, 0, 1), 1)
        assert not report.complete and report.skipped_frontier == (1,)
        assert [f for f in report.findings if f.status != "pass"] == [
            AxiomFinding("R2", 0, "insufficient_depth", (0, -1)),
            AxiomFinding("R3", 0, "insufficient_depth", None),
            AxiomFinding("R4", 0, "insufficient_depth", (0, 1)),
        ]
        assert report.status("R2") == report.status("R3") == "insufficient_depth"

    @pytest.mark.parametrize("depth", [6, 16])
    def test_double_cover_fails_r4_at_every_object(self, depth):
        """The edge sequence (1,)*12 goes twice around the A2 hexagon: m_01 = 3
        at every object, yet (rho_0 rho_1)^3 lands on the object 6 steps on."""
        graph = rank2_graph_from_edge_sequence((1,) * 12)
        report = check_root_system_axioms(graph, generate_real_roots(graph, graph.base, depth), depth)
        assert report.complete
        assert all(f.status == "pass" for f in report.findings if f.axiom != "R4")
        r4 = {f.obj: f for f in report.findings if f.axiom == "R4"}
        assert sorted(r4) == list(range(12))
        assert all(f.status == "fail" for f in r4.values())
        assert r4[0].witness == (0, 1, 3, 6)
        assert r4[1].witness == (0, 1, 3, 7)


class TestMij:
    def test_a2(self):
        graph = one_object_graph(A2)
        rrs = generate_real_roots(graph, 0, 4)
        assert m_ij(rrs, 0, 0, 1) == 3

    def test_a_truncation_without_last_layer_growth_counts(self):
        """A2's standard graph at depth 2 is not complete, and its last layer
        adds only -(a_0 + a_1) at the base, outside the cone of a_0 and a_1:
        the truncated count is the finite m_01."""
        graph = builtin_graph("a2")
        rrs = generate_real_roots(graph, graph.base, 2)
        assert not rrs.complete and rrs.last_layer[graph.base] == {(-1, -1)}
        assert m_ij(rrs, graph.base, 0, 1) == 3

    def test_equal_indices(self):
        rrs = generate_real_roots(one_object_graph(A2), 0, 4)
        with pytest.raises(InvalidTable, match="^m_ij needs distinct indices$"):
            m_ij(rrs, 0, 1, 1)

    def test_b2_type(self):
        graph = builtin_graph("b2")
        rrs = generate_real_roots(graph, graph.base, 10)
        assert m_ij(rrs, graph.base, 0, 1) == 4

    def test_g2(self):
        graph = builtin_graph("g2")
        rrs = generate_real_roots(graph, graph.base, 14)
        assert m_ij(rrs, graph.base, 0, 1) == 6

    @pytest.mark.parametrize("depth", [3, 5, 8])
    def test_affine_flags_infinite(self, depth):
        graph = builtin_graph("aff-a1")
        rrs = generate_real_roots(graph, graph.base, depth)
        result = m_ij(rrs, graph.base, 0, 1)
        assert isinstance(result, Infinite)
        assert result.depth == depth

    def test_certified_variants(self):
        graph = builtin_graph("a3")
        value, certified = m_ij_certified(graph, graph.base, 0, 1, 20)
        assert (value, certified) == (3, True)
        value, certified = m_ij_certified(graph, graph.base, 0, 2, 20)
        assert (value, certified) == (2, True)
        graph = builtin_graph("aff-a1")
        value, certified = m_ij_certified(graph, graph.base, 0, 1, 10)
        assert not certified and isinstance(value, Infinite)


class TestResidue:
    def test_rank_one_residue(self):
        graph = builtin_graph("a2")
        sub = residue(graph, graph.base, (0,), 10)
        assert len(sub.objects) == 2
        assert all(sub.matrix(o).rows == ((2,),) for o in sub.objects)

    def test_f4_pair_residue_is_double_bond(self):
        graph = builtin_graph("f4")
        sub = residue(graph, graph.base, (1, 2), 40)
        assert len(sub.objects) == 8
        assert {sub.matrix(o).rows for o in sub.objects} == {((2, -1), (-2, 2))}

    def test_full_index_set_residue_is_component(self):
        graph = builtin_graph("a2")
        sub = residue(graph, graph.base, (0, 1), 20)
        assert len(sub.objects) == 6

    def test_empty_index_set(self):
        graph = builtin_graph("a2")
        with pytest.raises(InvalidTable, match="^the index subset must be nonempty$"):
            residue(graph, graph.base, (), 10)

    def test_budget_exceeded_partial(self):
        graph = builtin_graph("aff-a1")
        with pytest.raises(BudgetExceeded) as err:
            residue(graph, graph.base, (0, 1), 5)
        assert err.value.partial is not None


class TestExplicit:
    # Objects 0 and 1 have A2's matrix, object 2 another row 0.  The first
    # edge, 1 -- 2 by label 0, breaks (C2); rho_1 sends 0 to 1 and 1 to 2,
    # which breaks (C1) at 0.
    MATRICES = {0: A2, 1: A2, 2: GeneralizedCartanMatrix.from_rows([[2, -2], [-1, 2]])}
    EDGES = {(1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 2}

    @pytest.mark.parametrize(
        "order,error,message",
        [
            ((0, 1, 2), NotSimplyConnected, "(C1) fails: rho_1^2(0) = 2"),
            ((1, 2, 0), InvalidCartanMatrix, "(C2) at (0, 0): row 0 differs across edge 1 -- 2"),
        ],
    )
    def test_first_violation_is_named_object_by_object(self, order, error, message):
        """A graph that breaks (C1) and (C2) fails the one pass over its
        edges, which meets the (C2) violation first, and `explicit` names the
        violation that the object-by-object check, in `matrices` order, meets
        first, with the reference's text."""
        matrices = {obj: self.MATRICES[obj] for obj in order}
        with pytest.raises(error) as raised:
            CartanGraph.explicit(matrices, self.EDGES, order[0])
        with pytest.raises(error) as expected:
            reference_explicit_check(matrices, self.EDGES)
        assert str(raised.value) == str(expected.value) == message


class TestSimplyConnected:
    def test_one_object_graph_is_not(self):
        report = check_simply_connected(one_object_graph(A2), 10)
        assert not report.simply_connected
        assert report.witness is not None

    def test_standard_lazy_graph_is(self):
        report = check_simply_connected(builtin_graph("a2"), 20)
        assert report.simply_connected
        assert report.complete

    def test_extracted_graph_is(self):
        from weylgpd.builtins import builtin_table
        from weylgpd.arrangement import extract_cartan_graph

        result = extract_cartan_graph(builtin_table("b2"))
        report = check_simply_connected(result.graph, 30)
        assert report.simply_connected and report.complete

    @pytest.mark.parametrize("budget", [1, 2])
    def test_a_cut_walk_finds_no_loop_across_seeds(self, budget):
        """The A2 hexagon's walk from object 0, cut by the budget, leaves an
        object unseen; the walk from that object starts at the identity, and
        its edges into the first walk's objects are not compared."""
        report = check_simply_connected(rank2_graph_from_edge_sequence((1,) * 6), budget)
        assert report == SimpleConnectivityReport(True, False, budget, None, 6)

    def test_b3_extracted_graph_is_at_every_budget(self):
        from weylgpd.builtins import builtin_table
        from weylgpd.arrangement import extract_cartan_graph

        graph = extract_cartan_graph(builtin_table("b3")).graph
        for budget in range(1, 6):
            assert check_simply_connected(graph, budget) == SimpleConnectivityReport(True, False, budget, None, 48)
        assert check_simply_connected(graph, 20) == SimpleConnectivityReport(True, True, 20, None, 48)

    @pytest.mark.parametrize("budget", [1, 2, 10])
    def test_one_object_graph_loops_at_every_budget(self, budget):
        report = check_simply_connected(one_object_graph(A2), budget)
        assert report == SimpleConnectivityReport(False, False, budget, (0, (0,)), 1)

    @pytest.mark.parametrize("budget", [3, 20])
    def test_double_cover_has_no_loop(self, budget):
        """The edge sequence (1,)*12 fails (R4), not simple connectedness: its
        one cycle's morphism is (sigma_0 sigma_1)^6 = id."""
        report = check_simply_connected(rank2_graph_from_edge_sequence((1,) * 12), budget)
        assert report == SimpleConnectivityReport(True, budget > 6, budget, None, 12)

    def test_cut_hexagon_is_with_its_missing_edge_skipped(self):
        assert check_simply_connected(cut_hexagon(), 10) == SimpleConnectivityReport(True, True, 10, None, 6)


class TestMorphism:
    def test_words_act_unimodularly(self):
        rng = random.Random(11)
        graph = builtin_graph("a3")
        for _ in range(100):
            word = [rng.randrange(3) for _ in range(rng.randint(0, 8))]
            morphism = Morphism.from_word(graph, graph.base, word)
            assert morphism.det() in (1, -1)

    def test_word_across_a_missing_edge(self):
        with pytest.raises(BudgetExceeded, match=r"^edge 1 missing at 0$"):
            Morphism.from_word(cut_hexagon(), 0, (0, 0, 1))

    def test_involution_words_are_identity(self):
        graph = builtin_graph("g2")
        for i in (0, 1):
            morphism = Morphism.from_word(graph, graph.base, [i, i])
            assert morphism.matrix == tuple(
                tuple(1 if a == b else 0 for b in range(2)) for a in range(2)
            )
            assert morphism.target == graph.base
