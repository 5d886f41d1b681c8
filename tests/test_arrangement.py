"""Chamber geometry: walls, adjacency, Cartan data, checks, extraction."""

from __future__ import annotations

import pytest

from weylgpd._rational import Rat
from weylgpd.arrangement import (
    Chamber,
    RootSystemTable,
    Truncated,
    adjacent_chamber,
    cartan_matrix_at,
    chamber_bfs,
    chamber_from_point,
    check_additive,
    check_crystallographic,
    check_k_spherical,
    coords_in_chamber,
    default_seed_chamber,
    distance_and_gallery,
    extract_cartan_graph,
    is_nondegenerate,
    radical,
    separating_keys,
    verify_combinatorial_equivalence,
    walls_and_root_basis,
)
from weylgpd.builtins import F4_SIMPLE_ROOTS, affine_a1_table, builtin_table, f4_table
from weylgpd.errors import (
    InvalidTable,
    NonReducedTable,
    NotCrystallographicAt,
    OnHyperplane,
    OutsideCone,
    Unreachable,
    Unsupported,
)
from weylgpd.exactlin import dual_basis, primitive_normalize, sign_at, vdot, vec, vneg

from _oracles import irredundant_constraints, realizable_sign_vectors

A2_ROOTS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def a2_table() -> RootSystemTable:
    return RootSystemTable(2, A2_ROOTS)


HALF = Rat(1, 2)
DEFECTIVE_TABLES = {
    "aff-a1-rescaled": lambda: builtin_table("aff-a1-rescaled"),
    "lonely-root": lambda: RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 2), (-1, -2)]),
    "two-lines-of-l1-size-2": lambda: RootSystemTable(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1), (HALF, 3 * HALF), (-HALF, -3 * HALF), (3 * HALF, HALF), (-3 * HALF, -HALF)]
    ),
}


class TestChamberFromPoint:
    def test_a2_standard_chamber(self):
        chamber = chamber_from_point(a2_table(), (2, 1))
        assert set(chamber.basis) == {vec((1, 0)), vec((0, 1))}

    def test_a2_walls_match_lp_oracle(self):
        table = a2_table()
        x = vec((2, 1))
        positives = [rep for _, rep in table.positive_on(x)]
        oracle_facets = irredundant_constraints(positives, x)
        got = {primitive_normalize(b) for b in walls_and_root_basis(table, x)}
        assert got == oracle_facets

    def test_f4_standard_chamber(self):
        table = f4_table()
        duals = dual_basis(F4_SIMPLE_ROOTS)
        x = tuple(
            sum((Rat(2) ** i * duals[i][k] for i in range(4)), start=Rat(0))
            for k in range(4)
        )
        chamber = chamber_from_point(table, x)
        assert set(chamber.basis) == set(F4_SIMPLE_ROOTS)

    def test_on_hyperplane(self):
        with pytest.raises(OnHyperplane):
            chamber_from_point(a2_table(), (0, 1))

    def test_outside_affine_cone(self):
        with pytest.raises(OutsideCone):
            chamber_from_point(affine_a1_table(4), (1, -2))

    def test_point_of_another_rank(self):
        with pytest.raises(InvalidTable, match=r"^point \(1, 2, 3\) does not have rank 2$"):
            chamber_from_point(a2_table(), (1, 2, 3))

    def test_non_reduced_table(self):
        table = RootSystemTable(2, A2_ROOTS + [(2, 0), (-2, 0)])
        with pytest.raises(NonReducedTable, match=r"^chamber geometry needs a reduced table; call subarr.reduce first$"):
            chamber_from_point(table, (2, 1))

    def test_repr_names_the_basis(self):
        chamber = chamber_from_point(a2_table(), (2, 1))
        assert repr(chamber) == "Chamber(basis=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))"

    def test_a_chamber_is_not_equal_to_another_kind_of_value(self):
        chamber = chamber_from_point(a2_table(), (2, 1))
        assert chamber.__eq__(chamber.basis) is NotImplemented
        assert chamber != chamber.basis


class TestWalls:
    def test_reducible_rank2(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        basis = walls_and_root_basis(table, (1, 1))
        assert set(basis) == {vec((1, 0)), vec((0, 1))}

    def test_three_lines_have_two_walls_each(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)])
        for point in ((2, 1), (1, 2), (-1, 1), (1, -2)):
            assert len(walls_and_root_basis(table, point)) == 2

    def test_point_of_another_rank(self):
        table = a2_table()
        for read in (walls_and_root_basis, RootSystemTable.positive_on):
            with pytest.raises(InvalidTable, match=r"^point \(1, 2, 3\) does not have rank 2$"):
                read(table, (1, 2, 3))

    def test_coordinates_of_a_covector_of_another_rank(self):
        table = a2_table()
        with pytest.raises(InvalidTable, match=r"^covector \(1, 2, 3\) does not have rank 2$"):
            coords_in_chamber(table, chamber_from_point(table, (2, 1)), (1, 2, 3))

    def test_non_spanning_is_degenerate(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0)])
        with pytest.raises(Exception):
            default_seed_chamber(table)


class TestAdjacency:
    def test_a2_crossing(self):
        table = a2_table()
        chamber = chamber_from_point(table, (2, 1))
        i = chamber.basis.index(vec((1, 0)))
        neighbor = adjacent_chamber(table, chamber, i)
        assert set(neighbor.basis) == {vec((-1, 0)), vec((1, 1))}
        assert neighbor.basis[i] == vec((-1, 0))

    def test_double_crossing_is_identity(self):
        for name in ("a2", "b2", "g2", "a3"):
            table = builtin_table(name)
            seed = default_seed_chamber(table)
            atlas = chamber_bfs(table, seed, 1000)
            for chamber in atlas.chambers:
                for i in range(chamber.rank):
                    back = adjacent_chamber(table, adjacent_chamber(table, chamber, i), i)
                    assert back.key == chamber.key
                    assert back.basis == chamber.basis

    def test_affine_a1_neighbor_formula(self):
        table = affine_a1_table(6)
        k0 = chamber_from_point(table, (2, 3))
        i = k0.basis.index(vec((1, 0)))
        neighbor = adjacent_chamber(table, k0, i)
        # Across the e1 wall: basis {-(e1), e1 + gamma} = {(-1,0), (2,1)}.
        assert set(neighbor.basis) == {vec((-1, 0)), vec((2, 1))}

    def test_chain_of_bases_matches_closed_form(self):
        table = affine_a1_table(6)
        chamber = chamber_from_point(table, (2, 3))
        for n in range(1, 5):
            i = next(
                j for j in range(2) if sign_at(chamber.basis[j], (5, -4)) < 0
            )
            chamber = adjacent_chamber(table, chamber, i)
            expected = {
                vec((n, n + 1)),  # e2 + n*gamma
                vneg(vec((n - 1, n))),  # -(e2 + (n-1)*gamma)
            }
            assert set(chamber.basis) == expected


class TestCartanMatrixAt:
    def test_a2(self):
        data = cartan_matrix_at(a2_table(), chamber_from_point(a2_table(), (2, 1)))
        assert data.matrix.rows == ((2, -1), (-1, 2))

    def test_affine_a1(self):
        table = affine_a1_table(6)
        data = cartan_matrix_at(table, chamber_from_point(table, (2, 3)))
        assert data.matrix.rows == ((2, -2), (-2, 2))

    def test_rescaled_not_crystallographic(self):
        table = affine_a1_table(6, rescaled=True)
        k1 = chamber_from_point(table, (3, -1))  # the chamber with basis B~^1
        assert set(k1.basis) == {vec((2, 4)), vec((0, -1))}
        with pytest.raises(NotCrystallographicAt) as err:
            cartan_matrix_at(table, k1)
        witness = err.value.witness
        assert Rat(1, 2) in (witness.c, witness.d)


class TestChecks:
    def test_a2_crystallographic_all_chambers(self):
        report = check_crystallographic(a2_table())
        assert report.passed and report.chambers_visited == 6

    def test_affine_a1_passes_on_certified(self):
        report = check_crystallographic(affine_a1_table(5))
        assert report.passed
        assert report.certified > 0
        assert report.skipped > 0  # frontier chambers are not certified

    def test_rescaled_fails_with_half_coefficient_witness(self):
        report = check_crystallographic(affine_a1_table(5, rescaled=True))
        assert not report.passed
        w = report.first_witness
        assert w.root == vec((1, 0))
        assert set(w.basis) == {vec((2, 4)), vec((0, -1))}
        coeff_of = dict(zip(w.basis, w.coords))
        assert coeff_of[vec((2, 4))] == Rat(1, 2)
        assert coeff_of[vec((0, -1))] == 2

    @pytest.mark.parametrize("max_witnesses", [1, 0, -3])
    def test_witness_cap_keeps_the_first_witness(self, max_witnesses):
        # A capped report still fails: the first witness is kept even when the
        # cap is zero or negative.
        full = check_crystallographic(affine_a1_table(8, rescaled=True))
        report = check_crystallographic(affine_a1_table(8, rescaled=True), max_witnesses=max_witnesses)
        assert len(full.witnesses) > 1
        assert not report.passed
        assert report.witnesses == full.witnesses[:1]

    @pytest.mark.parametrize(
        "name, count, first",
        [
            ("aff-a1-rescaled", 64, "(1, 0) = (2)*(0, -1) + (1/2)*(2, 4)  [integrality]"),
            ("lonely-root", 2, "(0, 1) = (1/2)*(1, 2) + (1/2)*(-1, 0)  [integrality]"),
            ("two-lines-of-l1-size-2", 8, "(-1, 0) = (3/4)*(-3/2, -1/2) + (1/4)*(1/2, 3/2)  [integrality]"),
        ],
        ids=sorted(DEFECTIVE_TABLES),
    )
    def test_one_witness_per_defective_line(self, name, count, first):
        """A root and its negation have the same integrality defect; the
        report names each defective line of a chamber once, at the first of
        its two roots in scan order, by its positive root.  On the last table
        the first defective chamber's two lines have coordinates of the same
        size, and the line whose negative root sorts first is named first."""
        report = check_crystallographic(DEFECTIVE_TABLES[name]())
        assert not report.passed
        assert len(report.witnesses) == len(set(report.witnesses)) == count
        assert str(report.first_witness) == first
        named = {(w.chamber_key, w.root) for w in report.witnesses}
        assert not any((key, vneg(root)) in named for key, root in named)

    def test_a2_additive(self):
        report = check_additive(a2_table())
        assert report.passed

    def test_affine_a1_not_additive_with_witness(self):
        report = check_additive(affine_a1_table(5))
        assert not report.passed
        assert any(w.root == vec((2, 1)) for w in report.witnesses)

    def test_a3_b3_additive(self):
        for name in ("a3", "b3"):
            report = check_additive(builtin_table(name))
            assert report.passed, name


class TestExtraction:
    def test_a2_graph(self):
        result = extract_cartan_graph(a2_table())
        assert len(result.graph.objects) == 6
        assert all(result.graph.matrix(o).rows == ((2, -1), (-1, 2)) for o in result.graph.objects)
        assert not result.graph.truncated

    def test_b2_matrices_constant_under_compatible_indexing(self):
        # Compatible indexing propagates one matrix around the whole fan: the
        # shared-row constraint pins every crossing coefficient, so the
        # extracted graph of a table realized from one matrix is standard.
        result = extract_cartan_graph(builtin_table("b2"))
        assert len(result.graph.objects) == 8
        mats = {result.graph.matrix(o).rows for o in result.graph.objects}
        assert len(mats) == 1  # one matrix, up to the global index labeling
        assert next(iter(mats)) in {((2, -1), (-2, 2)), ((2, -2), (-1, 2))}

    def test_geometric_b2_table_also_constant(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)])
        result = extract_cartan_graph(table)
        assert len(result.graph.objects) == 8
        mats = {result.graph.matrix(o).rows for o in result.graph.objects}
        assert len(mats) == 1 and next(iter(mats)) in {((2, -1), (-2, 2)), ((2, -2), (-1, 2))}

    def test_affine_a1_truncated_path(self):
        result = extract_cartan_graph(affine_a1_table(6))
        graph = result.graph
        assert graph.truncated
        assert all(graph.matrix(o).rows == ((2, -2), (-2, 2)) for o in graph.objects)
        degree = {
            o: sum(1 for i in range(2) if graph.rho(i, o) is not None)
            for o in graph.objects
        }
        assert sorted(degree.values())[:2] == [1, 1]  # two path endpoints
        assert all(d in (1, 2) for d in degree.values())

    def test_root_sets_are_integral(self):
        result = extract_cartan_graph(builtin_table("g2"))
        for roots in result.root_sets.values():
            assert len(roots) == 12
            assert all(isinstance(c, int) for v in roots for c in v)


class TestDistanceAndGallery:
    def test_identity(self):
        table = a2_table()
        chamber = chamber_from_point(table, (2, 1))
        d, gallery = distance_and_gallery(table, chamber, chamber)
        assert d == 0 and len(gallery) == 0

    def test_opposite_a2(self):
        table = a2_table()
        a = chamber_from_point(table, (2, 1))
        b = chamber_from_point(table, (-2, -1))
        d, gallery = distance_and_gallery(table, a, b)
        assert d == 3 and len(gallery) == 3

    def test_adjacent(self):
        table = a2_table()
        a = chamber_from_point(table, (2, 1))
        b = adjacent_chamber(table, a, 0)
        d, gallery = distance_and_gallery(table, a, b)
        assert d == 1 and len(gallery) == 1

    def test_gallery_never_recrosses(self):
        table = builtin_table("a3")
        seed = default_seed_chamber(table)
        atlas = chamber_bfs(table, seed, 100)
        for b in atlas.chambers[::5]:
            a = atlas.chambers[0]
            d, gallery = distance_and_gallery(table, a, b)
            crossed = []
            for step, i in enumerate(gallery.crossings):
                crossed.append(primitive_normalize(gallery.chambers[step].basis[i]))
            assert len(crossed) == len(set(crossed)) == d


    def test_every_affine_pair_crosses_once_per_separating_line(self):
        """Every ordered pair of the affine A1 survey's chambers, the two
        that straddle the cone's boundary included: the gallery has one
        step per separating line and crosses each of them once."""
        table = affine_a1_table(8)
        atlas = chamber_bfs(table, default_seed_chamber(table), 100)
        assert len(atlas.chambers) == 19
        for a in atlas.chambers:
            for b in atlas.chambers:
                d, gallery = distance_and_gallery(table, a, b)
                crossed = {primitive_normalize(c.basis[i]) for c, i in zip(gallery.chambers, gallery.crossings)}
                assert len(gallery) == d and crossed == separating_keys(table, a, b)

    def test_chamber_outside_the_affine_cone_is_unreachable(self):
        """The seed's negation lies in gamma < 0: as a start none of its
        walls is crossable, and as a goal the walk stops at the chamber on
        the cone's boundary."""
        table = affine_a1_table(8)
        seed = default_seed_chamber(table)
        outside = Chamber(tuple(map(vneg, seed.basis)), tuple(map(vneg, seed.rays)), vneg(seed.witness))
        with pytest.raises(Unreachable, match=r"^no crossable separating wall at \(\(-1, 0\), \(0, -1\)\)$"):
            distance_and_gallery(table, outside, seed)
        with pytest.raises(Unreachable, match=r"^no crossable separating wall at \(\(-8, -9\), \(9, 8\)\)$"):
            distance_and_gallery(table, seed, outside)


class TestRadical:
    def test_a2_nondegenerate(self):
        assert radical(a2_table()) == ()
        assert is_nondegenerate(a2_table())

    def test_single_line_rank2(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0)])
        rad = radical(table)
        assert len(rad) == 1 and vdot(vec((1, 0)), rad[0]) == 0

    def test_empty_table(self):
        table = RootSystemTable(2, [])
        assert len(radical(table)) == 2


class TestKSpherical:
    def test_spherical_always(self):
        for k in (0, 1, 2):
            assert check_k_spherical(a2_table(), k).passed

    def test_affine_a1(self):
        table = affine_a1_table(5)
        assert check_k_spherical(table, 1).passed
        report = check_k_spherical(table, 2)
        assert not report.passed  # the codim-2 face {0} misses the open halfspace

    def test_k_out_of_range(self):
        for k in (-1, 3):
            with pytest.raises(ValueError, match="^k must be between 0 and 2$"):
                check_k_spherical(a2_table(), k)

    def test_truncated_unsupported(self):
        table = RootSystemTable(2, A2_ROOTS, cone=Truncated(3))
        with pytest.raises(Unsupported):
            check_k_spherical(table, 1)


class TestBfsAgainstSignVectorEnumeration:
    @pytest.mark.parametrize("name", ["a2", "b2", "g2", "a3", "b3"])
    def test_chamber_sets_match(self, name):
        table = builtin_table(name)
        assert len(table.lines) <= 30 and table.rank <= 3
        seed = default_seed_chamber(table)
        atlas = chamber_bfs(table, seed, 10_000)
        got = set()
        for chamber in atlas.chambers:
            witness = chamber.witness
            got.add(tuple((k, sign_at(k, witness)) for k in sorted(table.lines)))
        expected = {tuple(sorted(sv)) for sv in realizable_sign_vectors(table.roots)}
        normalized_got = {tuple(sorted(sv)) for sv in got}
        assert normalized_got == expected


class TestCombinatorialEquivalence:
    def test_identity_map(self):
        table = a2_table()
        g = ((1, 0), (0, 1))
        assert verify_combinatorial_equivalence(table, table, g).equivalent

    def test_scaling_map(self):
        table = a2_table()
        g = ((2, 0), (0, 2))  # g*alpha = alpha/2: fails exact root-set equality
        assert not verify_combinatorial_equivalence(table, table, g).equivalent

    def test_swap_map(self):
        table = a2_table()
        g = ((0, 1), (1, 0))
        assert verify_combinatorial_equivalence(table, table, g).equivalent

    @pytest.mark.parametrize("order", ["truncated-first", "affine-first"])
    def test_truncated_and_affine_cones_differ_in_either_order(self, order):
        affine = affine_a1_table(4)
        truncated = RootSystemTable(affine.rank, affine.roots, cone=Truncated(4))
        pair = (truncated, affine) if order == "truncated-first" else (affine, truncated)
        report = verify_combinatorial_equivalence(*pair, ((1, 0), (0, 1)))
        assert (report.equivalent, report.reason) == (False, "cone types differ")

    def test_affine_cone_must_map_onto_the_target_cone(self):
        table = affine_a1_table(4)
        assert verify_combinatorial_equivalence(table, table, ((0, 1), (1, 0))).equivalent
        report = verify_combinatorial_equivalence(table, table, ((-1, 0), (0, -1)))
        assert (report.equivalent, report.reason) == (False, "g does not map the cone onto the target cone")
