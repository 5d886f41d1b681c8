"""Localizations, restrictions, reduction, rank-2 identification."""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from weylgpd import subarr
from weylgpd._rational import fmt_covector, rat
from weylgpd.arrangement import (
    Affine,
    ChamberCartanData,
    CheckReport,
    CoefficientWitness,
    RootSystemTable,
    Spherical,
    Truncated,
    chamber_bfs,
    chamber_from_point,
    check_crystallographic,
    default_seed_chamber,
    extract_cartan_graph,
)
from weylgpd.builtins import F4_SIMPLE_ROOTS, TABLE_NAMES, affine_a1_table, builtin_graph, builtin_table, f4_table
from weylgpd.cartan import CartanGraph, GeneralizedCartanMatrix
from weylgpd.errors import (
    BudgetExceeded,
    InvalidTable,
    NotCrystallographicAt,
    NotReducible,
    OutsideCone,
    RootNotInSystem,
    Unsupported,
)
from weylgpd.exactlin import int_primitive, primitive_normalize, primitive_ray, vdot, vec, vneg
from weylgpd.realization import realize, roundtrip_check
from weylgpd.subarr import (
    _REFERENCE_SEQUENCES,
    canonical_cycle,
    chamber_with_wall,
    check_localization_crystallographic,
    check_restriction_crystallographic,
    double_restriction,
    fan_edge_sequence,
    identify_rank2,
    local_to_global_check,
    localize,
    projected_chamber_basis,
    rank2_graph_from_edge_sequence,
    rank2_reference_signatures,
    reduce,
    residue_correspondence_check,
    restrict,
)

from _oracles import (
    reference_double_restriction,
    reference_localize,
    reference_reduce,
    reference_restrict,
    solve_in_span,
    zaslavsky_chamber_count,
)
from test_chamber_count import LARGE_GCMS
from test_kernel import closure_table, counting

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "f4_projection_tables.json").read_text()
)


def pm_closure(reps) -> frozenset:
    out = set()
    for cov in reps:
        v = vec(cov)
        out.add(v)
        out.add(vneg(v))
    return frozenset(out)


class TestLocalize:
    def test_generic_point_empty(self):
        loc = localize(builtin_table("a3"), (7, 4, 2))
        assert loc.empty

    def test_affine_vertex(self):
        loc = localize(affine_a1_table(5), (1, 0))
        assert set(loc.roots) == {vec((0, 1)), vec((0, -1))}
        assert loc.quotient_rank == 1

    @pytest.mark.parametrize("name", ["a3", "b3", "g2", "f4"])
    def test_intrinsic_point_solves_over_the_support_and_the_pivot_units(self, name):
        """At every ray of the first 24 chambers of the survey, the
        closed-form image of each chamber witness and ray is the solution
        over the support and the unit vectors at the pivots."""
        table = f4_table() if name == "f4" else builtin_table(name)
        atlas = chamber_bfs(table, default_seed_chamber(table), 24 if name == "f4" else 100)
        compared = 0
        for chamber in atlas.chambers[:24]:
            for ray in chamber.rays:
                loc = localize(table, primitive_ray(ray))
                units = [tuple(int(k == c) for k in range(table.rank)) for c in loc.pivot_columns]
                for y in (chamber.witness, *chamber.rays):
                    coeffs = solve_in_span((*loc.support, *units), y)
                    assert loc.intrinsic_point(y) == coeffs[len(loc.support):]
                    compared += 1
        assert compared > 0

    def test_intrinsic_point_refuses_a_point_of_another_rank(self):
        loc = localize(f4_table(), (1, 1, 0, 0))
        with pytest.raises(InvalidTable, match=r"^point \(1, 2, 3\) does not have rank 4$"):
            loc.intrinsic_point((1, 2, 3))
        with pytest.raises(InvalidTable, match=r"^point \(1, 2, 3, 4, 5\) does not have rank 4$"):
            loc.intrinsic_point((1, 2, 3, 4, 5))

    def test_intrinsic_covector_refuses_a_covector_of_another_rank(self):
        """Refused with `intrinsic_point`'s text (a longer covector was cut
        to the pivot columns, a shorter one raised a bare IndexError)."""
        loc = localize(f4_table(), (1, 1, 0, 0))
        with pytest.raises(InvalidTable, match=r"^covector \(1, 2, 3, 4, 5\) does not have rank 4$"):
            loc.intrinsic_covector((1, 2, 3, 4, 5))
        with pytest.raises(InvalidTable, match=r"^covector \(1, 0\) does not have rank 4$"):
            loc.intrinsic_covector((1, 0))
        assert loc.pivot_columns == (0, 2, 3) and loc.intrinsic_covector((1, 2, 3, 4)) == (1, 3, 4)

    def test_a_point_of_another_rank_is_refused(self):
        """Refused as `_positive_lines` refuses it (a Fraction dot product
        raised `zip() argument 2 is shorter than argument 1`)."""
        with pytest.raises(InvalidTable, match=r"^point \(1, 1\) does not have rank 3$"):
            localize(builtin_table("a3"), (1, 1))

    def test_intrinsic_point_of_an_empty_localization(self):
        assert localize(builtin_table("a3"), (7, 4, 2)).intrinsic_point((1, 2, 3)) == ()

    def test_f4_codim2_face(self):
        table = f4_table()
        chamber = chamber_from_point(table, table.seed_hint)
        # Point on the walls of phi_2 and phi_3 only.
        positions = [chamber.basis.index(F4_SIMPLE_ROOTS[k]) for k in (1, 2)]
        others = [j for j in range(4) if j not in positions]
        x = tuple(
            chamber.rays[others[0]][k] + chamber.rays[others[1]][k] for k in range(4)
        )
        loc = localize(table, x)
        assert len(loc.roots) == 8  # a double-bond rank-2 subsystem
        assert loc.quotient_rank == 2


class TestLocalizationCrystallographic:
    def test_a3_every_vertex(self):
        table = builtin_table("a3")
        atlas = chamber_bfs(table, default_seed_chamber(table), 100)
        for chamber in atlas.chambers:
            for ray in chamber.rays:
                loc = localize(table, primitive_ray(ray))
                if loc.empty:
                    continue
                report = check_localization_crystallographic(loc, chamber)
                assert report.passed, report.first_witness

    def test_rescaled_table_is_locally_crystallographic(self):
        # The rescaled family fails the global check but every vertex
        # localization is integral.
        table = affine_a1_table(5, rescaled=True)
        atlas = chamber_bfs(table, default_seed_chamber(table), 100)
        for n in atlas.certified:
            chamber = atlas.chambers[n]
            for ray in chamber.rays:
                loc = localize(table, primitive_ray(ray))
                if loc.empty:
                    continue
                report = check_localization_crystallographic(loc, chamber)
                assert report.passed, report.first_witness

    def test_hand_built_violation(self):
        table = builtin_table("a3")
        chamber = default_seed_chamber(table)
        loc = localize(table, primitive_ray(chamber.rays[0]))
        # Corrupt the localization: scale one root by 1/2 so integrality fails.
        bad_roots = list(loc.roots)
        target = next(r for r in bad_roots if r not in chamber.basis)
        bad = loc.__class__(
            loc.point,
            tuple(
                tuple(c / 2 for c in r) if r == target else r for r in bad_roots
            ),
            loc.support,
            loc.quotient_rank,
            loc.pivot_columns,
            loc.table,
        )
        report = check_localization_crystallographic(bad, chamber)
        assert not report.passed
        assert [str(w) for w in report.witnesses] == ["(-1/2, -1/2, 0) = (-1/2)*(0, 1, 0) + (-1/2)*(1, 0, 0)"]

    def test_a_chamber_of_another_rank_is_refused(self):
        """A dot product of the chamber's basis with the point raised zip's
        `argument 2 is longer than argument 1`."""
        loc = localize(f4_table(), (1, 1, 0, 0))
        with pytest.raises(InvalidTable, match=r"^point \(1, 1, 0, 0\) does not have rank 3$"):
            check_localization_crystallographic(loc, default_seed_chamber(builtin_table("a3")))

    def test_empty_localization_passes(self):
        table = builtin_table("a3")
        report = check_localization_crystallographic(localize(table, (7, 4, 2)), default_seed_chamber(table))
        assert report == CheckReport("localization-crystallographic", True, (), 0, 0, 0, False)

    def test_chamber_without_a_wall_through_the_point(self):
        table = builtin_table("a3")
        loc = localize(table, (1, -1, 1))  # no wall of the seed chamber, e1, e2 and e3, vanishes
        assert not loc.empty
        with pytest.raises(InvalidTable, match="^the chamber has no wall through the localization point$"):
            check_localization_crystallographic(loc, default_seed_chamber(table))

    def test_root_outside_the_span_of_the_walls_through_the_point(self):
        """The seed chamber's closure misses (-1, 0, 1), where only its wall e2
        vanishes (the roots +-(1, 1, 1) vanish there too, out of e2's span):
        the chamber is refused."""
        table = builtin_table("a3")
        loc = localize(table, (-1, 0, 1))
        with pytest.raises(InvalidTable, match=r"^the chamber's closure does not contain the localization point$"):
            check_localization_crystallographic(loc, default_seed_chamber(table))

    def test_hand_built_covector_outside_the_span_of_the_walls(self):
        """(0, 1, 1) is in the seed chamber's closure, on its wall e1 only.  A
        hand-built localization that adds e2 - e3, which vanishes there but is
        not sign-coherent in the chamber, has a nonzero coordinate off e1:
        its witness has empty coordinates."""
        table = builtin_table("a3")
        loc = localize(table, (0, 1, 1))
        bad = loc.__class__(
            loc.point, loc.roots + (vec((0, 1, -1)),), loc.support, loc.quotient_rank, loc.pivot_columns, loc.table
        )
        report = check_localization_crystallographic(bad, default_seed_chamber(table))
        assert not report.passed
        assert [w.coords for w in report.witnesses] == [()]
        assert [str(w) for w in report.witnesses] == ["(0, 1, -1) = "]


class TestLocalToGlobal:
    def test_a3_and_b3(self):
        for name in ("a3", "b3"):
            result = local_to_global_check(builtin_table(name))
            assert result["local_passed"] and result["global_passed"] and result["consistent"]

    def test_rank2_unsupported(self):
        with pytest.raises(Unsupported):
            local_to_global_check(affine_a1_table(4, rescaled=True))

    def test_rank1_has_no_vertex_to_localize(self):
        """A rank-1 table's chamber rays are on no hyperplane: every
        localization is empty, and no point is checked."""
        result = local_to_global_check(RootSystemTable(1, [(1,), (-1,)]))
        assert result == {
            "rank": 1,
            "points_checked": 0,
            "local_passed": True,
            "local_witnesses": (),
            "global_passed": True,
            "global_report": CheckReport("crystallographic", True, (), 2, 2, 0, False),
            "consistent": True,
        }

    def test_truncated_realization_reads_certified_chambers_on_both_sides(self):
        # Affine A2 at depth 2: the BFS visits 22 chambers, 4 of them certified.
        gcm = GeneralizedCartanMatrix.from_rows(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
        result = local_to_global_check(realize(CartanGraph.standard(gcm), depth=2).table)
        assert result["points_checked"] == 6
        assert result["global_report"].certified == 4
        assert result["consistent"] and result["local_passed"] and result["global_passed"]

    def test_a3_with_its_highest_root_halved(self):
        """+-(1/2, 1/2, 1/2) in place of A3's +-(1, 1, 1): the localizations
        at four rays have half-integral wall coordinates, and the global
        check fails too."""
        table = builtin_table("a3")
        halved = RootSystemTable(3, [tuple(c / 2 for c in r) if abs(sum(r)) == 3 else r for r in table.roots])
        result = local_to_global_check(halved)
        assert (result["points_checked"], result["local_passed"], result["global_passed"], result["consistent"]) == (
            14, False, False, True,
        )
        assert [str(w) for w in result["local_witnesses"]] == [
            "(-1/2, -1/2, -1/2) = (1/2)*(0, -1, -1) + (1/2)*(-1, 0, 0)",
            "(1/2, 1/2, 1/2) = (-1/2)*(0, -1, -1) + (-1/2)*(-1, 0, 0)",
            "(-1/2, -1/2, -1/2) = (1/2)*(-1, -1, 0) + (1/2)*(0, 0, -1)",
            "(1/2, 1/2, 1/2) = (-1/2)*(-1, -1, 0) + (-1/2)*(0, 0, -1)",
            "(-1/2, -1/2, -1/2) = (1/2)*(0, 0, -1) + (1/2)*(-1, -1, 0)",
            "(1/2, 1/2, 1/2) = (-1/2)*(0, 0, -1) + (-1/2)*(-1, -1, 0)",
            "(-1/2, -1/2, -1/2) = (1/2)*(-1, 0, 0) + (1/2)*(0, -1, -1)",
            "(1/2, 1/2, 1/2) = (-1/2)*(-1, 0, 0) + (-1/2)*(0, -1, -1)",
        ]


class TestRestrict:
    def test_root_must_be_in_table(self):
        with pytest.raises(RootNotInSystem):
            restrict(builtin_table("a3"), (5, 5, 5))

    def test_intrinsic_of_a_covector_of_another_rank_is_refused(self):
        """Refused at the door, where zip raised `argument 2 is longer than argument 1`."""
        table = f4_table()
        rst = restrict(table, table.roots[0])
        with pytest.raises(InvalidTable, match=r"^covector \(1, 0\) does not have rank 4$"):
            rst.intrinsic_of((1, 0))

    @pytest.mark.parametrize("x, text", [((1, 2, 3, 4, 5), r"\(1, 2, 3, 4, 5\)"), ((1,), r"\(1\)")])
    def test_ambient_of_a_covector_of_another_rank_is_refused(self, x, text):
        """Refused at the door, where the combination was cut to the shorter
        of x and the three intrinsic units."""
        table = f4_table()
        rst = restrict(table, table.roots[0])
        with pytest.raises(InvalidTable, match=rf"^covector {text} does not have rank 3$"):
            rst.ambient_of(x)
        assert len(rst.ambient_of((1, 2, 3))) == 4

    def test_rank2_restriction_is_rank1(self):
        table = builtin_table("b2")
        root = table.roots[0]
        rst = restrict(table, root)
        assert rst.rank == 1
        assert len(rst.reduced_table.roots) == 2

    def test_simple_pair_tables_match_golden(self):
        table = f4_table()
        for name in ("pi_12", "pi_13", "pi_14", "pi_23"):
            i, j = int(name[3]), int(name[4])
            rst = double_restriction(table, F4_SIMPLE_ROOTS[i - 1], F4_SIMPLE_ROOTS[j - 1])
            assert rst.ambient_table() == pm_closure(GOLDEN["tables"][name]), name

    def test_reference_24_34_tables_come_from_other_pairs(self):
        table = f4_table()
        for name in ("pi_24", "pi_34"):
            a, b = (vec(cov) for cov in GOLDEN["actual_pairs"][name])
            rst = double_restriction(table, a, b)
            assert rst.ambient_table() == pm_closure(GOLDEN["tables"][name]), name
            assert identify_rank2(rst.reduced_table).label == GOLDEN["labels"][name]

    def test_order_independence(self):
        table = f4_table()
        for i, j in itertools.combinations(range(4), 2):
            one = double_restriction(table, F4_SIMPLE_ROOTS[i], F4_SIMPLE_ROOTS[j])
            two = double_restriction(table, F4_SIMPLE_ROOTS[j], F4_SIMPLE_ROOTS[i])
            assert one.ambient_table() == two.ambient_table()

    def test_realized_truncation_restricts_to_a_truncation(self):
        table = realize(builtin_graph("a3"), depth=1).table
        assert table.cone == Truncated(1)
        rst = restrict(table, table.roots[0])
        assert rst.table.cone == rst.reduced_table.cone == Truncated(1)
        assert (rst.rank, len(rst.table.roots), rst.dropped) == (2, 6, ())

    def test_affine_rank2_restriction_is_empty(self):
        # Restricted kernels inside a 1-dimensional hyperplane are {0}, which
        # never meets the open halfspace: the cone filter removes every form.
        table = affine_a1_table(4)
        rst = restrict(table, vec((1, 0)))
        assert rst.rank == 1
        assert rst.table.roots == ()
        assert len(rst.dropped) > 0

    def test_affine_cone_functional_parallel_to_the_root(self):
        # gamma = (1, 1) is a root: it vanishes on its own hyperplane.
        table = RootSystemTable(2, [(1, 1), (-1, -1), (1, 0), (-1, 0)], cone=Affine(vec((1, 1))))
        with pytest.raises(Unsupported, match="^the cone functional vanishes on the hyperplane$"):
            restrict(table, (1, 1))


class TestReduce:
    def test_pi13_reduction_counts(self):
        table = f4_table()
        rst = double_restriction(table, F4_SIMPLE_ROOTS[0], F4_SIMPLE_ROOTS[2])
        assert len(rst.table.lines) == 6
        assert len(rst.reduced_table.roots) == 12
        # The line carrying both (0,1,1,0) and (0,1/2,1/2,0) keeps the halves.
        ambient_reduced = rst.ambient_table(reduced=True)
        assert vec(("0", "1/2", "1/2", "0")) in ambient_reduced
        assert vec((0, 1, 1, 0)) not in ambient_reduced

    def test_reduced_table_unchanged(self):
        table = builtin_table("a2")
        assert reduce(table).roots == table.roots

    def test_not_reducible(self):
        table = RootSystemTable(
            2,
            [(1, 0), (-1, 0), ("3/2", "0"), ("-3/2", "0"), (0, 1), (0, -1)],
        )
        with pytest.raises(NotReducible):
            reduce(table)

    def test_idempotent_and_line_preserving(self):
        table = f4_table()
        rst = double_restriction(table, F4_SIMPLE_ROOTS[0], F4_SIMPLE_ROOTS[1])
        once = reduce(rst.table)
        assert reduce(once).roots == once.roots
        assert set(once.lines) == set(rst.table.lines)


def restriction_outcome(fn, *args):
    """A restriction or table with its hash (and a restriction's ambient
    tables), or the type, text and attributes of the error it raises."""
    try:
        out = fn(*args)
    except (NotReducible, RootNotInSystem, Unsupported) as exc:
        return type(exc), str(exc), vars(exc)
    if isinstance(out, RootSystemTable):
        return out, hash(out), out.seed_hint
    return out, hash(out), out.ambient_table(), out.ambient_table(reduced=True)


class TestAgainstTheFractionReference:
    """restrict, double_restriction, reduce and localize agree with their
    statements in Fractions (`_oracles`): equal results, equal hashes, and
    the same refusals with the same arguments."""

    @pytest.mark.parametrize("name", [*TABLE_NAMES, "a3 at depth 1"])
    def test_every_root_and_a_non_root(self, name):
        """Every builtin table, and a3's truncation at depth 1."""
        table = realize(builtin_graph("a3"), depth=1).table if name == "a3 at depth 1" else builtin_table(name)
        for alpha0 in (*table.roots, tuple(range(1, table.rank + 1))):
            assert restriction_outcome(restrict, table, alpha0) == restriction_outcome(reference_restrict, table, alpha0)

    @pytest.mark.parametrize("name", ["a3", "b3", "f4"])
    def test_ordered_root_pairs(self, name):
        """Every ordered pair of a3 and b3; every F4 root against every
        fifth root."""
        table = builtin_table(name)
        seconds = table.roots[::5] if name == "f4" else table.roots
        for a, b in itertools.product(table.roots, seconds):
            expected = restriction_outcome(reference_double_restriction, table, a, b)
            assert restriction_outcome(double_restriction, table, a, b) == expected

    def test_e6_two_step_chains(self):
        """Every ninth root of E6, then every fourth root of its reduced
        restriction."""
        e6 = closure_table(LARGE_GCMS["e6"][0])
        chains = 0
        for alpha0 in e6.roots[::9]:
            reduced = restrict(e6, alpha0).reduced_table
            assert reduced == reference_restrict(e6, alpha0).reduced_table
            for beta in reduced.roots[::4]:
                assert restriction_outcome(restrict, reduced, beta) == restriction_outcome(reference_restrict, reduced, beta)
                chains += 1
        assert chains == 104

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_reduce_and_its_refusal(self, name):
        """The table, and for each line the table with the line's multiples
        by 3/2 or by 2 added, or by 3/2 on it and the next line by key (the
        first of the two is named)."""
        table = builtin_table(name)
        lines = [table.lines[key] for key in sorted(table.lines)]
        cases = [table]
        for t, line in enumerate(lines):
            for scale, added in ((rat("3/2"), line), (2, line), (rat("3/2"), line + lines[(t + 1) % len(lines)])):
                extra = [tuple(scale * c for c in root) for root in added]
                cases.append(RootSystemTable(table.rank, [*table.roots, *extra], cone=table.cone))
        refused = 0
        for case in cases:
            expected = restriction_outcome(reference_reduce, case)
            assert restriction_outcome(reduce, case) == expected
            refused += expected[0] is NotReducible
        assert refused == 2 * len(lines)

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_localize_on_the_cube(self, name):
        """Every point of {-1, 0, 1}^r, and its half."""
        table = builtin_table(name)
        for point in itertools.product((-1, 0, 1), repeat=table.rank):
            for x in (point, tuple(rat(c) / 2 for c in point)):
                loc, expected = localize(table, x), reference_localize(table, x)
                assert (loc, hash(loc)) == (expected, hash(expected))


class TestRestrictionCrystallographic:
    def test_f4_all_single_restrictions(self):
        table = f4_table()
        for phi in F4_SIMPLE_ROOTS:
            report = check_restriction_crystallographic(restrict(table, phi))
            assert report.passed, report.first_witness

    def test_a3_restrictions(self):
        table = builtin_table("a3")
        seen = set()
        for root in table.roots:
            key = primitive_normalize(root)
            if key in seen:
                continue
            seen.add(key)
            report = check_restriction_crystallographic(restrict(table, root))
            assert report.passed

    def test_b2_restriction_rank1(self):
        table = builtin_table("b2")
        report = check_restriction_crystallographic(restrict(table, table.roots[0]))
        assert report.passed

    def test_non_integral_multiple_is_refused_before_any_check(self):
        """A line of the restriction holding (2, 0) and (3, 0) has no common
        divisor among its elements: `restrict` raises NotReducible, so no
        Restriction, and no check of one, ever holds a non-integral multiple."""
        roots = [vec(r) for r in ((2, 0, 1), (3, 0, 0), (0, 1, 0), (0, 0, 1))]
        table = RootSystemTable(3, roots + [vneg(r) for r in roots])
        with pytest.raises(NotReducible):
            restrict(table, (0, 0, 1))

    @pytest.mark.parametrize("name,label,count", [("a3", "A2", 6), ("b3", "B2", 9)])
    def test_single_restrictions_identify_and_round_trip(self, name, label, count):
        # Each restriction at a positive root (the larger root of each line)
        # is a rank-2 Weyl groupoid of one type, and its extracted graph
        # round-trips through realize.
        table = builtin_table(name)
        assert len(table.lines) == count
        for elems in table.lines.values():
            restricted = restrict(table, max(elems)).reduced_table
            assert identify_rank2(restricted).label == label
            assert roundtrip_check(extract_cartan_graph(restricted).graph).equivalent

    @pytest.mark.parametrize("root", [(0, 0, 0, 1), (0, 1, -1, 0)], ids=["short", "long"])
    def test_f4_restriction_groupoid_round_trips(self, root):
        # A rank-3 Weyl groupoid whose Cartan matrix varies between objects.
        graph = extract_cartan_graph(reduce(restrict(f4_table(), root).table)).graph
        assert len(graph.objects) == 96
        assert len({graph.matrix(obj) for obj in graph.objects}) == 2
        assert roundtrip_check(graph, depth=40).equivalent


def assert_chambers_match_zaslavsky(table: RootSystemTable) -> None:
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    assert len(atlas.order) == zaslavsky_chamber_count(list(table.lines))
    assert check_crystallographic(table).passed


class TestChamberCountOracle:
    """Chamber counts of Weyl tables and of their restrictions (which are
    crystallographic again) against Zaslavsky's theorem, an oracle that
    shares no code with the chamber kernel."""

    @pytest.mark.parametrize("name", ["a3", "b3"])
    def test_table_and_its_restriction_at_every_positive_root(self, name):
        table = builtin_table(name)
        assert_chambers_match_zaslavsky(table)
        for elems in table.lines.values():
            assert_chambers_match_zaslavsky(restrict(table, max(elems)).reduced_table)

    @pytest.mark.parametrize("i", range(4))
    def test_f4_restriction_at_a_simple_root(self, i):
        assert_chambers_match_zaslavsky(restrict(f4_table(), F4_SIMPLE_ROOTS[i]).reduced_table)


class TestProjectedBasisStructure:
    @pytest.mark.parametrize("source", ["f4", "a3"])
    def test_integral_multiples_and_boundary_basis(self, source):
        # On each projected-basis line every restricted-table element is an
        # integral multiple of the projected basis element, and the projected
        # basis equals the wall basis of the restricted boundary chamber.
        from weylgpd.arrangement import walls_and_root_basis

        table = f4_table() if source == "f4" else builtin_table(source)
        candidates = F4_SIMPLE_ROOTS if source == "f4" else table.roots[:3]
        for alpha0 in candidates:
            rst = restrict(table, alpha0)
            chamber = chamber_with_wall(table, alpha0)
            images = projected_chamber_basis(table, rst, chamber)
            for image in images:
                key = primitive_normalize(image)
                for other in rst.table.lines[key]:
                    coeffs = solve_in_span((image,), other)
                    assert coeffs is not None and coeffs[0].denominator == 1
            # The facet of the chamber on the hyperplane, as an intrinsic point.
            wall_key = primitive_normalize(vec(alpha0))
            idx = next(
                k for k, b in enumerate(chamber.basis) if primitive_normalize(b) == wall_key
            )
            facet_point = tuple(
                sum(
                    (chamber.rays[j][k] for j in range(chamber.rank) if j != idx),
                    start=rat(0),
                )
                for k in range(chamber.rank)
            )
            coeffs = solve_in_span(tuple(rst.lattice_basis), vec(facet_point))
            assert coeffs is not None
            walls = walls_and_root_basis(rst.reduced_table, coeffs)
            assert set(walls) == set(images)

    def test_chamber_off_the_hyperplane_is_refused(self):
        table = builtin_table("a3")
        rst = restrict(table, (1, 1, 1))
        with pytest.raises(InvalidTable, match="^the chamber does not have the restriction hyperplane as a wall$"):
            projected_chamber_basis(table, rst, default_seed_chamber(table))


class TestChamberWithWall:
    def test_a_point_off_the_affine_cone_is_negated(self):
        """Under gamma = (-1, -1) the generic point of half of aff-a1's root
        hyperplanes is off the cone, and its negation is on it."""
        table = RootSystemTable(2, affine_a1_table().roots, cone=Affine((-1, -1)))
        with counting({"vneg": 0}, subarr) as calls:
            chambers = [chamber_with_wall(table, root) for root in table.roots]
        assert calls == {"vneg": 18}
        for root, chamber in zip(table.roots, chambers):
            assert primitive_normalize(root) in map(primitive_normalize, chamber.basis)
            assert vdot(table.cone.gamma, chamber.witness) > 0
        chamber = chamber_with_wall(table, (1, 0))
        assert (fmt_covector(chamber.key), fmt_covector(chamber.witness)) == ("((-2, -1), (1, 0))", "(1/4, -1)")

    @pytest.mark.parametrize("name,alpha0", [("a3", (1,)), ("a3", (1, 0)), ("a3", (1, 0, 0, 0)), ("aff-a1", (1, 0, 0))])
    def test_a_covector_of_another_rank_is_refused(self, name, alpha0):
        """Refused at the door: the integer dots read only the shorter tuple,
        so a3 with (1, 0) gave `no chamber with wall (1, 0) found`."""
        table = builtin_table(name)
        message = rf"^covector \({', '.join(map(str, alpha0))}\) does not have rank {table.rank}$"
        with pytest.raises(InvalidTable, match=message):
            chamber_with_wall(table, alpha0)

    def test_a_covector_that_is_no_wall_is_refused(self):
        with pytest.raises(InvalidTable, match=r"^no chamber with wall \(1, 2, 5\) found$"):
            chamber_with_wall(builtin_table("a3"), (1, 2, 5))

    def test_a_hyperplane_on_which_gamma_vanishes_is_refused(self):
        """In rank 2 the generic point of the hyperplane is the same for
        every m; gamma = alpha0 vanishes at it and at its negation."""
        table = RootSystemTable(2, [(1, 1), (-1, -1), (1, 0), (-1, 0)], cone=Affine((1, 1)))
        with pytest.raises(InvalidTable, match=r"^no chamber with wall \(1, 1\) found$"):
            chamber_with_wall(table, (1, 1))

    @pytest.mark.parametrize(
        "roots, alpha0, basis, witness",
        [([(1,), (-1,)], (1,), "((1))", "(1)"), ([(2,), (-2,)], (-2,), "((-2))", "(-1)")],
    )
    def test_rank_one_gives_the_chamber_on_the_positive_side(self, roots, alpha0, basis, witness):
        """In rank 1 the hyperplane is the point 0, and the push from it is a
        unit step of the cleared direction, on alpha0's positive side."""
        chamber = chamber_with_wall(RootSystemTable(1, roots), alpha0)
        assert (fmt_covector(chamber.basis), fmt_covector(chamber.witness)) == (basis, witness)

    def test_rank_one_affine_has_no_chamber_with_the_wall(self):
        """gamma vanishes at 0, the one point of the hyperplane."""
        table = RootSystemTable(1, [(1,), (-1,)], cone=Affine((1,)))
        with pytest.raises(InvalidTable, match=r"^no chamber with wall \(1\) found$"):
            chamber_with_wall(table, (1,))


class TestIdentifyRank2:
    def test_reference_signatures_distinct(self):
        signatures = rank2_reference_signatures()
        assert len(signatures) == 5
        assert set(signatures.values()) == {"A1xA1", "A2", "B2", "G2", "R(1,2,2,2,1,4)"}

    def test_builtin_fans(self):
        assert identify_rank2(builtin_table("a2")).label == "A2"
        assert identify_rank2(builtin_table("b2")).label == "B2"
        assert identify_rank2(builtin_table("g2")).label == "G2"

    def test_a1xa1(self):
        table = RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert identify_rank2(table).label == "A1xA1"

    def test_f4_simple_pair_labels(self):
        table = f4_table()
        expected = {
            (1, 2): "G2",
            (1, 3): "R(1,2,2,2,1,4)",
            (1, 4): "R(1,2,2,2,1,4)",
            (2, 3): "B2",
            (2, 4): "R(1,2,2,2,1,4)",  # the faithful simple-pair computation
            (3, 4): "G2",
        }
        for (i, j), label in expected.items():
            rst = double_restriction(table, F4_SIMPLE_ROOTS[i - 1], F4_SIMPLE_ROOTS[j - 1])
            assert identify_rank2(rst.reduced_table).label == label, (i, j)

    def test_diagram_flip_pairs_agree(self):
        # The arrangement automorphism exchanging the two ends of the diagram
        # carries pair {2,4} to {1,3}: their restrictions must share a label.
        table = f4_table()
        one = double_restriction(table, F4_SIMPLE_ROOTS[1], F4_SIMPLE_ROOTS[3])
        two = double_restriction(table, F4_SIMPLE_ROOTS[0], F4_SIMPLE_ROOTS[2])
        assert identify_rank2(one.reduced_table).label == identify_rank2(two.reduced_table).label

    def test_non_crystallographic_fan_names_its_chamber(self):
        # +-(2,2) makes the lines of A2 non-crystallographic: some crossing has
        # the coefficient 1/2.
        table = RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 2), (-2, -2)])
        assert table.reduced
        with pytest.raises(NotCrystallographicAt) as err:
            fan_edge_sequence(table)
        atlas = chamber_bfs(table, default_seed_chamber(table), 100)
        assert err.value.chamber_id in atlas.id_of
        witness = err.value.witness
        assert isinstance(witness, CoefficientWitness)
        assert rat("1/2") in (witness.c, witness.d)

    def test_references_realize_complete_at_depth_16(self):
        """`rank2_reference_signatures` reads each reference's table at depth
        16 and relies on its being complete, hence spherical."""
        for label, (kind, data) in _REFERENCE_SEQUENCES.items():
            if kind == "standard":
                graph = CartanGraph.standard(GeneralizedCartanMatrix.from_rows(data))
            else:
                graph = rank2_graph_from_edge_sequence(data)
            re = realize(graph, depth=16)
            assert re.complete and re.table.cone == Spherical(), label

    def test_edge_sequence_of_odd_length_is_refused(self):
        with pytest.raises(InvalidTable, match="^edge sequences of rank-2 fans have even length$"):
            rank2_graph_from_edge_sequence((1, 2, 3))

    def test_canonical_cycle(self):
        assert canonical_cycle((2, 1, 3)) == canonical_cycle((3, 2, 1)) == canonical_cycle((1, 2, 3))
        assert canonical_cycle((1, 2, 2)) == (1, 2, 2)

    def test_cycle_graph_realizes_its_signature(self):
        seq = (1, 2, 2, 2, 1, 4, 1, 2, 2, 2, 1, 4)
        graph = rank2_graph_from_edge_sequence(seq)
        re = realize(graph, depth=16)
        assert re.complete
        raw = fan_edge_sequence(re.table)
        assert canonical_cycle(raw) == canonical_cycle(seq)
        rotations = {seq[s:] + seq[:s] for s in range(len(seq))}
        assert raw in rotations | {tuple(reversed(r)) for r in rotations}


class TestResidueCorrespondence:
    def test_a3_single_wall(self):
        table = builtin_table("a3")
        chamber = default_seed_chamber(table)
        x = tuple(chamber.rays[0][k] + chamber.rays[1][k] for k in range(3))
        report = residue_correspondence_check(table, x)
        assert report.equivalent and report.objects_compared == 2

    def test_a3_codim2(self):
        table = builtin_table("a3")
        chamber = default_seed_chamber(table)
        x = tuple(chamber.rays[0][k] for k in range(3))
        report = residue_correspondence_check(table, x)
        assert report.equivalent
        assert report.objects_compared == 6  # A2-type residue

    def test_f4_double_bond_face(self):
        table = f4_table()
        chamber = chamber_from_point(table, table.seed_hint)
        positions = [chamber.basis.index(F4_SIMPLE_ROOTS[k]) for k in (1, 2)]
        others = [j for j in range(4) if j not in positions]
        x = tuple(
            chamber.rays[others[0]][k] + chamber.rays[others[1]][k] for k in range(4)
        )
        report = residue_correspondence_check(table, x)
        assert report.equivalent
        assert report.objects_compared == 8  # B2-type residue

    def test_mismatched_entry_is_reported_per_chamber(self, monkeypatch):
        """A tests-only patch makes `cartan_matrix_at` read entry (0, 1) one
        lower on the localization's rank-2 table only: the A2 residue at
        A3's seed ray then mismatches at each of its six chambers."""
        read = subarr.cartan_matrix_at

        def patched(table, chamber):
            data = read(table, chamber)
            if table.rank != 2:
                return data
            rows = [list(row) for row in data.matrix.rows]
            rows[0][1] -= 1
            return ChamberCartanData(
                data.chamber, GeneralizedCartanMatrix.from_rows(rows), data.neighbors, data.coefficients
            )

        monkeypatch.setattr(subarr, "cartan_matrix_at", patched)
        table = builtin_table("a3")
        report = residue_correspondence_check(table, default_seed_chamber(table).rays[0])
        assert (report.equivalent, report.objects_compared, report.index_map) == (False, 6, (0, 1))
        assert report.mismatches[0] == (
            "chamber ((0, 0, 1), (0, 1, 0), (1, 0, 0)): restricted entry (1,2) is -1, localized -2"
        )
        assert {m.split(": ")[1] for m in report.mismatches} == {"restricted entry (1,2) is -1, localized -2"}
        assert len(report.mismatches) == 6

    def test_empty_localization_is_refused(self):
        with pytest.raises(InvalidTable, match="^the localization at x is empty$"):
            residue_correspondence_check(builtin_table("a3"), (7, 4, 2))

    def test_walk_budget(self):
        table = builtin_table("a3")
        chamber = default_seed_chamber(table)
        x = tuple(chamber.rays[0][k] + chamber.rays[1][k] for k in range(3))
        with pytest.raises(BudgetExceeded, match="^correspondence walk budget exhausted$"):
            residue_correspondence_check(table, x, budget=0)

    def test_affine_rays(self):
        table = builtin_table("aff-a1")
        for ray in default_seed_chamber(table).rays:
            report = residue_correspondence_check(table, ray)
            assert report.equivalent and report.objects_compared == 2

    def test_point_on_the_cone_boundary_is_outside_the_cone(self):
        roots = [vec(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 1), (2, 1, 1))]
        table = RootSystemTable(3, roots + [vneg(r) for r in roots], cone=Affine(vec((1, 1, 1))))
        with pytest.raises(OutsideCone):
            residue_correspondence_check(table, (1, 1, -2))  # gamma = 0 and (1,-1,0) = 0 there

    def test_a_face_point_with_no_generic_push_direction_is_refused(self):
        """The roots x × (1, m, m^2), m = 2, 3, 5, 7, 11, 13, vanish at x = (1, 1, 2)
        and at the push direction (1, m, m^2) of each m tried."""
        x = (1, 1, 2)
        roots = [(1, 0, 0)]
        for m in (2, 3, 5, 7, 11, 13):
            w = (1, m, m * m)
            roots.append(int_primitive([x[j - 2] * w[j - 1] - x[j - 1] * w[j - 2] for j in range(3)]))
        table = RootSystemTable(3, roots + [vneg(r) for r in roots])
        assert (len(table.roots), table.reduced, table.cone) == (14, True, Spherical())
        with pytest.raises(InvalidTable, match="^no generic push direction found at the face point$"):
            residue_correspondence_check(table, x)
