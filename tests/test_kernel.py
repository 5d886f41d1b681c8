"""The integer chamber kernel against recorded answers and the Fraction oracle."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction as F

import pytest

from weylgpd import arrangement, exactlin, realization
from weylgpd._rational import fmt_covector
from weylgpd.arrangement import (
    Affine,
    Chamber,
    ChamberAtlas,
    CoefficientWitness,
    RootSystemTable,
    Spherical,
    Truncated,
    _carry_frame,
    _column_is_coherent,
    _extract,
    _extreme_basis,
    _frame_at,
    _frame_rays,
    _key_at,
    _lonely_roots,
    _object_step,
    _positive_lines,
    _rays_in_cone,
    _root_set,
    _transition,
    _verify_chamber_basis,
    _wall_coefficients,
    _wall_step,
    _walls_across,
    _witness_across,
    adjacent_chamber,
    cartan_matrix_at,
    chamber_bfs,
    chamber_from_point,
    chamber_is_true,
    check_additive,
    check_crystallographic,
    coords_in_chamber,
    default_seed_chamber,
    distance_and_gallery,
    extract_cartan_graph,
    interior_point,
    separating_keys,
    wall_is_crossable,
)
from weylgpd.builtins import (
    BUILTIN_GCMS,
    F4_SIMPLE_ROOTS,
    TABLE_NAMES,
    affine_a1_table,
    builtin_graph,
    builtin_table,
    f4_table,
)
from weylgpd.cartan import GeneralizedCartanMatrix, canonical_basis_key
from weylgpd.errors import (
    InvalidCartanMatrix,
    InvalidTable,
    NotCrystallographicAt,
    NotSimplicial,
    NotSimplyConnected,
    SingularBasis,
    WeylgpdError,
)
from weylgpd.exactlin import dual_basis, primitive_ray, vdot, vec
from weylgpd.jsonio import table_from_json, table_to_json
from weylgpd.realization import realize
from weylgpd.subarr import rank2_graph_from_edge_sequence, restrict

from _kernel_digest import (
    LOCAL_TO_GLOBAL_TABLES,
    bare_truncation_digests,
    ROUNDTRIP_DEPTHS,
    f4_signatures,
    local_to_global_digest,
    query_digests,
    realize_digest,
    roundtrip_digest,
    table_digest,
)
from test_rank2_corpus import CORPUS
from _oracles import (
    gauss_solve,
    reference_extraction,
    reference_extreme_basis,
    reference_keyed_extraction,
    reference_lonely_roots,
    reference_primitive_ray,
    reference_wall_coefficients,
    reference_wall_step,
    reference_walls_across,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "kernel_digest.json").read_text()
)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_kernel_digest_matches_golden(name):
    """Atlas, reports and extraction are the ones recorded before the integer kernel."""
    assert table_digest(builtin_table(name)) == GOLDEN[name]


def test_bare_truncation_digest_matches_golden():
    """Surveys of truncated tables without certified keys (every visited
    chamber is read) give the recorded atlas, reports and extraction."""
    assert bare_truncation_digests() == GOLDEN["bare_truncation"]


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_realize_digest_matches_golden(name):
    """Everything realize returns at depth 8 is the recorded answer."""
    assert realize_digest(name) == GOLDEN["realize"][name]


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_roundtrip_digest_matches_golden(name):
    """roundtrip_check at depths 1 to 6 gives the recorded outcome and report."""
    got = {str(depth): roundtrip_digest(name, depth) for depth in ROUNDTRIP_DEPTHS}
    assert got == GOLDEN["roundtrip"][name]


def test_f4_double_restriction_signatures_match_golden():
    assert f4_signatures() == GOLDEN["f4-demo"]


@pytest.mark.parametrize("name", LOCAL_TO_GLOBAL_TABLES)
def test_local_to_global_matches_golden(name):
    assert local_to_global_digest(name) == GOLDEN["local-to-global"][name]


def test_queries_match_golden():
    """The chamber and realization queries give the answers recorded when
    they still decided sides with Fraction dot products."""
    assert query_digests() == GOLDEN["queries"]


def rescaled_lines(table: RootSystemTable, rng: random.Random) -> RootSystemTable:
    """The table with each line {r, -r} scaled by its own positive rational."""
    roots = []
    for elems in table.lines.values():
        s = F(rng.randint(1, 12), rng.randint(1, 12))
        roots.extend(tuple(s * c for c in r) for r in elems)
    return RootSystemTable(table.rank, roots, cone=table.cone, seed_hint=table.seed_hint)


@pytest.mark.parametrize("name,seed,sampled", [("b3", 1, 48), ("b3", 2, 48), ("f4", 3, 24)])
def test_rescaled_lines_keep_chambers_and_match_oracle(name, seed, sampled):
    """Clearing mixed denominators changes no chamber, key or coordinate.

    The rescaled tables are not crystallographic, so their chamber
    coordinates are genuinely rational.
    """
    table = builtin_table(name)
    rng = random.Random(seed)
    scaled = rescaled_lines(table, rng)
    assert scaled.scale > 1
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    got = chamber_bfs(scaled, default_seed_chamber(scaled), 10_000)
    assert got.order == atlas.order
    assert got.edges == atlas.edges
    assert got.certified == atlas.certified
    for n, key in enumerate(atlas.order):
        chamber = got.chambers[n]
        assert chamber.key == key
        assert tuple(map(primitive_ray, chamber.basis)) == tuple(map(primitive_ray, atlas.chambers[n].basis))
    for chamber in rng.sample(got.chambers, min(sampled, len(got.chambers))):
        for root in scaled.roots:
            expected = gauss_solve(chamber.basis, root)
            assert coords_in_chamber(scaled, chamber, root) == expected
        off_table = vec((F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(scaled.rank)))
        assert coords_in_chamber(scaled, chamber, off_table) == gauss_solve(chamber.basis, off_table)


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except WeylgpdError as exc:
        return type(exc), str(exc)


def chamber_answers(table: RootSystemTable, chamber: Chamber) -> tuple:
    """Everything the kernel says about one chamber: coordinates of every root,
    each neighbor (basis, rays and witness) and the Cartan data."""
    coords = [coords_in_chamber(table, chamber, root) for root in table.roots]
    neighbors = [outcome(adjacent_chamber, table, chamber, i) for i in range(chamber.rank)]
    data = outcome(cartan_matrix_at, table, chamber)
    if not isinstance(data, tuple):
        data = (data.chamber, data.matrix, data.neighbors, data.coefficients)
    return coords, neighbors, data


@pytest.mark.parametrize("name", ["b3", "aff-a1", "aff-a1-rescaled"])
def test_chambers_without_their_tables_integer_data_agree(name):
    """Frameless chambers, and chambers handed to an equal but rebuilt table,
    get the same answers as the chambers the table itself produced; holding
    a found chamber on the rebuilt table builds no witness."""
    table = builtin_table(name)
    rebuilt = RootSystemTable(table.rank, table.roots, cone=table.cone, seed_hint=table.seed_hint)
    assert rebuilt == table and rebuilt is not table
    atlas = chamber_bfs(table, default_seed_chamber(table), 64)
    with counting({"_witness_across": 0}) as built:
        for chamber in atlas.chambers:
            coords_in_chamber(rebuilt, chamber, table.roots[0])
            wall_is_crossable(rebuilt, chamber, 0)
    assert built == {"_witness_across": 0}
    for key, framed in zip(atlas.order, atlas.chambers):
        frameless = Chamber(framed.basis, framed.rays, framed.witness)
        assert frameless.frame is None and frameless.key == key
        expected = chamber_answers(table, framed)
        assert chamber_answers(table, frameless) == expected
        assert chamber_answers(rebuilt, framed) == expected
        assert chamber_answers(rebuilt, frameless) == expected


def test_chamber_basis_outside_the_table_is_rejected():
    """Every call that reads a chamber in a table whose roots do not hold
    its basis raises InvalidTable, as each holds the chamber first: the
    cone test (`chamber_is_true`, `wall_is_crossable`) too, on b3 where it
    reads nothing of the chamber, and on aff-a1 also before a crossing of
    a wall that does not meet the cone."""
    for name in ("b3", "aff-a1"):
        table = builtin_table(name)
        affine = isinstance(table.cone, Affine)
        scaled = rescaled_lines(table, random.Random(4))
        atlas = chamber_bfs(scaled, default_seed_chamber(scaled), 64)
        outside = boundary = 0
        for chamber in atlas.chambers:
            if all(table.contains(b) for b in chamber.basis):
                continue
            outside += 1
            walls = range(table.rank)
            calls = [
                (coords_in_chamber, (table, chamber, table.roots[0])),
                (cartan_matrix_at, (table, chamber)),
                *((adjacent_chamber, (table, chamber, i)) for i in walls),
                (chamber_is_true, (table, chamber)),
                *((wall_is_crossable, (table, chamber, i)) for i in walls),
            ]
            if affine:
                boundary += not all(wall_is_crossable(scaled, chamber, i) for i in walls)
            for fn, args in calls:
                with pytest.raises(InvalidTable, match="is not a root of the table"):
                    fn(*args)
        assert outside
        assert boundary if affine else not boundary


def frame_data(frame) -> tuple:
    return frame.index, frame.cols, frame.det, frame.num


@contextlib.contextmanager
def counting(calls: dict, module=arrangement):
    """Count, into `calls`, the calls made to the functions of `module` it names."""
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            patch.setattr(module, name, counted)
        yield calls


SURVEY_CALLS = (
    "_transition",
    "_object_step",
    "_wall_step",
    "_walls_across",
    "_frame_at",
    "_carry_frame",
    "_witness_across",
    "_frame_rays",
)


def counted_survey(table: RootSystemTable) -> tuple:
    """chamber_bfs from the default seed, with the calls that it and the seed
    make to the functions in SURVEY_CALLS counted."""
    calls = dict.fromkeys(SURVEY_CALLS, 0)
    with counting(calls):
        atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    return atlas, calls


DIFFERENTIAL_TABLES = {
    **{name: lambda name=name: builtin_table(name) for name in TABLE_NAMES},
    **{
        f"f4-restricted-at-{i}": lambda i=i: restrict(f4_table(), F4_SIMPLE_ROOTS[i]).reduced_table
        for i in range(4)
    },
    "b3-rescaled": lambda: rescaled_lines(builtin_table("b3"), random.Random(5)),
    # A bare truncation: a realized table read back without its certified region.
    "b3-bare-truncation": lambda: table_from_json(table_to_json(realize(builtin_graph("b3"), depth=3).table)),
}
# A bare truncation that meets frontier regions: at depth 2 the table misses
# roots of B3, so some transitions are refused, and the wall step then
# refuses a crossing into a frontier region before it builds a frame.
FRONTIER_TABLES = {
    "b3-bare-truncation-2": lambda: table_from_json(table_to_json(realize(builtin_graph("b3"), depth=2).table)),
}


@functools.cache
def surveyed(name: str) -> tuple:
    table = {**DIFFERENTIAL_TABLES, **FRONTIER_TABLES}[name]()
    return (table, *counted_survey(table))


def framed_keys(atlas) -> list:
    """The keys of the atlas's chambers that hold a frame, in BFS order."""
    return [key for key, chamber in zip(atlas.order, atlas.chambers) if "frame" in vars(chamber)]


def atlas_edges(atlas) -> list:
    """(n, i, m) for every edge of an atlas: wall i of chamber n leads to chamber m."""
    rank = atlas.chambers[0].rank
    return [(n, i, m) for n in range(len(atlas.order)) for i in range(rank) if (m := atlas.edges[n * rank + i]) >= 0]


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_carried_frames_and_integer_keys_match_the_elimination(name):
    """Every chamber's frame, carried, eliminated or built on first read, is
    the one Bareiss elimination gives for its basis, and its integer key is
    equal and hash-equal to the Fraction key of its basis, built by the
    former rule.  A survey builds a frame only for a chamber that holds it:
    the seed, a chamber a wall step finds, and a chamber it reads,
    in the affine cone test or to expand a chamber without an object or
    with a refused transition; F4 builds the seed's only.  Reading every
    chamber's frame in BFS order carries each of the others once, across
    the crossing that found it."""
    table = DIFFERENTIAL_TABLES[name]()
    atlas, calls = counted_survey(table)
    framed = framed_keys(atlas)
    assert calls["_frame_at"] + calls["_carry_frame"] == len(framed)
    reads = dict.fromkeys(["_frame_at", "_carry_frame"], 0)
    with counting(reads):
        frames = [chamber.frame for chamber in atlas.chambers]
    assert reads == {"_frame_at": 0, "_carry_frame": len(atlas.order) - len(framed)}
    if name == "f4":
        assert framed == [atlas.order[0]]
        assert (calls["_frame_at"], calls["_carry_frame"]) == (1, 0)
    if isinstance(table.cone, Affine):
        assert len(framed) == len(atlas.order)
    if name == "aff-a1-rescaled":
        assert calls["_carry_frame"] == 0
    for frame, chamber in zip(frames, atlas.chambers):
        assert frame_data(chamber.frame) == frame_data(_frame_at(table, frame.index))
        fraction_key = tuple(sorted(map(reference_primitive_ray, chamber.basis)))
        assert chamber.key == fraction_key and hash(chamber.key) == hash(fraction_key)
        assert all(type(c) is int for ray in chamber.key for c in ray)


def reference_certified(table: RootSystemTable, atlas) -> tuple:
    """(true, certified, checked) of an atlas by the per-wall rule: on a
    table that is not truncated, the true chambers all of whose walls have
    an edge into a true chamber, and the analyses read those; on a realized
    truncation, the true chambers; on a bare truncation, none, and the
    analyses read every visited chamber."""
    true = {n for n, chamber in enumerate(atlas.chambers) if chamber_is_true(table, chamber)}
    if not isinstance(table.cone, Truncated):
        certified = {n for n in true if all(atlas.edges[n * table.rank + i] in true for i in range(table.rank))}
        return true, certified, certified
    if table.certified_keys is not None:
        return true, true, true
    return true, set(), set(range(len(atlas.order)))


CERTIFIED_TABLES = {
    **DIFFERENTIAL_TABLES,
    **FRONTIER_TABLES,
    "b3-realized-truncation": lambda: realize(builtin_graph("b3"), depth=3).table,
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_TABLES))
def test_certified_set_matches_the_per_wall_rule(name):
    """The atlas's true, certified and checked sets are the per-wall rule's,
    on whole surveys and on a survey the budget cuts short.  A spherical
    survey has every chamber true and every wall crossed, so both sets are
    its whole order."""
    table = CERTIFIED_TABLES[name]()
    whole = chamber_bfs(table, default_seed_chamber(table), 10_000)
    cut = chamber_bfs(table, default_seed_chamber(table), len(whole.order) // 2)
    assert not whole.budget_exceeded and cut.budget_exceeded
    for atlas in (whole, cut):
        assert (atlas.true_chambers, atlas.certified, atlas.checked) == reference_certified(table, atlas)
    if isinstance(table.cone, Spherical):
        assert whole.certified == whole.checked == set(range(len(whole.order)))


def test_frontier_crossings_build_no_frame():
    """On the b3 depth-2 bare truncation the wall step refuses its crossings
    into frontier regions before it carries or eliminates: the survey builds
    no frame beyond those its chambers hold, 36 frames for 36 chambers once
    every frame is read (52 when the refused crossings built theirs)."""
    table = FRONTIER_TABLES["b3-bare-truncation-2"]()
    atlas, calls = counted_survey(table)
    # Every chamber of a bare truncation is expanded, so a wall without an
    # edge is a refused crossing.
    assert len(atlas.order) == 36 and atlas.edges.count(-1) == 16
    framed = framed_keys(atlas)
    assert calls["_frame_at"] + calls["_carry_frame"] == len(framed)
    with counting(calls):
        for chamber in atlas.chambers:
            assert chamber.frame
    assert calls["_frame_at"] + calls["_carry_frame"] == 36


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_primitive_ray_matches_the_fraction_rule_on_roots_and_rays(name):
    """primitive_ray gives ints, equal and hash-equal to the former Fraction
    rule, on every root and every chamber ray of a builtin table."""
    table, atlas, _ = surveyed(name)
    for alpha in [*table.roots, *(ray for chamber in atlas.chambers for ray in chamber.rays)]:
        got, expected = primitive_ray(alpha), reference_primitive_ray(alpha)
        assert got == expected and hash(got) == hash(expected)
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_realized_graph_side_is_integral_and_keys_agree(name):
    """realize keeps the graph side on ints: the standard graph's ids, the
    bases, the canonical keys and the edges hold no Fraction.  On every
    chamber of a survey of the realized table, canonical_basis_key of the
    basis is the key read through the table's primitive rays."""
    re = realize(builtin_graph(name), depth=8)
    ints = [*re.order, *re.bases.values(), *re.canon.values(), *re.edges.values()]
    assert all(type(c) is int for covectors in ints for covector in covectors for c in covector)
    atlas = chamber_bfs(re.table, default_seed_chamber(re.table), 10_000)
    assert {re.canon[obj] for obj in re.certified} <= atlas.id_of.keys()
    for chamber in atlas.chambers:
        assert canonical_basis_key(chamber.basis) == _key_at(re.table, chamber.frame.index) == chamber.key


def discovering_crossing(table: RootSystemTable, atlas, n: int) -> tuple:
    """(chamber, wall) of the crossing that found chamber n: the first
    chamber in BFS order that was expanded and has an edge to it."""
    for parent, chamber in enumerate(atlas.chambers):
        if chamber_is_true(table, chamber) is not False:
            wall = next((i for i in range(table.rank) if atlas.edges[parent * table.rank + i] == n), None)
            if wall is not None:
                return chamber, wall
    raise AssertionError(f"no crossing found {atlas.order[n]}")


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_survey_builds_each_chambers_fraction_data_once(name):
    """A survey builds no witness point and no rays: the affine cone test
    (`wall_is_crossable`, `chamber_is_true`) reads signs at the frame's
    adjugate columns.  F4 has one object, computes its 4 transitions,
    crosses 2,304 walls by object steps, scans none and builds no rays and
    no witness.  Reading every chamber's rays and witness builds each once;
    each equals the one built eagerly from its frame and from the crossing
    that found it, and the witness lies inside the chamber.  On an affine
    table the integer cone test agrees with gamma at every ray."""
    table = DIFFERENTIAL_TABLES[name]()
    atlas, calls = counted_survey(table)
    assert calls["_frame_rays"] == 0
    assert calls["_witness_across"] == 0
    if name == "f4":
        assert len(set(atlas.objects)) == 1 and len(atlas.transitions) == 4
        counts = [calls[n] for n in ("_transition", "_object_step", "_walls_across", "_witness_across", "_frame_rays")]
        assert counts == [4, 2304, 0, 0, 0]
    reads = dict.fromkeys(["_witness_across", "_frame_rays"], 0)
    with counting(reads):
        for _ in range(2):
            for chamber in atlas.chambers:
                assert chamber.rays and chamber.witness
    assert reads["_frame_rays"] == len(atlas.order)
    assert reads["_witness_across"] == len(atlas.order) - 1
    for n, chamber in enumerate(atlas.chambers):
        assert chamber.rays == _frame_rays(chamber.frame)
        assert all(vdot(b, ray) == (j == m) for j, b in enumerate(chamber.basis) for m, ray in enumerate(chamber.rays))
        assert all(vdot(b, chamber.witness) > 0 for b in chamber.basis)
        if isinstance(table.cone, Affine):
            assert _rays_in_cone(table, chamber) == [vdot(table.cone.gamma, ray) > 0 for ray in chamber.rays]
        if n:
            parent, wall = discovering_crossing(table, atlas, n)
            assert chamber.witness == _witness_across(parent, wall)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_wall_coefficients_match_the_reference_rule(name):
    """On every directed atlas edge the rule written once gives the
    coefficients, or the witness, that the former rule gives."""
    table, atlas, _ = surveyed(name)
    witnesses = 0
    for n, i, m in atlas_edges(atlas):
        chamber, neighbor = atlas.chambers[n], atlas.chambers[m]
        got = _wall_coefficients(chamber.frame, i, neighbor.frame.index)
        if isinstance(got, CoefficientWitness):
            witnesses += 1
            got = (got.i, got.j, got.root, got.c, got.d)
        assert got == reference_wall_coefficients(table, chamber, neighbor, i)
    if "rescaled" in name:
        assert witnesses


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_wall_scan_matches_the_reference_scan(name):
    """On every directed atlas edge the scan that starts each plane at the
    basis element gives the root positions the full scan gives."""
    table, atlas, _ = surveyed(name)
    for n, i, _ in atlas_edges(atlas):
        frame = atlas.chambers[n].frame
        assert _walls_across(table, frame, i) == reference_walls_across(table, frame, i)


@pytest.mark.parametrize("name", sorted([*DIFFERENTIAL_TABLES, *FRONTIER_TABLES]))
def test_wall_step_matches_the_reference_scan(name):
    """On every directed atlas edge the wall step names the root positions
    the full scan names, with one scan: those of the atlas's neighbor, whose
    key is the key of that basis.  A crystallographic crossing carries the
    frame by the coefficients `_wall_coefficients` gives, with one new
    column of num and one of A; any other crossing eliminates it.  Either
    way it is the eliminated frame of the basis, and the step returns those
    coefficients, or their witness.  Known root positions give no frame."""
    table, atlas, _ = surveyed(name)
    witnesses = 0
    for n, i, m in atlas_edges(atlas):
        frame = atlas.chambers[n].frame
        calls = dict.fromkeys(["_walls_across", "_frame_at", "_carried_column"], 0)
        with counting(calls):
            index, across, coeffs = _wall_step(table, frame, i)
        assert calls["_walls_across"] == 1
        assert index == reference_walls_across(table, frame, i)
        assert atlas.chambers[m].frame.index == index and atlas.order[m] == _key_at(table, index)
        assert coeffs == _wall_coefficients(frame, i, index)
        if isinstance(coeffs, CoefficientWitness):
            witnesses += 1
            assert (calls["_frame_at"], calls["_carried_column"]) == (1, 0)
        else:
            assert (calls["_frame_at"], calls["_carried_column"]) == (0, 2)
            assert frame_data(across) == frame_data(_carry_frame(frame, i, coeffs, index))
        assert frame_data(across) == frame_data(_frame_at(table, index))
        assert _wall_step(table, frame, i, {index: m}) == (index, None, None)
    if "rescaled" in name:
        assert witnesses


# Distinct objects of the surveys that have other than one: none on affine
# tables and on tables whose frames are not integral, several on the F4
# restrictions and on a truncation that misses roots.
OBJECT_COUNTS = {
    **{f"f4-restricted-at-{i}": 2 for i in range(4)},
    "b3-bare-truncation-2": 9,
    **dict.fromkeys(["aff-a1", "aff-a1-rescaled", "b3-rescaled"], 0),
}


@pytest.mark.parametrize("name", sorted([*DIFFERENTIAL_TABLES, *FRONTIER_TABLES]))
def test_object_step_matches_the_former_wall_step(name):
    """On every directed atlas edge the crossing the survey made names the
    root positions and key the former wall step (root strings, else the
    wall scan) names.  Where the chamber has an object and the transition
    is accepted, its coefficients are those of the reference rule, its
    image is the neighbor's object, and the neighbor's frame, built on first
    read, is the former step's frame and the eliminated one; a refused
    transition is one the former step could not take either."""
    table, atlas, calls = surveyed(name)
    stepped = 0
    memo: dict = {}
    for n, i, m in atlas_edges(atlas):
        chamber, neighbor = atlas.chambers[n], atlas.chambers[m]
        ref_key, ref_index, ref_frame = reference_wall_step(table, chamber.frame, i)
        assert (ref_key, ref_index) == (atlas.order[m], neighbor.frame.index)
        root_set = atlas.objects[n]
        if root_set is None:
            continue
        assert root_set == _root_set(chamber.frame)
        step = _transition(root_set, i)
        assert step == atlas.transitions.get((root_set, i), step)
        if step is None:
            continue
        stepped += 1
        coeffs, image = step
        assert _object_step(table, chamber.frame.index, i, coeffs, memo) == ref_index
        assert coeffs == reference_wall_coefficients(table, chamber, neighbor, i)
        assert image == atlas.objects[m] == _root_set(_frame_at(table, ref_index))
        assert frame_data(neighbor.frame) == frame_data(ref_frame) == frame_data(_frame_at(table, ref_index))
    objects = len(set(atlas.objects) - {None})
    assert objects == OBJECT_COUNTS.get(name, 1)
    # An accepted transition is entered with its reverse, once per pair.
    for (root_set, i), step in atlas.transitions.items():
        if step is not None:
            assert atlas.transitions[(step[1], i)] == (step[0], root_set)
    if name.startswith("f4-restricted"):
        assert (calls["_transition"], len(atlas.transitions)) == (5, 6)
    if name == "f4":
        assert stepped == 4608


@pytest.mark.parametrize("name", ["aff-a1", "b3-bare-truncation-2", "aff-a1-rescaled"])
def test_wall_step_falls_back_to_the_wall_scan(name):
    """The wall scan runs where no transition names the neighbor.  An
    affine table, whose cone test reads rays, has no objects: each of its
    crossings is one wall step with one scan (on aff-a1 no root string is
    tried first, although a_j + a_i = delta is no root).  On a truncation a
    transition into a frontier region is refused.  aff-a1-rescaled is not
    crystallographic, so no frame is carried."""
    table, atlas, calls = surveyed(name)
    assert calls["_walls_across"] == calls["_wall_step"] >= 1
    if isinstance(table.cone, Affine):
        assert not any(atlas.objects) and calls["_transition"] == calls["_object_step"] == 0
    if name == "aff-a1":
        assert calls["_wall_step"] == 18
    if name == "aff-a1-rescaled":
        assert calls["_carry_frame"] == 0
    if name == "b3-bare-truncation-2":
        assert None in atlas.transitions.values()


def test_wall_step_carries_the_frame_with_its_checked_column():
    """A crystallographic wall step checks the new column of num and carries
    the neighbor's frame with it, building only the new column of A besides.
    On aff-a1 18 wall steps carry 16 frames with 32 `_carried_column` calls,
    and reading every frame after the survey builds none."""
    table = builtin_table("aff-a1")
    calls = dict.fromkeys(["_wall_step", "_carry_frame", "_carried_column"], 0)
    with counting(calls):
        atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
        surveyed_calls = dict(calls)
        for chamber in atlas.chambers:
            assert chamber.frame
    assert surveyed_calls == calls == {"_wall_step": 18, "_carry_frame": 16, "_carried_column": 32}


def test_affine_survey_tests_each_chambers_rays_once():
    """An affine survey reads a chamber's verdict and the crossability of
    each of its walls from one `_rays_in_cone`: affine_a1_table(8) surveys
    19 chambers with 19 calls, and crosses exactly the walls of its true
    chambers that `wall_is_crossable` accepts."""
    table = affine_a1_table(8)
    seed = default_seed_chamber(table)
    calls = {"_rays_in_cone": 0}
    with counting(calls):
        atlas = chamber_bfs(table, seed, 10_000)
    assert len(atlas.order) == calls["_rays_in_cone"] == 19
    assert len(atlas.true_chambers) == 17
    for n in atlas.true_chambers:
        for i in range(2):
            assert (atlas.edges[2 * n + i] >= 0) == wall_is_crossable(table, atlas.chambers[n], i)


def reference_cartan_data(table: RootSystemTable, chamber: Chamber) -> tuple:
    """cartan_matrix_at's answer computed crossing by crossing: each
    neighbor by adjacent_chamber, then its coefficients by a second
    `_wall_coefficients` call."""
    neighbors, rows = [], []
    for i in range(chamber.rank):
        neighbor = adjacent_chamber(table, chamber, i)
        coeffs = _wall_coefficients(chamber.frame, i, neighbor.frame.index)
        if isinstance(coeffs, CoefficientWitness):
            raise NotCrystallographicAt(chamber.key, coeffs)
        neighbors.append(neighbor)
        rows.append(coeffs)
    return chamber, tuple(tuple(-c for c in row) for row in rows), tuple(neighbors), tuple(rows)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_cartan_matrix_at_reads_each_walls_coefficients_once(name):
    """At every builtin's seed chamber, and at the next four chambers of
    aff-a1-rescaled's survey, some not crystallographic, cartan_matrix_at
    gives the answer of the crossing-by-crossing reference with one
    `_wall_coefficients` call per wall crossed: 4 at F4's seed."""
    table = builtin_table(name)
    chambers, failed = [default_seed_chamber(table)], False
    if name == "aff-a1-rescaled":
        atlas = chamber_bfs(table, chambers[0], 64)
        chambers += atlas.chambers[1:5]
    for chamber in chambers:
        expected = outcome(reference_cartan_data, table, chamber)
        calls = {"_wall_coefficients": 0}
        with counting(calls):
            data = outcome(cartan_matrix_at, table, chamber)
        if isinstance(data, tuple):
            assert data == expected and data[0] is NotCrystallographicAt
            failed = True
            assert calls["_wall_coefficients"] <= table.rank
        else:
            assert (data.chamber, data.matrix.rows, data.neighbors, data.coefficients) == expected
            assert calls["_wall_coefficients"] == table.rank
    assert failed == (name == "aff-a1-rescaled")


@pytest.mark.parametrize("check", [check_crystallographic, check_additive, extract_cartan_graph])
def test_passing_f4_analyses_build_rows_of_num_for_the_seed_only(check):
    """A passing analysis of F4 reads its one object, not its frames: only
    the seed holds a frame, and no rows of num are built, not even the
    seed's, as a seed the kernel built is not checked again.  The checks
    count their chambers from the object and survey none; extraction
    surveys from the seed."""
    seeds, atlases = [], []
    seed_chamber, survey = arrangement.default_seed_chamber, arrangement._survey

    def recording_seed(*args):
        seeds.append(seed_chamber(*args))
        return seeds[-1]

    def recording(*args):
        atlases.append(survey(*args))
        return atlases[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "default_seed_chamber", recording_seed)
        patch.setattr(arrangement, "_survey", recording)
        result = check(f4_table())
    assert getattr(result, "passed", True)
    (seed,) = seeds
    assert "num" not in vars(seed.frame)
    if check is extract_cartan_graph:
        (atlas,) = atlases
        assert len(atlas.order) == 1152
        assert framed_keys(atlas) == [atlas.order[0]]
        assert atlas.chambers[0] is seed
    else:
        assert atlases == [] and result.chambers_visited == 1152


def test_adjacent_chamber_on_affine_a1_matches_the_reference_scan():
    """adjacent_chamber, along the atlas and from frameless chambers, reaches
    the basis the full scan names, on every wall that meets the cone; on
    every wall the two scans agree."""
    table = builtin_table("aff-a1")
    atlas = chamber_bfs(table, default_seed_chamber(table), 64)
    crossed = 0
    for framed in atlas.chambers:
        frameless = Chamber(framed.basis, framed.rays, framed.witness)
        for i in range(table.rank):
            expected = reference_walls_across(table, framed.frame, i)
            assert _walls_across(table, framed.frame, i) == expected
            if not wall_is_crossable(table, framed, i):
                continue
            for chamber in (framed, frameless):
                neighbor = adjacent_chamber(table, chamber, i)
                assert neighbor.frame.index == expected
                assert neighbor.basis == tuple(table.roots[k] for k in expected)
            crossed += 1
    assert crossed


def integral_by_scan(frame) -> bool:
    return all(n % frame.det == 0 for row in frame.num for n in row)


def realized_frames(graph, depth: int) -> list:
    """The frames realize builds, eliminated and carried."""
    frames = []

    def recording(fn):
        def recorded(*args):
            frames.append(fn(*args))
            return frames[-1]

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realization, "_frame_at", recording(realization._frame_at))
        patch.setattr(arrangement, "_carry_frame", recording(arrangement._carry_frame))
        realize(graph, depth=depth)
    return frames


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_integral_flag_matches_a_full_scan_on_surveys(name):
    """Every frame's integral flag, set at elimination and carried across
    walls, is what a scan of every numerator gives.  aff-a1-rescaled has
    eliminated frames that are not integral, and its crystallographic report
    still names integrality witnesses."""
    table, atlas, _ = surveyed(name)
    flags = [chamber.frame.integral for chamber in atlas.chambers]
    assert flags == [integral_by_scan(chamber.frame) for chamber in atlas.chambers]
    if name == "aff-a1-rescaled":
        assert not all(flags)
        report = check_crystallographic(table)
        assert not report.passed
        assert any(w.kind == "integrality" for w in report.witnesses)
    if name == "f4":
        assert all(flags)


@pytest.mark.parametrize("name,depth", [*((name, 8) for name in sorted(BUILTIN_GCMS)), ("aff-a1", 5)])
def test_integral_flag_matches_a_full_scan_in_realize(name, depth):
    frames = realized_frames(builtin_graph(name), depth)
    assert frames
    assert [frame.integral for frame in frames] == [integral_by_scan(frame) for frame in frames]


def test_carried_frames_keep_a_false_integral_flag():
    """A3 in simple-root coordinates with the line of its highest root
    halved: some crossings stay crystallographic and carry a frame in which
    the halved root has coordinates 1/2, and the flag stays false there."""
    table = EXTRACTION_TABLES["a3-highest-root-halved"]()
    carried = []

    def recording(*args):
        carried.append(_carry_frame(*args))
        return carried[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "_carry_frame", recording)
        atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    frames = [chamber.frame for chamber in atlas.chambers]
    assert not all(frame.integral for frame in carried)
    assert [frame.integral for frame in frames] == [integral_by_scan(frame) for frame in frames]
    report = check_crystallographic(table)
    assert not report.passed and report.first_witness.kind == "integrality"


@pytest.mark.parametrize("name", ["b3", "aff-a1", "b3-bare-truncation"])
def test_chambers_built_on_read_equal_eager_chambers(name):
    """A chamber the survey found, whose rays and witness are built on first
    read, equals and hashes like Chamber(basis, rays, witness) built from the
    same values; chambers are immutable."""
    table, atlas, _ = surveyed(name)
    for chamber in atlas.chambers:
        eager = Chamber(chamber.basis, chamber.rays, chamber.witness)
        assert chamber == eager and eager == chamber
        assert hash(chamber) == hash(eager)
        assert chamber.key == eager.key
    seed, other = atlas.chambers[:2]
    assert seed != other and Chamber(seed.basis, seed.rays, other.witness) != seed
    assert len({*atlas.chambers, *(Chamber(c.basis, c.rays, c.witness) for c in atlas.chambers)}) == len(atlas.order)
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed.witness = other.witness
    with pytest.raises(dataclasses.FrozenInstanceError):
        del seed.basis


@pytest.mark.parametrize("name", ["b3", "aff-a1"])
def test_realization_chambers_seed_a_survey(name):
    """realization.chamber_of is the chamber realize built in its table,
    with the frame and rays that elimination gives for its basis.  A survey
    from it holds it as its seed, and gives the atlas that the same values
    handed in as a chamber give; it visits and certifies the chambers a
    survey from the default seed visits and certifies."""
    re = realize(builtin_graph(name), depth=6)
    seed = re.chamber_of(re.base)
    index = tuple(re.table.index[b] for b in seed.basis)
    assert seed is re.chambers[re.base] and seed.frame.table is re.table
    assert frame_data(seed.frame) == frame_data(_frame_at(re.table, index))
    assert seed.rays == tuple(dual_basis(re.bases[re.base]))
    atlas = chamber_bfs(re.table, seed, 10_000)
    assert atlas.chambers[0] is seed
    handed = Chamber(seed.basis, seed.rays, seed.witness)
    same = chamber_bfs(re.table, handed, 10_000)
    assert same.chambers[0] == handed == seed
    for field in ("order", "id_of", "edges", "true_chambers", "certified", "checked", "objects", "transitions"):
        assert getattr(atlas, field) == getattr(same, field)
    assert atlas.chambers == same.chambers
    expected = chamber_bfs(re.table, default_seed_chamber(re.table), 10_000)
    assert set(atlas.order) == set(expected.order)
    assert {atlas.order[n] for n in atlas.certified} == {expected.order[n] for n in expected.certified}


A3_GCM = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def closure_table(gcm: list) -> RootSystemTable:
    """The finite root system of a Cartan matrix, in simple-root coordinates,
    by closing the simple roots under s_i(b) = b - (sum_j a_ij b_j) a_i.
    The closure holds -a_i = s_i(a_i), so it is negation-closed, and each
    root is fed once: the table would merge a repeat without a word."""
    r = len(gcm)
    roots = {tuple(int(k == j) for k in range(r)) for j in range(r)}
    todo = list(roots)
    while todo:
        b = todo.pop()
        for i in range(r):
            c = sum(a * v for a, v in zip(gcm[i], b))
            image = tuple(v - c * (k == i) for k, v in enumerate(b))
            if image not in roots:
                roots.add(image)
                todo.append(image)
    return RootSystemTable(r, sorted(roots))


def seed_positives(table: RootSystemTable) -> list:
    """The (line key, root index) pairs that default_seed_chamber hands to
    _extreme_basis, whether or not a chamber comes of them."""
    seen = []

    def recording(table, positives):
        seen.append(positives)
        return _extreme_basis(table, positives)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "_extreme_basis", recording)
        outcome(default_seed_chamber, table)
    return seen[0]


SEED_TABLES = {
    **{name: DIFFERENTIAL_TABLES[name] for name in TABLE_NAMES},
    **{f"f4-restricted-at-{i}": DIFFERENTIAL_TABLES[f"f4-restricted-at-{i}"] for i in range(4)},
    # Its seed chamber has 5 extreme rays; the digest records the text.
    "f4-bare-truncation-3": lambda: table_from_json(table_to_json(realize(builtin_graph("f4"), depth=3).table)),
    # From rank 5 on, two rays sharing rank-2 zero lines need not be adjacent.
    "a5": lambda: closure_table([[2 if i == j else -(abs(i - j) == 1) for j in range(5)] for i in range(5)]),
    "d5": lambda: closure_table([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]),
}
# Random generic points besides the seed point; the former rule costs
# C(lines, 4) eliminations per point in rank 5.
RANDOM_SEED_POINTS = {**dict.fromkeys(TABLE_NAMES, 15), "a5": 6, "d5": 2}
# Roots in a plane, which default_seed_chamber refuses, at a generic point:
# in rank 3 the cone holds a line, which the former rule counted as one ray;
# in rank 4 it holds a plane and there is no ray.
PLANAR_LINES = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)]
PLANAR_TABLES = {
    rank: RootSystemTable(rank, [tuple(s * c for c in r[:rank]) for s in (1, -1) for r in PLANAR_LINES])
    for rank in (3, 4)
}


@pytest.mark.parametrize("name", sorted(SEED_TABLES))
def test_seed_walls_match_the_former_rule(name):
    """Double description gives the basis, or the NotSimplicial text, that one
    elimination per (rank-1)-subset of lines gives: at the seed point and at
    seeded random generic points (15 per builtin, fewer in rank 5)."""
    table = SEED_TABLES[name]()
    positives = [seed_positives(table)]
    if name in RANDOM_SEED_POINTS:
        rng = random.Random(name)
        while len(positives) <= RANDOM_SEED_POINTS[name]:
            x = vec(F(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(table.rank))
            if all(sum(a * b for a, b in zip(key, x)) for key in table.lines):
                positives.append(_positive_lines(table, x))
    for pos in positives:
        assert outcome(_extreme_basis, table, pos) == outcome(reference_extreme_basis, table, pos)
    if name == "f4-bare-truncation-3":
        expected = (NotSimplicial, "chamber has 5 extreme rays, expected 4")
        assert outcome(_extreme_basis, table, positives[0]) == expected


@pytest.mark.parametrize("rank,rays", [(3, 1), (4, 0)])
def test_seed_walls_of_planar_roots_match_the_former_rule(rank, rays):
    table = PLANAR_TABLES[rank]
    positives = _positive_lines(table, vec(range(1, rank + 1)))
    expected = (NotSimplicial, f"chamber has {rays} extreme rays, expected {rank}")
    assert outcome(_extreme_basis, table, positives) == expected
    assert outcome(reference_extreme_basis, table, positives) == expected


@pytest.mark.parametrize("name", [*sorted(DIFFERENTIAL_TABLES), "affine-a1-5"])
def test_lonely_roots_match_the_pair_sum_rule(name):
    """On every checked chamber, the roots the additive check reports are
    the ones the pair-sum set leaves; affine_a1_table(5) is not additive."""
    if name == "affine-a1-5":
        table = affine_a1_table(5)
        atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    else:
        table, atlas, _ = surveyed(name)
    lonely = 0
    for n in sorted(atlas.checked):
        chamber = atlas.chambers[n]
        got = _lonely_roots(chamber.frame.num, chamber.frame.det)
        assert sorted(got) == sorted(reference_lonely_roots(table, chamber))
        lonely += len(got)
    if name == "affine-a1-5":
        assert lonely


@pytest.mark.parametrize("name", ["b3", "aff-a1"])
def test_new_column_check_agrees_with_full_verification(name):
    """A frame carried from a verified frame, with the true coefficients or
    with one lowered by 1 (its new ray then leaves the neighbor), passes or
    fails the check of its new column exactly as it passes or fails full
    verification."""
    table, atlas, _ = surveyed(name)
    verdicts = []
    for n, i, _ in atlas_edges(atlas):
        frame = atlas.chambers[n].frame
        index = _walls_across(table, frame, i)
        coeffs = _wall_coefficients(frame, i, index)
        if isinstance(coeffs, CoefficientWitness):
            continue
        for j in range(table.rank):
            lowered = tuple(c - (t == j != i) for t, c in enumerate(coeffs))
            carried = _carry_frame(frame, i, lowered, index)
            full = outcome(_verify_chamber_basis, carried) is None
            assert _column_is_coherent(frame.num_cols, i, carried.num_cols[i]) == full
            verdicts.append(full)
    assert any(verdicts) and not all(verdicts)


def test_chamber_bfs_rejects_a_seed_that_is_not_a_chamber():
    """A hand-built seed is checked in full when it is held, before the
    first crossing: the root a_2 = (a_1 + a_2) - a_1 separates the cone on
    a_1, a_1 + a_2, a_3."""
    table = builtin_table("b3")
    basis = tuple(vec(b) for b in [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    rays = dual_basis(basis)
    seed = Chamber(basis, rays, tuple(sum(c) for c in zip(*rays)))
    with pytest.raises(NotSimplicial, match=f"separates the claimed chamber {re.escape(fmt_covector(seed.key))}"):
        chamber_bfs(table, seed, 10_000)


def hand_built(basis) -> Chamber:
    """The chamber a caller builds on an ordered basis: the dual basis as
    rays and their sum as witness."""
    rays = tuple(dual_basis(basis))
    return Chamber(tuple(basis), rays, tuple(map(sum, zip(*rays))))


def separation_text(table: RootSystemTable, basis) -> str | None:
    """The NotSimplicial text for a basis that is not a chamber's, read off
    Fraction coordinates: the first root, in table order, with coordinates
    of both signs; None for a chamber's basis."""
    rays = dual_basis(basis)
    for root in table.roots:
        coords = tuple(vdot(root, ray) for ray in rays)
        if min(coords) < 0 < max(coords):
            key = fmt_covector(canonical_basis_key(basis))
            return f"root {fmt_covector(root)} separates the claimed chamber {key}: coords {fmt_covector(coords)}"
    return None


def ordered_bases(table: RootSystemTable) -> list:
    """Every ordered basis of independent roots of the table."""
    return [b for b in itertools.permutations(table.roots, table.rank) if exactlin.rank(b) == table.rank]


@pytest.mark.parametrize("name,chambers,others", [("a2", 12, 12), ("b2", 16, 32), ("g2", 24, 96)])
def test_hand_built_rank2_chambers_are_checked_when_held(name, chambers, others):
    """A chamber built by hand on an ordered pair of independent roots gets
    the survey's answers, in its own indexing, when the pair is a chamber's
    basis; when it is not, cartan_matrix_at and adjacent_chamber refuse it
    with NotSimplicial.  While only the neighbors were checked,
    cartan_matrix_at answered 12, 24 and 48 of those without a word, and
    adjacent_chamber every wall of each."""
    table = builtin_table(name)
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    counts = {"chambers": 0, "others": 0}
    for basis in ordered_bases(table):
        hand = hand_built(basis)
        text = separation_text(table, basis)
        if text is not None:
            counts["others"] += 1
            assert outcome(cartan_matrix_at, table, hand) == (NotSimplicial, text)
            for i in range(2):
                assert outcome(adjacent_chamber, table, hand, i) == (NotSimplicial, text)
            continue
        counts["chambers"] += 1
        n = atlas.id_of[canonical_basis_key(basis)]
        found = atlas.chambers[n]
        perm = [found.basis.index(b) for b in basis]  # wall i of `hand` is wall perm[i] of `found`
        data, expected = cartan_matrix_at(table, hand), cartan_matrix_at(table, found)
        assert data.chamber is hand
        for i, p in enumerate(perm):
            assert data.matrix.rows[i] == tuple(expected.matrix.rows[p][q] for q in perm)
            assert data.coefficients[i] == tuple(expected.coefficients[p][q] for q in perm)
            neighbor, across = adjacent_chamber(table, hand, i), expected.neighbors[p]
            assert neighbor == data.neighbors[i]
            assert neighbor.basis == tuple(across.basis[q] for q in perm)
            assert neighbor.rays == tuple(across.rays[q] for q in perm)
            assert neighbor.witness == across.witness
            assert atlas.id_of[neighbor.key] == atlas.edges[n * 2 + p]
    assert counts == {"chambers": chambers, "others": others}


@pytest.mark.parametrize("name", ["a3", "b3"])
def test_hand_built_rank3_bases_that_are_not_chambers_are_refused(name):
    """Every ordered basis of independent roots that is not a chamber's is
    refused by cartan_matrix_at and adjacent_chamber with its text (the
    latter answered 720 (basis, wall) pairs of a3 and 2,304 of b3 while
    only the neighbors were checked); the others are the survey's
    chambers, six orderings each."""
    table = builtin_table(name)
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    chambers = 0
    for basis in ordered_bases(table):
        text = separation_text(table, basis)
        if text is None:
            chambers += 1
            assert canonical_basis_key(basis) in atlas.id_of
            continue
        hand = hand_built(basis)
        assert outcome(cartan_matrix_at, table, hand) == (NotSimplicial, text)
        for i in range(3):
            assert outcome(adjacent_chamber, table, hand, i) == (NotSimplicial, text)
    assert chambers == 6 * len(atlas.order)


def test_distance_and_gallery_refuses_a_start_or_goal_that_is_not_a_chamber():
    """distance_and_gallery holds its start and its goal: a basis that is
    not a chamber's, and a surveyed chamber's basis holding another
    chamber's witness, are refused at either end (they got a count and a
    gallery of different lengths without a word)."""
    table = builtin_table("a2")
    goal = chamber_from_point(table, (-1, -3))
    start = hand_built(tuple(vec(b) for b in [(-1, 0), (0, 1)]))
    expected = (NotSimplicial, "root (-1, -1) separates the claimed chamber ((-1, 0), (0, 1)): coords (1, -1)")
    assert outcome(distance_and_gallery, table, start, goal) == expected
    assert outcome(distance_and_gallery, table, goal, start) == expected
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    seed, other = atlas.chambers[:2]
    stolen = Chamber(seed.basis, seed.rays, other.witness)
    expected = (InvalidTable, "witness (1, -1/2) is not inside the claimed chamber ((0, 1), (1, 0))")
    assert outcome(distance_and_gallery, table, stolen, goal) == expected
    assert outcome(distance_and_gallery, table, goal, stolen) == expected


def test_a_hand_built_chamber_on_parallel_roots_is_singular():
    """A hand-built basis of two parallel roots reaches the elimination of
    its frame when it is held, which finds no inverse."""
    table = builtin_table("a2")
    chamber = Chamber((vec((1, 0)), vec((-1, 0))), (), vec((0, 1)))
    assert outcome(coords_in_chamber, table, chamber, table.roots[0]) == (SingularBasis, "matrix is singular")


@pytest.mark.parametrize("size", [1, 3])
def test_a_hand_built_basis_whose_length_is_not_the_rank_is_refused(size):
    """Refused when held, before its frame is eliminated: one root of A2
    gave `matrix is singular`, three a bare StopIteration."""
    table = builtin_table("a2")
    seed = default_seed_chamber(table)
    chamber = Chamber((seed.basis * 2)[:size], seed.rays, seed.witness)
    expected = (InvalidTable, f"chamber basis of length {size} for a table of rank 2")
    assert outcome(cartan_matrix_at, table, chamber) == expected


def test_a_held_chamber_without_a_witness_gets_the_interior_point_of_its_rays():
    """As `realize` gives its base chamber (a TypeError before, for want of
    a witness or a crossing to build one)."""
    table = builtin_table("a2")
    seed = default_seed_chamber(table)
    bare = Chamber(seed.basis, seed.rays, None)
    assert arrangement._held(table, bare).witness == interior_point(seed.rays)
    assert separating_keys(table, bare, seed) == set()
    total, gallery = distance_and_gallery(table, bare, seed)
    assert (total, len(gallery), gallery.chambers[0].basis) == (0, 0, seed.basis)


def test_a_point_among_lines_that_do_not_span_has_no_chamber():
    table = RootSystemTable(2, [(1, 0), (-1, 0)])
    assert outcome(chamber_from_point, table, (1, 1)) == (NotSimplicial, "only 1 lines in rank 2")


def test_rank1_neighbor_witness_is_the_negated_witness():
    """In rank 1 the neighbor across the one wall is the other half-line,
    and its witness the chamber's witness negated."""
    table = RootSystemTable(1, [(1,), (-1,)])
    atlas = chamber_bfs(table, default_seed_chamber(table), 10)
    assert atlas.order == [((-1,),), ((1,),)]
    assert [chamber.witness for chamber in atlas.chambers] == [(F(-3, 2),), (F(3, 2),)]


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_realize_carries_every_frame_but_the_base(monkeypatch, name):
    carried = []

    def recording(*args):
        carried.append(_carry_frame(*args))
        return carried[-1]

    monkeypatch.setattr(arrangement, "_carry_frame", recording)
    realized = realize(builtin_graph(name), depth=8)
    assert len(carried) == len(realized.bases) - 1
    for frame in carried:
        assert frame_data(frame) == frame_data(_frame_at(frame.table, frame.index))


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_passing_realize_builds_rays_for_the_base_witness_only(name):
    """realize builds Fraction rays once, for the base chamber's witness,
    and carries every other object's frame once, in `Chamber.frame`."""
    with counting({"_frame_rays": 0}, realization) as realized, counting(dict.fromkeys(SURVEY_CALLS, 0)) as kernel:
        re = realize(builtin_graph(name), depth=8)
    assert realized == {"_frame_rays": 1}
    assert kernel == {**dict.fromkeys(SURVEY_CALLS, 0), "_carry_frame": len(re.chambers) - 1}


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_passing_realize_checks_the_base_frame_in_full_and_solves_gamma_once(name):
    """Every carried frame has only its new column checked, and gamma is
    solved on the rank rays of one chamber."""
    graph = builtin_graph(name)
    solved = []

    def int_adjugate(matrix):
        solved.append(len(matrix))
        return exactlin.int_adjugate(matrix)

    with counting({"_root_defects": 0, "_column_is_coherent": 0}, realization) as calls:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(realization, "int_adjugate", int_adjugate)
            re = realize(graph, depth=8)
    assert calls == {"_root_defects": 1, "_column_is_coherent": len(re.bases) - 1}
    assert solved == [graph.rank]
    assert (re.gamma is not None) == name.startswith("aff-a1")


def test_chamber_bfs_builds_each_key_once(monkeypatch):
    """A survey builds each chamber's key (`_key_at`) once: a crossing finds
    a known chamber by its root positions, and only a new one builds its
    key.  A chamber the survey finds holds the key of the step that found
    it: only the seed handed in builds its own (`Chamber.key`)."""
    table = realize(builtin_graph("f4"), depth=5).table
    seed = default_seed_chamber(table)
    builds = []
    build = Chamber.__dict__["key"].func

    def key_counting(chamber):
        builds.append(chamber)
        return build(chamber)

    key = functools.cached_property(key_counting)
    key.__set_name__(Chamber, "key")
    monkeypatch.setattr(Chamber, "key", key)
    with counting({"_key_at": 0}) as calls:
        atlas = chamber_bfs(table, seed, 10_000)
    assert len(atlas.order) == 91
    assert builds == [seed]
    assert calls["_key_at"] == len(atlas.order)
    for nkey, chamber in zip(atlas.order[1:], atlas.chambers[1:]):
        assert vars(chamber)["key"] == nkey == canonical_basis_key(chamber.basis)



def test_a_chamber_reached_with_two_indexings_is_refused(monkeypatch):
    """A2's first object step, with its root positions swapped, builds the
    neighbor with the other indexing; crossing back from it reaches the seed's
    key at positions that are not the seed's, and the survey refuses it."""
    table = builtin_table("a2")
    step, swapped = arrangement._object_step, []

    def swapping_once(*args):
        index = step(*args)
        if swapped:
            return index
        swapped.append(index)
        return index[::-1]

    monkeypatch.setattr(arrangement, "_object_step", swapping_once)
    with pytest.raises(NotSimplicial) as raised:
        chamber_bfs(table, default_seed_chamber(table), 10_000)
    assert str(raised.value) == "chamber ((0, 1), (1, 0)) reached with conflicting compatible indexings"


def test_a_bare_truncation_can_reach_a_chamber_with_two_indexings():
    """A3's realization at depth 1, read back without its certified region:
    the survey crosses past the four realized chambers, where the table's
    arrangement is not simplicial, and reaches a chamber again with another
    indexing."""
    table = table_from_json(table_to_json(realize(builtin_graph("a3"), depth=1).table))
    with pytest.raises(NotSimplicial) as raised:
        chamber_bfs(table, default_seed_chamber(table), 10_000)
    assert str(raised.value) == "chamber ((0, 0, 1), (0, 1, 0), (1, 0, 0)) reached with conflicting compatible indexings"

EXTRACTION_TABLES = {
    **DIFFERENTIAL_TABLES,
    **FRONTIER_TABLES,
    # Realized truncations: their survey reaches chambers outside the
    # certified region, so the extraction filters the atlas's edges.
    **{
        f"{name}-realized-{depth}": lambda name=name, depth=depth: realize(builtin_graph(name), depth=depth).table
        for name in sorted(BUILTIN_GCMS)
        for depth in (2, 3)
    },
    **{
        "polygon-" + "".join(map(str, q)): lambda q=q: realize(rank2_graph_from_edge_sequence(q * 2), depth=2 * len(q)).table
        for q in CORPUS
    },
    # The line of A3's highest root halved: a chamber whose crossings are
    # all crystallographic has a frame that is not integral.
    "a3-highest-root-halved": lambda: RootSystemTable(
        3, [tuple(c / F(2) if abs(sum(r)) == 3 else c for c in r) for r in closure_table(A3_GCM).roots]
    ),
}


@pytest.mark.parametrize("name", sorted(EXTRACTION_TABLES))
def test_extraction_matches_the_reference(name):
    """Extraction keeps the atlas's chambers and edges when every chamber is
    checked, reads `truncated` from the number of edges and checks (C1)/(C2)
    in one pass: its chambers, objects, matrices, edges, truncated flag and
    root sets are those of the reference (`reference_extraction`), which
    filters every edge, scans every wall and checks object by object, in
    the same order, or both raise alike."""
    table = EXTRACTION_TABLES[name]()
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    try:
        chambers, matrices, edges, truncated, root_sets = reference_extraction(table, atlas)
    except WeylgpdError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _extract(table, atlas)
        return
    result = _extract(table, atlas)
    graph = result.graph
    assert list(result.chambers.items()) == list(chambers.items())
    assert graph.objects == tuple(matrices)
    assert [graph.matrix(key) for key in graph.objects] == list(matrices.values())
    assert {(a, i): graph.rho(i, a) for a in graph.objects for i in range(table.rank)} == {
        (a, i): edges.get((a, i)) for a in matrices for i in range(table.rank)
    }
    assert graph.truncated == truncated
    assert list(result.root_sets.items()) == list(root_sets.items())



def closure_of(name: str) -> RootSystemTable:
    """`closure_table` of D5 or D6."""
    from test_chamber_count import D_GCMS, LARGE_GCMS  # that module imports this one

    return closure_table(D_GCMS[name] if name in D_GCMS else LARGE_GCMS[name][0])


ID_PATH_TABLES = {
    **{name: lambda name=name: builtin_table(name) for name in TABLE_NAMES},
    **{
        f"{name}-realized-{depth}": lambda name=name, depth=depth: realize(builtin_graph(name), depth=depth).table
        for name in sorted(BUILTIN_GCMS)
        for depth in range(1, 5)
    },
    **{
        f"{name}-bare-{depth}": lambda name=name, depth=depth: table_from_json(
            table_to_json(realize(builtin_graph(name), depth=depth).table)
        )
        for name in sorted(BUILTIN_GCMS)
        for depth in range(1, 5)
    },
    **{
        f"f4-restricted-at-line-{k}": lambda k=k: restrict(f4_table(), sorted(f4_table().lines.values())[k][0]).reduced_table
        for k in range(24)
    },
    "d5": lambda: closure_of("d5"),
    "d6": lambda: closure_of("d6"),
    **{
        f"aff-a1-{k}{'-rescaled' * rescaled}": lambda k=k, rescaled=rescaled: affine_a1_table(k, rescaled=rescaled)
        for k in (3, 5, 8)
        for rescaled in (False, True)
    },
}


def extraction_answers(extract, table: RootSystemTable, atlas) -> tuple:
    """What an extraction of the atlas says: the graph's objects, base,
    truncated flag and matrices, rho at every chamber of the atlas for every
    wall (None off the graph), the root sets and the chambers by key; or the
    type and text of the error it raises."""
    try:
        graph, root_sets, chambers = extract(table, atlas)
    except WeylgpdError as exc:
        return type(exc), str(exc)
    return (
        graph.objects,
        graph.base,
        graph.truncated,
        [graph.matrix(key).rows for key in graph.objects],
        [graph.rho(i, key) for key in atlas.order for i in range(table.rank)],
        list(root_sets.items()),
        [(key, id(chamber)) for key, chamber in chambers.items()],
    )


def id_extraction(table: RootSystemTable, atlas) -> tuple:
    result = _extract(table, atlas)
    return result.graph, result.root_sets, result.chambers


@pytest.mark.parametrize("name", sorted(ID_PATH_TABLES))
def test_id_extraction_matches_the_keyed_extraction(name):
    """Extraction on chamber ids says what extraction on chamber keys, through
    the explicit graph constructor (`reference_keyed_extraction`), says of the
    same atlas, or raises the same error with the same text: on a whole
    survey, and on one cut short at budget 5."""
    table = ID_PATH_TABLES[name]()
    for budget in (5, 30_000):
        try:
            atlas = chamber_bfs(table, default_seed_chamber(table), budget)
        except NotSimplicial:  # a bare truncation's seed region, or a chamber it reaches, can refuse
            continue
        expected = extraction_answers(reference_keyed_extraction, table, atlas)
        assert extraction_answers(id_extraction, table, atlas) == expected


def test_extraction_names_the_first_edge_that_breaks_c1_or_c2(monkeypatch):
    """Extraction checks (C1) and (C2) on the atlas's edge ids.  B3's atlas
    with the seed's neighbor across wall 0 led back to chamber 5 breaks
    (C1) at the seed, as the keyed extraction names it; aff-a1, whose
    chambers have no objects, with chamber 1's matrix read as (2, -3) in
    row 0 breaks (C2) across its edge to the seed."""
    table = builtin_table("b3")
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    neighbor = atlas.edges[0]
    edges = list(atlas.edges)
    edges[neighbor * table.rank] = 5
    broken = ChamberAtlas(**{field: getattr(atlas, field) for field in ChamberAtlas._fields} | {"edges": edges})
    expected = extraction_answers(reference_keyed_extraction, table, broken)
    assert extraction_answers(id_extraction, table, broken) == expected == (
        NotSimplyConnected,
        "(C1) fails: rho_0^2(((0, 0, 1), (0, 1, 0), (1, 0, 0))) = ((-1, 0, 0), (0, 0, -1), (1, 1, 2))",
    )
    table = builtin_table("aff-a1")
    read = arrangement._matrix_from_atlas

    def misread(table, atlas, n):
        matrix = read(table, atlas, n)
        return GeneralizedCartanMatrix.from_rows([(2, -3), matrix.rows[1]]) if n == 1 else matrix

    monkeypatch.setattr(arrangement, "_matrix_from_atlas", misread)
    atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    assert atlas.objects[:2] == [None, None] and atlas.edges[0] == 1
    with pytest.raises(InvalidCartanMatrix) as raised:
        _extract(table, atlas)
    assert str(raised.value) == "(C2) at (0, 0): row 0 differs across edge ((0, 1), (1, 0)) -- ((0, -1), (1, 2))"

def test_extraction_names_a_chamber_whose_frame_is_not_integral():
    """Every crossing of this chamber is crystallographic, so extraction
    reads the defect from its frame: the first root, with its kind."""
    with pytest.raises(NotCrystallographicAt) as raised:
        extract_cartan_graph(EXTRACTION_TABLES["a3-highest-root-halved"]())
    assert str(raised.value) == (
        "at chamber ((-1, -1, 0), (0, -1, -1), (0, 1, 0)): (-1/2, -1/2, -1/2) = "
        "(1/2)*(-1, -1, 0) + (1/2)*(0, -1, -1) + (1/2)*(0, 1, 0)  [integrality]"
    )


def test_zero_root_is_rejected():
    """No chamber coordinate row vanishes because no table holds a zero root."""
    with pytest.raises(InvalidTable, match="0 is not a root"):
        RootSystemTable(2, [(1, 0), (-1, 0), (0, 0)])
