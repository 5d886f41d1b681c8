"""The integer chamber kernel against recorded answers and the Fraction oracle."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import pathlib
import random
import re
from fractions import Fraction as F

import pytest

from weylgpd import arrangement, realization
from weylgpd._rational import fmt_covector
from weylgpd.arrangement import (
    Affine,
    Chamber,
    CoefficientWitness,
    RootSystemTable,
    _carry_frame,
    _extreme_basis,
    _frame_at,
    _frame_rays,
    _key_at,
    _lonely_roots,
    _positive_lines,
    _verify_chamber_basis,
    _wall_coefficients,
    _wall_step,
    _walls_across,
    _witness_across,
    adjacent_chamber,
    cartan_matrix_at,
    chamber_bfs,
    chamber_is_true,
    check_additive,
    check_crystallographic,
    coords_in_chamber,
    default_seed_chamber,
    extract_cartan_graph,
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
from weylgpd.cartan import canonical_basis_key
from weylgpd.errors import InvalidTable, NotSimplicial, WeylgpdError
from weylgpd.exactlin import dual_basis, primitive_ray, vdot, vec
from weylgpd.jsonio import table_from_json, table_to_json
from weylgpd.realization import realize
from weylgpd.subarr import restrict

from _kernel_digest import (
    LOCAL_TO_GLOBAL_TABLES,
    bare_truncation_digests,
    ROUNDTRIP_DEPTHS,
    f4_signatures,
    local_to_global_digest,
    realize_digest,
    roundtrip_digest,
    table_digest,
)
from _oracles import (
    gauss_solve,
    reference_extreme_basis,
    reference_lonely_roots,
    reference_primitive_ray,
    reference_wall_coefficients,
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
    for key in atlas.order:
        chamber = got.chambers[key]
        assert chamber.key == key
        assert tuple(map(primitive_ray, chamber.basis)) == tuple(map(primitive_ray, atlas.chambers[key].basis))
    for key in rng.sample(got.order, min(sampled, len(got.order))):
        chamber = got.chambers[key]
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
    get the same answers as the chambers the table itself produced."""
    table = builtin_table(name)
    rebuilt = RootSystemTable(table.rank, table.roots, cone=table.cone, seed_hint=table.seed_hint)
    assert rebuilt == table and rebuilt is not table
    atlas = chamber_bfs(table, default_seed_chamber(table), 64)
    for key in atlas.order:
        framed = atlas.chambers[key]
        frameless = Chamber(framed.basis, framed.rays, framed.witness)
        assert frameless.frame is None and frameless.key == key
        expected = chamber_answers(table, framed)
        assert chamber_answers(table, frameless) == expected
        assert chamber_answers(rebuilt, framed) == expected
        assert chamber_answers(rebuilt, frameless) == expected


def test_chamber_basis_outside_the_table_is_rejected():
    table = builtin_table("b3")
    scaled = rescaled_lines(table, random.Random(4))
    chamber = default_seed_chamber(scaled)
    assert not all(table.contains(b) for b in chamber.basis)
    for fn, args in [
        (coords_in_chamber, (table, chamber, table.roots[0])),
        (adjacent_chamber, (table, chamber, 0)),
        (cartan_matrix_at, (table, chamber)),
    ]:
        with pytest.raises(InvalidTable):
            fn(*args)


def frame_data(frame) -> tuple:
    return frame.index, frame.cols, frame.det, frame.num


@contextlib.contextmanager
def counting(calls: dict):
    """Count, into `calls`, the calls made to the arrangement functions it names."""
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            original = getattr(arrangement, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            patch.setattr(arrangement, name, counted)
        yield calls


def counted_survey(table: RootSystemTable) -> tuple:
    """chamber_bfs from the default seed, with the calls that it and the seed
    make to _wall_step, _string_walls, _walls_across, _frame_at,
    _carry_frame, _witness_across and _frame_rays counted."""
    calls = dict.fromkeys(
        ["_wall_step", "_string_walls", "_walls_across", "_frame_at", "_carry_frame", "_witness_across", "_frame_rays"],
        0,
    )
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
# roots of B3, so root strings leave it.  A crossing into a frontier region
# builds a frame that its check refuses, so the survey builds more frames
# than it finds chambers.
FRONTIER_TABLES = {
    "b3-bare-truncation-2": lambda: table_from_json(table_to_json(realize(builtin_graph("b3"), depth=2).table)),
}


@functools.cache
def surveyed(name: str) -> tuple:
    table = {**DIFFERENTIAL_TABLES, **FRONTIER_TABLES}[name]()
    return (table, *counted_survey(table))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_carried_frames_and_integer_keys_match_the_elimination(name):
    """Every chamber's frame, carried or eliminated, is the one Bareiss
    elimination gives for its basis, and its integer key is equal and
    hash-equal to the Fraction key of its basis, built by the former rule.
    A frame is built for the seed and for each chamber found, not for each
    crossing."""
    table, atlas, calls = surveyed(name)
    for chamber in atlas.chambers.values():
        assert frame_data(chamber.frame) == frame_data(_frame_at(table, chamber.frame.index))
        fraction_key = tuple(sorted(map(reference_primitive_ray, chamber.basis)))
        assert chamber.key == fraction_key and hash(chamber.key) == hash(fraction_key)
        assert all(type(c) is int for ray in chamber.key for c in ray)
    assert calls["_frame_at"] + calls["_carry_frame"] == len(atlas.order)
    if name == "f4":
        assert (calls["_frame_at"], calls["_carry_frame"]) == (1, 1151)
    if name == "aff-a1-rescaled":
        assert calls["_carry_frame"] == 0


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_primitive_ray_matches_the_fraction_rule_on_roots_and_rays(name):
    """primitive_ray gives ints, equal and hash-equal to the former Fraction
    rule, on every root and every chamber ray of a builtin table."""
    table, atlas, _ = surveyed(name)
    for alpha in [*table.roots, *(ray for chamber in atlas.chambers.values() for ray in chamber.rays)]:
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
    assert {re.canon[obj] for obj in re.certified} <= set(atlas.chambers)
    for chamber in atlas.chambers.values():
        assert canonical_basis_key(chamber.basis) == _key_at(re.table, chamber.frame.index) == chamber.key


def discovering_crossing(table: RootSystemTable, atlas, key: tuple) -> tuple:
    """(chamber, wall) of the crossing that found the chamber at `key`: the
    first chamber in BFS order that was expanded and has an edge to it."""
    for parent in atlas.order:
        chamber = atlas.chambers[parent]
        if chamber_is_true(table, chamber) is not False:
            wall = next((i for i in range(table.rank) if atlas.edges.get((parent, i)) == key), None)
            if wall is not None:
                return chamber, wall
    raise AssertionError(f"no crossing found {key}")


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_survey_builds_each_chambers_fraction_data_once(name):
    """A survey builds no witness point, and rays only where it reads them:
    the affine cone test (`wall_is_crossable`, `chamber_is_true`) does, a
    spherical or truncated survey does not.  F4 crosses 2,304 walls by root
    strings, scans none and builds no rays and no witness.  Reading every
    chamber's rays and witness builds each once; each equals the one built
    eagerly from its frame and from the crossing that found it, and the
    witness lies inside the chamber."""
    table = DIFFERENTIAL_TABLES[name]()
    atlas, calls = counted_survey(table)
    affine = isinstance(table.cone, Affine)
    assert calls["_frame_rays"] == (len(atlas.order) if affine else 0)
    assert calls["_witness_across"] == 0
    if name == "f4":
        counts = [calls[n] for n in ("_string_walls", "_walls_across", "_witness_across", "_frame_rays")]
        assert counts == [2304, 0, 0, 0]
    reads = dict.fromkeys(["_witness_across", "_frame_rays"], 0)
    with counting(reads):
        for _ in range(2):
            for chamber in atlas.chambers.values():
                assert chamber.rays and chamber.witness
    assert reads["_frame_rays"] == (0 if affine else len(atlas.order))
    assert reads["_witness_across"] == len(atlas.order) - 1
    for key in atlas.order:
        chamber = atlas.chambers[key]
        assert chamber.rays == _frame_rays(chamber.frame)
        assert all(vdot(b, ray) == (j == m) for j, b in enumerate(chamber.basis) for m, ray in enumerate(chamber.rays))
        assert all(vdot(b, chamber.witness) > 0 for b in chamber.basis)
        if key != atlas.seed_key:
            parent, wall = discovering_crossing(table, atlas, key)
            assert chamber.witness == _witness_across(parent.frame, wall, parent)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_wall_coefficients_match_the_reference_rule(name):
    """On every directed atlas edge the rule written once gives the
    coefficients, or the witness, that the former rule gives."""
    table, atlas, _ = surveyed(name)
    witnesses = 0
    for (key, i), nkey in atlas.edges.items():
        chamber, neighbor = atlas.chambers[key], atlas.chambers[nkey]
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
    for key, i in atlas.edges:
        frame = atlas.chambers[key].frame
        assert _walls_across(table, frame, i) == reference_walls_across(table, frame, i)


@pytest.mark.parametrize("name", sorted([*DIFFERENTIAL_TABLES, *FRONTIER_TABLES]))
def test_wall_step_matches_the_reference_scan(name):
    """On every directed atlas edge the wall step names the root positions
    the full scan names, and the key and frame of that basis.  Where the
    root-string guess is taken and accepted, no wall scan runs and the
    carried frame is the eliminated one; a survey that never fell back
    accepts the guess on every edge."""
    table, atlas, calls = surveyed(name)
    accepted = 0
    for key, i in atlas.edges:
        frame = atlas.chambers[key].frame
        scans = {"_walls_across": 0}
        with counting(scans):
            nkey, index, across = _wall_step(table, frame, i)
        assert index == reference_walls_across(table, frame, i)
        assert nkey == _key_at(table, index) and across.index == index
        if not scans["_walls_across"]:
            accepted += 1
            assert frame.integral
            assert frame_data(across) == frame_data(_frame_at(table, index))
    if not calls["_walls_across"]:
        assert accepted == len(atlas.edges)
    if name == "f4":
        assert accepted == 4608


@pytest.mark.parametrize("name", ["aff-a1", "b3-bare-truncation-2", "aff-a1-rescaled"])
def test_wall_step_falls_back_to_the_wall_scan(name):
    """The wall scan runs where the root strings do not name the neighbor:
    on aff-a1 a string through an imaginary root (a_j + a_i = delta) stops
    early, and a truncation misses roots.  aff-a1-rescaled has one integral
    frame, its seed's: the guess is taken on its walls only and accepted on
    none, so every crossing is scanned and no frame is carried."""
    table, atlas, calls = surveyed(name)
    assert calls["_walls_across"] >= 1
    if name == "aff-a1-rescaled":
        assert [key for key in atlas.order if atlas.chambers[key].frame.integral] == [atlas.seed_key]
        assert calls["_string_walls"] == table.rank
        assert calls["_walls_across"] == calls["_wall_step"]
        assert calls["_carry_frame"] == 0


@pytest.mark.parametrize("check", [check_crystallographic, check_additive, extract_cartan_graph])
def test_passing_f4_analyses_build_rows_of_num_for_the_seed_only(check):
    """A passing survey of F4 reads each frame's num by column: only the
    seed frame, verified in full, builds its rows."""
    atlases = []
    survey = arrangement._survey

    def recording(*args):
        atlases.append(survey(*args))
        return atlases[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "_survey", recording)
        result = check(f4_table())
    assert getattr(result, "passed", True)
    (atlas,) = atlases
    assert len(atlas.order) == 1152
    assert [key for key in atlas.order if "num" in vars(atlas.chambers[key].frame)] == [atlas.seed_key]


def test_adjacent_chamber_on_affine_a1_matches_the_reference_scan():
    """adjacent_chamber, along the atlas and from frameless chambers, reaches
    the basis the full scan names, on every wall that meets the cone; on
    every wall the two scans agree."""
    table = builtin_table("aff-a1")
    atlas = chamber_bfs(table, default_seed_chamber(table), 64)
    crossed = 0
    for key in atlas.order:
        framed = atlas.chambers[key]
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
        for name in ("_frame_at", "_carry_frame"):
            patch.setattr(realization, name, recording(getattr(realization, name)))
        realize(graph, depth=depth)
    return frames


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_integral_flag_matches_a_full_scan_on_surveys(name):
    """Every frame's integral flag, set at elimination and carried across
    walls, is what a scan of every numerator gives.  aff-a1-rescaled has
    eliminated frames that are not integral, and its crystallographic report
    still names integrality witnesses."""
    table, atlas, _ = surveyed(name)
    flags = [chamber.frame.integral for chamber in atlas.chambers.values()]
    assert flags == [integral_by_scan(chamber.frame) for chamber in atlas.chambers.values()]
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
    a3 = closure_table([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    table = RootSystemTable(3, [tuple(c / F(2) if abs(sum(r)) == 3 else c for c in r) for r in a3.roots])
    carried = []

    def recording(*args):
        carried.append(_carry_frame(*args))
        return carried[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement, "_carry_frame", recording)
        atlas = chamber_bfs(table, default_seed_chamber(table), 10_000)
    frames = [chamber.frame for chamber in atlas.chambers.values()]
    assert not all(frame.integral for frame in carried)
    assert [frame.integral for frame in frames] == [integral_by_scan(frame) for frame in frames]
    report = check_crystallographic(table)
    assert not report.passed and report.first_witness.kind == "integrality"


@pytest.mark.parametrize("name", ["b3", "aff-a1", "b3-bare-truncation"])
def test_chambers_built_on_read_equal_eager_chambers(name):
    """A chamber the survey found, whose rays and witness are built on first
    read, equals and hashes like Chamber(basis, rays, witness) built from the
    same values, with or without its frame; chambers are immutable."""
    table, atlas, _ = surveyed(name)
    for chamber in atlas.chambers.values():
        eager = Chamber(chamber.basis, chamber.rays, chamber.witness)
        framed = Chamber(chamber.basis, chamber.rays, chamber.witness, chamber.frame)
        assert chamber == eager == framed and eager == chamber
        assert hash(chamber) == hash(eager) == hash(framed)
        assert chamber.key == eager.key
    seed = atlas.chambers[atlas.seed_key]
    other = atlas.chambers[atlas.order[1]]
    assert seed != other and Chamber(seed.basis, seed.rays, other.witness) != seed
    assert len({*atlas.chambers.values(), *(Chamber(c.basis, c.rays, c.witness) for c in atlas.chambers.values())}) == len(atlas.order)
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed.witness = other.witness
    with pytest.raises(dataclasses.FrozenInstanceError):
        del seed.basis


@pytest.mark.parametrize("name", ["b3", "aff-a1"])
def test_realization_chambers_seed_a_survey(name):
    """realization.chamber_of builds a chamber from its values; a survey
    from it visits the chambers a survey from the default seed visits."""
    re = realize(builtin_graph(name), depth=6)
    seed = re.chamber_of(re.base)
    assert seed.frame is None and seed.rays == re.rays[re.base]
    atlas = chamber_bfs(re.table, seed, 10_000)
    expected = chamber_bfs(re.table, default_seed_chamber(re.table), 10_000)
    assert set(atlas.order) == set(expected.order)
    assert atlas.certified == expected.certified


def closure_table(gcm: list) -> RootSystemTable:
    """The finite root system of a Cartan matrix, in simple-root coordinates,
    by closing the simple roots under s_i(b) = b - (sum_j a_ij b_j) a_i."""
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
    return RootSystemTable(r, [*roots, *(tuple(-v for v in b) for b in roots)])


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
    for key in atlas.order:
        if key in atlas.checked:
            chamber = atlas.chambers[key]
            got = _lonely_roots(chamber.frame)
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
    for (key, i) in atlas.edges:
        frame = atlas.chambers[key].frame
        index = _walls_across(table, frame, i)
        coeffs = _wall_coefficients(frame, i, index)
        if isinstance(coeffs, CoefficientWitness):
            continue
        for j in range(table.rank):
            lowered = tuple(c - (t == j != i) for t, c in enumerate(coeffs))
            carried = _carry_frame(frame, i, lowered, index)
            full = outcome(_verify_chamber_basis, carried)
            assert outcome(_verify_chamber_basis, carried, i) == full
            verdicts.append(full is None)
    assert any(verdicts) and not all(verdicts)


def test_chamber_bfs_rejects_a_seed_that_is_not_a_chamber():
    """The seed frame is verified in full before the first crossing: the
    root a_2 = (a_1 + a_2) - a_1 separates the cone on a_1, a_1 + a_2, a_3."""
    table = builtin_table("b3")
    basis = tuple(vec(b) for b in [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    rays = dual_basis(basis)
    seed = Chamber(basis, rays, tuple(sum(c) for c in zip(*rays)))
    with pytest.raises(NotSimplicial, match=f"separates the claimed chamber {re.escape(fmt_covector(seed.key))}"):
        chamber_bfs(table, seed, 10_000)


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_realize_carries_every_frame_but_the_base(monkeypatch, name):
    carried = []

    def recording(*args):
        carried.append(_carry_frame(*args))
        return carried[-1]

    monkeypatch.setattr(realization, "_carry_frame", recording)
    realized = realize(builtin_graph(name), depth=8)
    assert len(carried) == len(realized.bases) - 1
    for frame in carried:
        assert frame_data(frame) == frame_data(_frame_at(frame.table, frame.index))


def test_chamber_bfs_builds_each_key_once(monkeypatch):
    table = realize(builtin_graph("f4"), depth=5).table
    seed = default_seed_chamber(table)
    builds = []
    build = Chamber.__dict__["key"].func

    def counting(chamber):
        builds.append(chamber)
        return build(chamber)

    key = functools.cached_property(counting)
    key.__set_name__(Chamber, "key")
    monkeypatch.setattr(Chamber, "key", key)
    atlas = chamber_bfs(table, seed, 10_000)
    assert len(atlas.order) == 91
    assert len(builds) == 91


def test_zero_root_is_rejected():
    """No chamber coordinate row vanishes because no table holds a zero root."""
    with pytest.raises(InvalidTable, match="0 is not a root"):
        RootSystemTable(2, [(1, 0), (-1, 0), (0, 0)])
