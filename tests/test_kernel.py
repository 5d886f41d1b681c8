"""The integer chamber kernel against recorded answers and the Fraction oracle."""

from __future__ import annotations

import functools
import json
import pathlib
import random
from fractions import Fraction as F

import pytest

from weylgpd import arrangement, realization
from weylgpd.arrangement import (
    Chamber,
    CoefficientWitness,
    RootSystemTable,
    _carry_frame,
    _frame_at,
    _wall_coefficients,
    adjacent_chamber,
    cartan_matrix_at,
    chamber_bfs,
    coords_in_chamber,
    default_seed_chamber,
)
from weylgpd.builtins import (
    BUILTIN_GCMS,
    F4_SIMPLE_ROOTS,
    TABLE_NAMES,
    builtin_graph,
    builtin_table,
    f4_table,
)
from weylgpd.cartan import canonical_basis_key
from weylgpd.errors import InvalidTable, WeylgpdError
from weylgpd.exactlin import primitive_ray, vec
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
from _oracles import gauss_solve, reference_wall_coefficients

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


def counted_survey(table: RootSystemTable) -> tuple:
    """chamber_bfs from the default seed, with the calls that it and the seed
    make to _cross, _frame_at, _carry_frame, _witness_across and _frame_rays
    counted."""
    calls = dict.fromkeys(["_cross", "_frame_at", "_carry_frame", "_witness_across", "_frame_rays"], 0)
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            original = getattr(arrangement, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            patch.setattr(arrangement, name, counting)
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


@functools.cache
def surveyed(name: str) -> tuple:
    table = DIFFERENTIAL_TABLES[name]()
    return (table, *counted_survey(table))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_carried_frames_and_integer_keys_match_the_elimination(name):
    """Every chamber's frame, carried or eliminated, is the one Bareiss
    elimination gives for its basis, and its integer key is equal and
    hash-equal to the Fraction key of its basis."""
    table, atlas, calls = surveyed(name)
    for chamber in atlas.chambers.values():
        assert frame_data(chamber.frame) == frame_data(_frame_at(table, chamber.frame.index))
        fraction_key = canonical_basis_key(chamber.basis)
        assert chamber.key == fraction_key and hash(chamber.key) == hash(fraction_key)
        assert all(type(c) is int for ray in chamber.key for c in ray)
    crossings = calls["_cross"]
    assert calls["_frame_at"] + calls["_carry_frame"] == 1 + crossings
    if name == "f4":
        assert (calls["_frame_at"], calls["_carry_frame"]) == (1, crossings)
    if name == "aff-a1-rescaled":
        assert calls["_carry_frame"] == 0


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TABLES))
def test_survey_builds_each_chambers_fraction_data_once(name):
    """Rays and a witness point are built for the seed and each chamber found,
    not for each crossing: F4 crosses 2,304 walls and finds 1,151 chambers
    besides its seed."""
    _, atlas, calls = surveyed(name)
    assert calls["_frame_rays"] == len(atlas.order)
    assert calls["_witness_across"] == len(atlas.order) - 1
    if name == "f4":
        assert (calls["_cross"], calls["_witness_across"], calls["_frame_rays"]) == (2304, 1151, 1152)


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
