"""Every table is derived by `RootSystemTable._of_ints` from its integer
roots, every field as the Fraction-first constructor did
(`_oracles.reference_table`), for every kind of input the library and its
users give it; the library's builders hand it the integers they hold, and
the constructor derives the same table from their Fraction roots."""

from __future__ import annotations

import contextlib
import itertools
import re
from fractions import Fraction as F

import pytest

from weylgpd.arrangement import RootSystemTable, Spherical, default_seed_chamber
from weylgpd.builtins import BUILTIN_GCMS, TABLE_NAMES, builtin_graph, builtin_table, f4_table
from weylgpd.errors import ParseError
from weylgpd.exactlin import primitive_ray
from weylgpd.jsonio import table_from_json
from weylgpd.realization import realize
from weylgpd.subarr import localize, restrict

from _oracles import reference_table

FIELDS = ("roots", "int_roots", "int_index", "negation", "primitive", "lines", "line_positions", "scale", "reduced")


@contextlib.contextmanager
def recorded_inputs():
    """Record (rank, ints, scale, reduced, table) of every table derived
    inside: the integer roots `_of_ints` was given, in the form given, and
    the table it derived from them."""
    inputs = []
    original = RootSystemTable._of_ints.__func__

    def recording(cls, rank, ints, scale, cone=Spherical(), seed_hint=None, certified_keys=None, reduced=None):
        ints = list(ints)
        table = original(cls, rank, ints, scale, cone, seed_hint, certified_keys, reduced)
        inputs.append((rank, ints, scale, reduced, table))
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RootSystemTable, "_of_ints", classmethod(recording))
        yield inputs


def derived_fields(table):
    return {name: getattr(table, name) for name in FIELDS}


def assert_same_table(rank, roots, reduced=None):
    table = RootSystemTable(rank, roots, reduced=reduced)
    assert derived_fields(table) == reference_table(rank, roots, reduced)
    # Equal values are not enough: an int equals its Fraction.
    assert all(type(c) is F for r in table.roots for c in r)
    assert all(type(c) is int for r in table.int_roots for c in r)


def assert_same_inputs(inputs):
    """Each table `_of_ints` derived from distinct integer roots is the
    reference table of ints / scale, and the constructor, handed its
    Fraction roots, cone, seed hint and certified keys, derives an equal,
    hash-equal table with the same fields."""
    assert inputs
    for rank, ints, scale, reduced, table in inputs:
        assert all(type(c) is int for r in ints for c in r) and len(set(ints)) == len(ints) and scale > 0
        assert derived_fields(table) == reference_table(rank, [tuple(F(c, scale) for c in r) for r in ints], reduced)
        rebuilt = RootSystemTable(
            rank, table.roots, table.cone, reduced, seed_hint=table.seed_hint, certified_keys=table.certified_keys
        )
        assert derived_fields(rebuilt) == derived_fields(table)
        assert (rebuilt.cone, rebuilt.int_gamma, rebuilt.seed_hint) == (table.cone, table.int_gamma, table.seed_hint)
        assert rebuilt.certified_keys == table.certified_keys
        assert rebuilt == table and hash(rebuilt) == hash(table)
        assert all(type(c) is F for r in table.roots for c in r)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_builtin_tables(name):
    with recorded_inputs() as inputs:
        builtin_table.__wrapped__(name)
    assert_same_inputs(inputs)


@pytest.mark.parametrize("name", sorted(BUILTIN_GCMS))
def test_realized_tables(name):
    with recorded_inputs() as inputs:
        for depth in range(1, 9):
            realize(builtin_graph(name), depth=depth)
    assert len(inputs) == 8
    assert all(scale == 1 for _, _, scale, _, _ in inputs)
    assert_same_inputs(inputs)


LONGEST_WORDS = {"a2": 3, "b2": 4, "g2": 6, "a3": 6, "b3": 9}


@pytest.mark.parametrize("name", sorted(LONGEST_WORDS))
def test_realized_builtin_tables_are_complete_at_depth_32(name):
    """builtin_table realizes these five at depth 32, which their longest
    words, the radii of their balls, stay below: the realization is complete."""
    graph = builtin_graph(name)
    dist, _, closed = graph.ball(graph.base, 32)
    assert closed and max(dist.values()) == LONGEST_WORDS[name]
    re = realize(graph, depth=32)
    assert re.complete and re.table == builtin_table(name)


def test_unknown_builtin_names_are_refused():
    message = f"unknown builtin graph 'e9'; choose from {sorted(BUILTIN_GCMS)}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        builtin_graph("e9")
    message = f"unknown builtin table 'e9'; choose from {TABLE_NAMES}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        builtin_table("e9")


def test_f4_from_json_strings():
    data = {"rank": 4, "roots": [[str(c) for c in r] for r in f4_table().roots], "reduced": True}
    with recorded_inputs() as inputs:
        table_from_json(data)
    assert_same_inputs(inputs)
    assert_same_table(4, data["roots"], True)


def seed_points(table):
    """The seed chamber's rays and their pairwise sums, as primitive points."""
    rays = default_seed_chamber(table).rays
    points = [primitive_ray(ray) for ray in rays]
    return points + [primitive_ray(tuple(map(sum, zip(u, v)))) for u, v in itertools.combinations(rays, 2)]


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_restrictions_and_localizations(name):
    """Every single restriction and its reduction, and the localizations at
    the seed chamber's rays and their pairwise sums."""
    table = builtin_table(name)
    with recorded_inputs() as inputs:
        for roots in table.lines.values():
            restrict(table, roots[-1])
        for x in seed_points(table):
            localize(table, x)
    assert len(inputs) >= 2 * len(table.lines)
    assert_same_inputs(inputs)


def test_f4_double_restrictions():
    """Every two-step restriction of F4, and its reduction.  Restricting to
    the root (1/2, 1/2, 1/2, 1/2) lowers the scale from 2 to 1, as every
    integer image is even; so do the other seven of its kind."""
    f4 = f4_table()
    firsts = [restrict(f4, roots[-1]) for roots in f4.lines.values()]
    lowered = restrict(f4, (F(1, 2),) * 4)
    assert f4.scale == 2 and lowered.table.scale == lowered.reduced_table.scale == 1
    assert sum(first.table.scale == 1 for first in firsts) == 8
    with recorded_inputs() as inputs:
        for first in firsts:
            for roots in first.table.lines.values():
                restrict(first.table, roots[-1])
    assert_same_inputs(inputs)


def test_of_ints_divides_out_the_common_divisor():
    """The scale over the gcd of the scale and every entry: 2 over 4 is the
    table of 1/2, and a scale that divides no further is kept."""
    ints = [(2, 0), (-2, 0), (0, 4), (0, -4), (2, 4), (-2, -4)]
    table = RootSystemTable._of_ints(2, ints, 4)
    assert table.scale == 2 and table.int_roots == tuple(sorted((a // 2, b // 2) for a, b in ints))
    assert derived_fields(table) == reference_table(2, [(F(a, 4), F(b, 4)) for a, b in ints])
    kept = RootSystemTable._of_ints(2, [(1, 0), (-1, 0), (0, 3), (0, -3)], 2)
    assert kept.scale == 2 and kept.int_roots == ((-1, 0), (0, -3), (0, 3), (1, 0))
    assert kept.roots == ((F(-1, 2), 0), (0, F(-3, 2)), (0, F(3, 2)), (F(1, 2), 0))
    assert RootSystemTable._of_ints(3, [], 1).roots == () and RootSystemTable(3, []).scale == 1


def as_ints(root):
    return tuple(int(c) for c in root)


def as_strings(root):
    return tuple(str(c) for c in root)


def as_mix(root):
    """Every other coordinate a string, the rest Fractions, in a list."""
    return [str(c) if m % 2 else c for m, c in enumerate(root)]


@pytest.mark.parametrize("name", ["a3", "b3", "f4", "aff-a1"])
def test_forms_of_the_roots(name):
    table = builtin_table(name)
    roots, ints = table.roots, table.int_roots
    assert_same_table(table.rank, ints)
    assert_same_table(table.rank, roots)
    assert_same_table(table.rank, [as_strings(r) for r in roots])
    assert_same_table(table.rank, [as_mix(r) for r in roots])
    # One root in each form, and duplicates across forms.
    forms = [tuple, as_strings, as_mix] + ([as_ints] if table.scale == 1 else [])
    mixed = [form(r) for form, r in zip(itertools.cycle(forms), roots)]
    assert_same_table(table.rank, mixed + [as_strings(r) for r in roots[::3]])
    # Int tuples next to Fraction tuples, and ints next to Fractions in one root.
    assert_same_table(table.rank, [tuple(int(c) if c.denominator == 1 else c for c in r) for r in roots])
    assert_same_table(table.rank, [tuple(F(c, 3) if k % 2 else c for k, c in enumerate(r)) for r in ints])
    assert RootSystemTable(table.rank, (as_strings(r) for r in roots)).int_roots == ints
    assert_same_table(table.rank, [])


MALFORMED = {
    "rank": (2, [(1, 0), (-1, 0), (1, 2, 3), (-1, -2, -3)], None),
    "rank, fractions": (2, [("1/2", 0), ("-1/2", 0), (F(1, 3),), (F(-1, 3),)], None),
    "rank one short": (3, [(1, 0, 0), (-1, 0, 0), ("0", "1/2"), (0, F(-1, 2))], None),
    "zero root": (2, [(0, 0), (1, 0), (-1, 0)], None),
    "zero root, strings": (2, [("0", "0/5"), ("1/2", "0"), ("-1/2", "0")], None),
    "negation": (2, [(1, 0), (-1, 0), (F(1, 2), F(1, 3))], None),
    "negation, strings": (2, [("1", "0"), ("-1", "0"), ("2", "-1/3")], None),
    "negation, ints": (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (2, 1, -1)], None),
    "claimed reduced": (2, [(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)], True),
    "claimed not reduced": (2, [(1, 0), (-1, 0), (0, "1/2"), (0, "-1/2")], False),
    "bool": (2, [(True, 0), (-1, 0), (0, 1), (0, -1)], None),
    "bool after ints": (2, [(1, 0), (-1, 0), (0, 1), (0, False)], None),
    "float": (2, [(1.0, 0), (-1, 0), (0, 1), (0, -1)], None),
    "float in a fraction root": (2, [(F(1, 2), 0.5), (-1, 0)], None),
    "zero denominator": (2, [("1/0", 0), (1, 0)], None),
    "bad string": (2, [("x", 0), (1, 0)], None),
    "rank before zero": (2, [(0, 0), (0, 0, 1), (0, 0, -1)], None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_as_before(name):
    rank, roots, reduced = MALFORMED[name]
    with pytest.raises(Exception) as got:
        RootSystemTable(rank, roots, reduced=reduced)
    with pytest.raises(Exception) as expected:
        reference_table(rank, roots, reduced)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
