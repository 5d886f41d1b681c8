"""Chamber counts from objects: a passing spherical check counts
#objects x |Aut(a)| instead of surveying its chambers, and equals the survey."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from weylgpd import arrangement
from weylgpd.arrangement import (
    Affine,
    RootSystemTable,
    _chamber_count,
    _root_set,
    _transition,
    chamber_bfs,
    check_additive,
    check_crystallographic,
    default_seed_chamber,
)
from weylgpd.builtins import TABLE_NAMES, builtin_graph, builtin_table
from weylgpd.errors import BudgetExceeded
from weylgpd.jsonio import table_from_json, table_to_json
from weylgpd.realization import realize
from weylgpd.subarr import rank2_graph_from_edge_sequence, restrict

from test_kernel import closure_table, counting
from test_rank2_corpus import CORPUS

D_GCMS = {
    "d4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "d5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
}
# Rank 6 and 7, beyond the default budget: (GCM, number of chambers |W|).
LARGE_GCMS = {
    "d6": (
        [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, 0],
         [0, 0, -1, 2, -1, -1], [0, 0, 0, -1, 2, 0], [0, 0, 0, -1, 0, 2]],
        23_040,
    ),
    "e6": (
        [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
         [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]],
        51_840,
    ),
    "e7": (
        [[2, -1, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0],
         [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 2]],
        2_903_040,
    ),
}
SPHERICAL_BUILTINS = [name for name in TABLE_NAMES if not name.startswith("aff")]
CHAMBERS = {"a2": 6, "b2": 8, "g2": 12, "a3": 24, "b3": 48, "f4": 1152, "d4": 192, "d5": 1920}


def polygon_table(q: tuple) -> RootSystemTable:
    return realize(rank2_graph_from_edge_sequence(q * 2), depth=2 * len(q)).table


def counted_and_surveyed(table: RootSystemTable, budget: int = 10_000) -> tuple:
    """The count and the survey from one seed.  The survey raises
    NotSimplicial on a chamber it reaches with two indexings, the one check
    the count does not make."""
    seed = default_seed_chamber(table)
    return _chamber_count(table, seed, budget), chamber_bfs(table, seed, budget)


def objects_of(atlas) -> set:
    return {obj for obj in atlas.objects if obj is not None}


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_count_equals_the_survey_on_builtins(name):
    table = builtin_table(name)
    count, atlas = counted_and_surveyed(table)
    if isinstance(table.cone, Affine):
        assert count is None
    else:
        assert count == len(atlas.order) == CHAMBERS[name]


@pytest.mark.parametrize("name", sorted(D_GCMS))
def test_count_equals_the_survey_on_closures(name):
    table = closure_table(D_GCMS[name])
    count, atlas = counted_and_surveyed(table)
    assert count == len(atlas.order) == CHAMBERS[name]
    assert len(objects_of(atlas)) == 1


@pytest.mark.parametrize("q", CORPUS, ids=lambda q: "".join(map(str, q)))
def test_count_equals_the_survey_on_the_rank2_corpus(q):
    count, atlas = counted_and_surveyed(polygon_table(q))
    assert count == len(atlas.order) == 2 * len(q)


@pytest.mark.parametrize("name", ["a3", "b3", "f4"])
def test_count_equals_the_survey_on_every_single_restriction(name):
    """F4's restrictions have 2 objects and |Aut(a)| = 48: 96 chambers."""
    table = builtin_table(name)
    for root in table.roots:
        reduced = restrict(table, root).reduced_table
        count, atlas = counted_and_surveyed(reduced)
        assert count == len(atlas.order), root
        if name == "f4":
            assert count == 96 and len(objects_of(atlas)) == 2


@pytest.mark.parametrize("name", sorted(LARGE_GCMS))
def test_count_reaches_the_orders_of_d6_e6_and_e7(name):
    """One object each, so N = |Aut(a)| = |W|, counted down the flag of
    parabolic subgroupoids.  Below N, as at the default budget, the count
    gives up."""
    gcm, order = LARGE_GCMS[name]
    table = closure_table(gcm)
    seed = default_seed_chamber(table)
    obj = _root_set(seed.frame)
    assert all(_transition(obj, i)[1] == obj for i in range(table.rank))
    assert _chamber_count(table, seed, order + 1) == _chamber_count(table, seed, order) == order
    assert _chamber_count(table, seed, order - 1) is None
    assert _chamber_count(table, seed, 10_000) is None


GUARDED = ("chamber_bfs", "_wall_step", "_object_step", "default_seed_chamber")


def guarded_calls(check, table, budget: int = 10_000) -> tuple:
    """(report or raised exception, calls to the GUARDED functions)."""
    calls = dict.fromkeys(GUARDED, 0)
    with counting(calls):
        try:
            result = check(table, budget)
        except BudgetExceeded as exc:
            result = exc
    return result, calls


@pytest.mark.parametrize("check", [check_crystallographic, check_additive])
@pytest.mark.parametrize("name", SPHERICAL_BUILTINS)
def test_passing_spherical_check_makes_no_survey(check, name):
    report, calls = guarded_calls(check, builtin_table(name))
    assert report.passed and report.chambers_visited == report.certified == CHAMBERS[name]
    assert (report.skipped, report.budget_exceeded) == (0, False)
    assert calls == {**dict.fromkeys(GUARDED, 0), "default_seed_chamber": 1}


@pytest.mark.parametrize("check", [check_crystallographic, check_additive])
def test_passing_e6_check_counts_above_the_default_budget(check):
    table = closure_table(LARGE_GCMS["e6"][0])
    report, calls = guarded_calls(check, table, 60_000)
    assert report.passed and report.chambers_visited == report.certified == 51_840
    assert calls == {**dict.fromkeys(GUARDED, 0), "default_seed_chamber": 1}


def a3_with_its_highest_root_halved() -> RootSystemTable:
    a3 = closure_table([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    table = RootSystemTable(3, [tuple(c / F(2) if abs(sum(r)) == 3 else c for c in r) for r in a3.roots])
    assert not default_seed_chamber(table).frame.integral
    return table


FALLBACKS = {
    "aff-a1": lambda: builtin_table("aff-a1"),
    "aff-a1-rescaled": lambda: builtin_table("aff-a1-rescaled"),
    "b3-bare-truncation": lambda: table_from_json(table_to_json(realize(builtin_graph("b3"), depth=3).table)),
    "a3-halved": a3_with_its_highest_root_halved,
    # e1 + 2e2 is lonely at the seed; the transition across e1 is refused.
    "lonely-root": lambda: RootSystemTable(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 2), (-1, -2)]),
}


@pytest.mark.parametrize("check", [check_crystallographic, check_additive])
@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_check_surveys_once_where_the_count_does_not_apply(check, name):
    report, calls = guarded_calls(check, FALLBACKS[name]())
    assert (calls["chamber_bfs"], calls["default_seed_chamber"]) == (1, 1)
    if name == "lonely-root" and check is check_additive:
        assert not report.passed


@pytest.mark.parametrize("check", [check_crystallographic, check_additive])
def test_budget_below_the_count_surveys_and_runs_out(check):
    """The survey exceeds a budget of N - 1, and so does the check; at N and
    N + 1 the check counts."""
    table = builtin_table("f4")
    for budget in (1151, 1152, 1153):
        result, calls = guarded_calls(check, table, budget)
        assert calls["default_seed_chamber"] == 1
        if budget == 1151:
            assert isinstance(result, BudgetExceeded) and calls["chamber_bfs"] == 1
            assert len(result.partial.order) == len(chamber_bfs(table, default_seed_chamber(table), 1151).order)
        else:
            assert result.passed and result.chambers_visited == 1152 and calls["chamber_bfs"] == 0


def test_budget_below_the_number_of_objects_surveys():
    """The object BFS stops once it holds more objects than the budget."""
    q = (3, 2, 3, 1, 3, 1, 5, 2, 1)
    table = polygon_table(q)
    seed = default_seed_chamber(table)
    atlas = chamber_bfs(table, seed, 10_000)
    assert len(objects_of(atlas)) > 2
    assert _chamber_count(table, seed, 2) is None
    result, calls = guarded_calls(check_crystallographic, table, 2)
    assert isinstance(result, BudgetExceeded) and calls["chamber_bfs"] == 1


def test_object_with_a_lonely_root_surveys(monkeypatch):
    """No crystallographic table has a lonely root (every positive root of a
    finite Weyl groupoid that is not simple is a sum of two positive roots),
    so one is injected: the additive check then surveys and fails."""
    monkeypatch.setattr(arrangement, "_lonely_roots", lambda vectors, unit: [0])
    report, calls = guarded_calls(check_additive, builtin_table("b3"))
    assert not report.passed and report.chambers_visited == 48
    assert (calls["chamber_bfs"], calls["default_seed_chamber"]) == (1, 1)
