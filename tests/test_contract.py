"""The library's in-process error contract.

Every exported callable that takes a point, a covector, a wall index or an
object refuses one it cannot take with `InvalidTable` and one exact text:
one of the wrong length, out of range (-1 and r) or foreign.  It never
answers, and never lets IndexError, KeyError, TypeError, AttributeError or
a `zip` ValueError escape.

`CONTRACT` classifies every callable that `weylgpd._EXPORTS` names: by the
probes of the arguments it takes, or by the reason it has none.  A new
export fails `test_every_export_is_classified` until it is classified here.
"""

from __future__ import annotations

import pytest

import weylgpd
from weylgpd import (
    CartanGraph,
    GeneralizedCartanMatrix,
    Morphism,
    adjacency_equivalences_test,
    adjacent_chamber,
    chamber_from_point,
    check_k_spherical,
    check_localization_crystallographic,
    check_root_system_axioms,
    double_restriction,
    dual_basis,
    generate_real_roots,
    local_cartan_graph_at,
    localize,
    locate_point,
    m_ij,
    m_ij_certified,
    realize,
    reflect,
    residue,
    residue_correspondence_check,
    restrict,
    separating_set,
    sign_at,
    solve_coordinates,
    verify_combinatorial_equivalence,
    walls_and_root_basis,
)
from weylgpd._rational import fmt_covector
from weylgpd.builtins import builtin_graph, builtin_table
from weylgpd.errors import InvalidTable

NONE = "takes no point, covector, wall index or object"

A2, F4 = builtin_table("a2"), builtin_table("f4")
A2_CHAMBER = chamber_from_point(A2, (3, 1))
GRAPH = builtin_graph("a2")  # the standard graph, objects keyed by chamber
BASE = GRAPH.base
EXPLICIT = residue(GRAPH, BASE, (0, 1), 16)  # the six objects of A2, explicit
RE = realize(builtin_graph("a2"), depth=8)
RE_NEXT = RE.edges[(RE.base, 0)]
RRS = generate_real_roots(GRAPH, BASE, 3)
LOC = localize(F4, (1, 1, 0, 0))  # ambient rank 4, quotient rank 3
RST = restrict(F4, F4.roots[0])  # rank 3 inside rank 4


def wrong_lengths(rank: int, what: str = "point") -> list:
    """(argument, text) pairs: a point or covector one entry too long, and one too short."""
    return [(x, f"{what} {fmt_covector(x)} does not have rank {rank}") for x in (tuple(range(1, rank + 2)), (1,))]


def foreign(rank: int, what: str = "point") -> list:
    """(argument, text) pairs: a point or covector that is not one of rationals."""
    xs = (None, ("x",) * rank, (True,) * rank, (1.5,) * rank)
    return [(x, f"{what} {x!r} is not a vector of rationals") for x in xs]


def points(rank: int, what: str = "point") -> list:
    """`wrong_lengths` and `foreign`."""
    return wrong_lengths(rank, what) + foreign(rank, what)


def walls(rank: int) -> list:
    """(argument, text) pairs: wall indices out of range and foreign."""
    return [(i, f"wall {i!r} is outside 0..{rank - 1}") for i in (-1, rank, "0", None, True)]


def objects(holder: str, unhashable: bool = True) -> list:
    """(argument, text) pairs: ids that `holder` does not hold, an unhashable one among them."""
    ids = [("x", "x"), ((9, 9), "(9, 9)")] + [([], "[]")] * unhashable
    return [(obj, f"{text} is not an object of the {holder}") for obj, text in ids]


def probes(call, cases: list) -> list:
    """(label, thunk, text) triples: call(argument) for each (argument, text) case."""
    return [(repr(arg), (lambda arg=arg: call(arg)), text) for arg, text in cases]


def fixed(label: str, thunk, text: str) -> list:
    """One (label, thunk, text) triple."""
    return [(label, thunk, text)]


CONTRACT = {
    # _rational
    "Rat": "fractions.Fraction itself",
    "rat": "a reader of text: `cli` and `jsonio` turn its ValueError into exit 2",
    # arrangement
    "Affine": "a cone record: the table that takes it reads gamma with its own texts",
    "Chamber": "a chamber record: `arrangement._held` checks one from outside where a table reads it",
    "Gallery": NONE,
    # The constructor reads a table, not an argument: `jsonio` turns the
    # ValueError and TypeError of its `vec` into exit 2.
    "RootSystemTable": probes(A2.contains, points(2, "covector")) + probes(A2.positive_on, points(2)),
    "Spherical": NONE,
    "Truncated": NONE,
    "adjacent_chamber": probes(lambda i: adjacent_chamber(A2, A2_CHAMBER, i), walls(2)),
    "cartan_matrix_at": NONE,
    "chamber_from_point": probes(lambda x: chamber_from_point(A2, x), points(2)),
    "check_additive": NONE,
    "check_crystallographic": NONE,
    "check_k_spherical": probes(lambda k: check_k_spherical(A2, k), [(k, "k must be between 0 and 2") for k in (-1, 3)]),
    "distance_and_gallery": NONE,
    "extract_cartan_graph": NONE,
    "is_nondegenerate": NONE,
    "radical": NONE,
    "verify_combinatorial_equivalence": probes(
        lambda row: verify_combinatorial_equivalence(A2, A2, [row, (0, 1)]), points(2, "row of g")
    ),
    "walls_and_root_basis": probes(lambda x: walls_and_root_basis(A2, x), points(2)),
    # cartan
    "CartanGraph": (
        probes(GRAPH.matrix, objects("graph"))
        + probes(lambda obj: GRAPH.rho(0, obj), objects("graph"))
        + probes(lambda i: GRAPH.rho(i, BASE), walls(2))
        + probes(lambda obj: GRAPH.ball(obj, 1), objects("graph"))
        + probes(EXPLICIT.matrix, objects("graph"))
        + probes(lambda obj: EXPLICIT.rho(0, obj), objects("graph"))
        + probes(lambda i: EXPLICIT.rho(i, BASE), walls(2))
        + probes(lambda obj: CartanGraph.explicit({BASE: EXPLICIT.matrix(BASE)}, {}, obj), objects("graph"))
    ),
    # `from_rows` reads text: `cli` and `jsonio` turn its ValueError into exit 2.
    "GeneralizedCartanMatrix": probes(lambda i: GRAPH.matrix(BASE).restrict((0, i)), walls(2)),
    "Morphism": (
        probes(lambda obj: Morphism.from_word(GRAPH, obj, ()), objects("graph"))
        + probes(lambda i: Morphism.from_word(GRAPH, BASE, (0, i)), walls(2))
    ),
    "RealRootSet": probes(RRS.at, objects("real-root set")),
    "check_root_system_axioms": probes(
        lambda obj: check_root_system_axioms(GRAPH, {obj: set()}, 1), objects("graph", unhashable=False)
    ),
    "check_simply_connected": NONE,
    "generate_real_roots": (
        probes(lambda obj: generate_real_roots(GRAPH, obj, 2), objects("graph"))
        + fixed("depth=-1", lambda: generate_real_roots(GRAPH, BASE, -1), "depth must be >= 0")
    ),
    "m_ij": (
        probes(lambda obj: m_ij(RRS, obj, 0, 1), objects("real-root set"))
        + probes(lambda i: m_ij(RRS, BASE, i, 0), walls(2))
        + probes(lambda j: m_ij(RRS, BASE, 0, j), walls(2))
        + fixed("i=j", lambda: m_ij(RRS, BASE, 1, 1), "m_ij needs distinct indices")
    ),
    "m_ij_certified": (
        probes(lambda obj: m_ij_certified(GRAPH, obj, 0, 1, 5), objects("graph"))
        + probes(lambda i: m_ij_certified(GRAPH, BASE, i, 0, 5), walls(2))
        + probes(lambda j: m_ij_certified(GRAPH, BASE, 0, j, 5), walls(2))
        + fixed("i=j", lambda: m_ij_certified(GRAPH, BASE, 1, 1, 5), "m_ij needs distinct indices")
    ),
    "reflect": (
        probes(lambda i: reflect(GRAPH.matrix(BASE), i, (1, 0)), walls(2))
        + probes(lambda v: reflect(GRAPH.matrix(BASE), 0, v), points(2, "vector"))
    ),
    "residue": (
        probes(lambda obj: residue(GRAPH, obj, (0,), 5), objects("graph"))
        + probes(lambda i: residue(GRAPH, BASE, (0, i), 5), walls(2))
        + fixed("J=()", lambda: residue(GRAPH, BASE, (), 5), "the index subset must be nonempty")
    ),
    "validate_gcm": NONE,
    # exactlin
    "dual_basis": probes(lambda row: dual_basis([row, (0, 1)]), points(2, "covector")),
    "primitive_normalize": "`primitive_ray` of a covector of any length; exempt as `primitive_ray` is",
    "primitive_ray": (
        "`canonical_basis_key` calls it on every basis covector at each rho of a standard graph,"
        " so it takes no per-entry check; a covector of any nonzero length has a primitive ray"
    ),
    # The covector sets the rank of the point.
    "sign_at": (
        probes(lambda x: sign_at((1, 0), x), points(2))
        + probes(lambda alpha: sign_at(alpha, (1, 0)), foreign(2, "covector"))
    ),
    # A target whose length is not the number of basis covectors is a
    # SingularBasis ("need r basis covectors, got n").
    "solve_coordinates": (
        probes(lambda target: solve_coordinates(((1, 0), (0, 1)), target), foreign(2, "covector"))
        + probes(lambda row: solve_coordinates((row, (0, 1)), (1, 1)), points(2, "covector"))
    ),
    "vec": "a reader of text: `cli._parse_covector` and `jsonio` turn its ValueError into exit 2",
    # realization
    "Realization": probes(RE.chamber_of, objects("realization")),
    "adjacency_equivalences_test": (
        probes(lambda obj: adjacency_equivalences_test(RE, obj, RE.base, 0), objects("realization"))
        + probes(lambda obj: adjacency_equivalences_test(RE, RE.base, obj, 0), objects("realization"))
        + probes(lambda i: adjacency_equivalences_test(RE, RE.base, RE_NEXT, i), walls(2))
    ),
    "local_cartan_graph_at": (
        probes(lambda x: local_cartan_graph_at(RE, x), points(2))
        + fixed("zero", lambda: local_cartan_graph_at(RE, (0, 0)), "cannot locate the zero vector")
    ),
    "locate_point": (
        probes(lambda x: locate_point(RE, x), points(2))
        + fixed("zero", lambda: locate_point(RE, (0, 0)), "cannot locate the zero vector")
    ),
    "realize": NONE,
    "roundtrip_check": NONE,
    "separating_set": (
        probes(lambda obj: separating_set(RE, obj, RE.base), objects("realization"))
        + probes(lambda obj: separating_set(RE, RE.base, obj), objects("realization"))
    ),
    # subarr
    "Localization": probes(LOC.intrinsic_covector, points(4, "covector")) + probes(LOC.intrinsic_point, points(4)),
    "Restriction": probes(RST.intrinsic_of, points(4, "covector")) + probes(RST.ambient_of, points(3, "covector")),
    "check_localization_crystallographic": fixed(
        "rank-4 point at a rank-2 chamber",
        lambda: check_localization_crystallographic(LOC, A2_CHAMBER),
        "point (1, 1, 0, 0) does not have rank 2",
    ),
    "check_restriction_crystallographic": NONE,
    "double_restriction": (
        probes(lambda x: double_restriction(F4, x, F4.roots[1]), points(4, "covector"))
        + probes(lambda x: double_restriction(F4, F4.roots[0], x), points(4, "covector"))
    ),
    "identify_rank2": NONE,
    "local_to_global_check": NONE,
    "localize": probes(lambda x: localize(F4, x), points(4)),
    "reduce": NONE,
    "residue_correspondence_check": probes(lambda x: residue_correspondence_check(F4, x), points(4)),
    "restrict": probes(lambda x: restrict(F4, x), points(4, "covector")),
}


def test_every_export_is_classified():
    """Each callable `_EXPORTS` names has its probes or a reason; no entry names anything else."""
    exported = {name for names in weylgpd._EXPORTS.values() for name in names}
    assert set(CONTRACT) == {name for name in exported if callable(getattr(weylgpd, name))}


def test_every_reason_is_given():
    assert all(entry for entry in CONTRACT.values())


CASES = [
    pytest.param(thunk, text, id=f"{name}-{label}-{k}")
    for name, entry in CONTRACT.items()
    if not isinstance(entry, str)
    for k, (label, thunk, text) in enumerate(entry)
]


@pytest.mark.parametrize("thunk, text", CASES)
def test_a_refused_argument_raises_invalid_table_with_its_text(thunk, text):
    with pytest.raises(InvalidTable) as info:
        thunk()
    assert str(info.value) == text
