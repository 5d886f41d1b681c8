"""Geometric realization of a connected simply connected Cartan graph.

Each object b receives an indexed basis B^b of covectors (the base object gets
the standard dual basis) propagated across edges by the reflection action, the
chamber K^b is the open cone cut out by B^b, and the realized root table is the
negation closure of all basis elements found within the generation depth.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable

from ._rational import ONE, fmt_covector
from ._record import Record
from .arrangement import (
    Chamber,
    RootSystemTable,
    Spherical,
    Truncated,
    _carry_frame,
    _frame_at,
    _frame_rays,
    _root_defects,
    extract_cartan_graph,
    interior_point,
    separating_keys,
)
from .cartan import (
    CartanGraph,
    apply_reflection_to_basis,
    canonical_basis_key,
    fmt_object,
    residue as graph_residue,
    standard_dual_basis,
)
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    NotSimplyConnected,
)
from .exactlin import (
    dual_basis,
    int_primitive,
    primitive_normalize,
    rank as mat_rank,
    solve_in_span,
    vdot,
    vec,
    vneg,
)

ObjectId = Hashable


class Realization(Record, frozen=False):
    graph: CartanGraph
    base: ObjectId
    depth: int
    bases: dict  # object -> indexed covector basis, int tuples
    rays: dict  # object -> dual basis vectors
    edges: dict  # (object, i) -> object
    order: list  # BFS order
    table: RootSystemTable
    complete: bool
    certified: frozenset  # objects with every neighbor generated
    canon: dict  # object -> canonical chamber key, int tuples
    gamma: tuple | None  # derived functional with value 1 on every chamber ray, if one exists

    @property
    def rank(self) -> int:
        return self.graph.rank

    def chamber_of(self, obj: ObjectId) -> Chamber:
        return Chamber(self.bases[obj], self.rays[obj], interior_point(self.rays[obj]))


# The AxiomViolation text of each kind of `_root_defects`, after "root <root> ".
_DEFECT_TEXT = {
    "sign": "is not sign-coherent at {obj}: coords {coords}",
    "integrality": "has non-integral coordinates at {obj}: coords {coords}",
}


def realize(graph: CartanGraph, depth: int = 8) -> Realization:
    """Generate chambers and roots from `graph.base` to the given depth and
    assemble the table.

    Raises NotSimplyConnected when two words reach one object with different
    bases or two objects with the same chamber, and AxiomViolation when a
    realized root fails to be sign-coherent at some generated chamber.
    """
    base = graph.base
    rank = graph.rank
    dist, edges, closed = graph.ball(base, depth)
    order = sorted(dist, key=lambda o: (dist[o], str(o)))
    bases: dict = {base: standard_dual_basis(rank)}
    first_edge: dict = {}  # object other than the base -> the edge that set its basis
    # The ball lists edges in BFS order, so each edge's source already has its
    # basis.  The first edge into an object sets its basis; every later one
    # must reproduce it: loops act trivially.
    for (obj, i), nxt in edges.items():
        image = apply_reflection_to_basis(bases[obj], graph.matrix(obj), i)
        if nxt not in bases:
            bases[nxt] = image
            first_edge[nxt] = (obj, i)
        elif bases[nxt] != image:
            raise NotSimplyConnected(
                f"edge {i} at {fmt_object(obj)} reaches {fmt_object(nxt)} with a conflicting basis"
            )
    canon: dict = {}
    seen_keys: dict = {}
    for obj, basis in bases.items():
        key = canonical_basis_key(basis)
        other = seen_keys.get(key)
        if other is not None and other != obj:
            raise NotSimplyConnected(
                f"objects {fmt_object(other)} and {fmt_object(obj)} realize the same chamber"
            )
        seen_keys[key] = obj
        canon[obj] = key

    roots = set()
    for basis in bases.values():
        for beta in basis:
            roots.add(beta)
            roots.add(vneg(beta))
    cone = Spherical() if closed else Truncated(depth)

    certified = frozenset(
        obj
        for obj in order
        if all(edges.get((obj, i)) is not None for i in range(rank))
    )
    table = RootSystemTable(
        rank,
        roots,
        cone=cone,
        seed_hint=interior_point(dual_basis(bases[_anchor(order, certified, base)])),
        certified_keys=frozenset(canon[obj] for obj in certified),
    )
    # Each chamber's rays and root coordinates come from its integer frame.
    # The base's frame is eliminated; every other one is carried across its
    # first edge by the same integer reflection that gave its basis.
    frames = {base: _frame_at(table, tuple(table.index[b] for b in bases[base]))}
    for nxt, (obj, i) in first_edge.items():
        coeffs = [-c for c in graph.matrix(obj).rows[i]]
        frames[nxt] = _carry_frame(frames[obj], i, coeffs, tuple(table.index[b] for b in bases[nxt]))
    rays = {}
    for obj, frame in frames.items():
        rays[obj] = _frame_rays(frame)
        defect = next(_root_defects(frame), None)
        if defect is not None:
            k, kind = defect
            text = _DEFECT_TEXT[kind].format(obj=fmt_object(obj), coords=fmt_covector(frame.coords(k)))
            raise AxiomViolation(f"root {fmt_covector(table.roots[k])} {text}")
    gamma = _derive_affine_functional(rank, frames.values())
    return Realization(
        graph=graph,
        base=base,
        depth=depth,
        bases=bases,
        rays=rays,
        edges=dict(edges),
        order=order,
        table=table,
        complete=closed,
        certified=certified,
        canon=canon,
        gamma=gamma,
    )


def _anchor(order: list, certified: frozenset, base: ObjectId) -> ObjectId:
    """The first certified object in BFS order, or the base when none is: the
    realized table's surveys start at its chamber."""
    return next((obj for obj in order if obj in certified), base)


def _derive_affine_functional(rank: int, frames) -> tuple | None:
    """A covector h with h(ray) = 1 on every primitive chamber ray, if one exists.

    Affine arrangements place all chamber rays on one affine hyperplane, which
    h recovers; spherical data admits no such h.  The rays of one chamber
    already span, so h is unique when it exists.  A frame's integer columns
    are positive multiples of its chamber's rays.
    """
    points = {int_primitive(col) for frame in frames for col in frame.cols}
    if len(points) <= rank:
        return None
    rows = sorted(points)
    return solve_in_span(tuple(zip(*rows)), (ONE,) * len(rows))


# ---------------------------------------------------------------------------
# Separation, adjacency, point location


class SeparatingSet(Record):
    pair: tuple
    keys: frozenset

    def __len__(self) -> int:
        return len(self.keys)


def separating_set(re: Realization, b: ObjectId, b2: ObjectId) -> SeparatingSet:
    """Hyperplanes with the two chambers on opposite sides."""
    keys = separating_keys(re.table, re.chamber_of(b), re.chamber_of(b2))
    return SeparatingSet((b, b2), frozenset(keys))


def gallery_distance(re: Realization, b: ObjectId, b2: ObjectId) -> int:
    """Graph distance between the two objects inside the generated region."""
    if b == b2:
        return 0
    seen = {b: 0}
    queue = deque([b])
    while queue:
        cur = queue.popleft()
        for i in range(re.rank):
            nxt = re.edges.get((cur, i))
            if nxt is None or nxt in seen:
                continue
            seen[nxt] = seen[cur] + 1
            if nxt == b2:
                return seen[nxt]
            queue.append(nxt)
    raise BudgetExceeded(f"{fmt_object(b2)} not reachable from {fmt_object(b)} in the generated region")


class AdjacencyEquivalence(Record):
    i_adjacent: bool
    rho_matches: bool
    sandwich: bool | None  # None when the region is incomplete
    separating_singleton: bool

    def all_agree(self) -> bool:
        values = {self.i_adjacent, self.rho_matches, self.separating_singleton}
        if self.sandwich is not None:
            values.add(self.sandwich)
        return len(values) == 1


def adjacency_equivalences_test(
    re: Realization, b: ObjectId, b2: ObjectId, i: int
) -> AdjacencyEquivalence:
    """Evaluate the four equivalent adjacency characterizations independently."""
    basis_b, basis_b2 = re.bases[b], re.bases[b2]
    rays_b, rays_b2 = re.rays[b], re.rays[b2]
    wall = re.bases[b][i]

    def in_closure(point, basis) -> bool:
        return all(vdot(beta, point) >= 0 for beta in basis)

    shared = [ray for ray in rays_b if in_closure(ray, basis_b2)]
    shared += [ray for ray in rays_b2 if in_closure(ray, basis_b) and ray not in shared]
    if b == b2:
        i_adjacent = False
    else:
        i_adjacent = (
            len(shared) >= 1
            and mat_rank(shared) == re.rank - 1
            and all(vdot(wall, s) == 0 for s in shared)
        )

    rho_matches = re.edges.get((b, i)) == b2 and b != b2

    constraints = [basis_b[j] for j in range(re.rank) if j != i]
    constraints += [basis_b2[j] for j in range(re.rank) if j != i]
    expected = {b, b2}
    sandwich: bool | None = True
    for obj in re.order:
        centroid = interior_point(re.rays[obj])
        inside = all(vdot(c, centroid) > 0 for c in constraints)
        if inside != (obj in expected):
            sandwich = False
            break
    if sandwich and not re.complete:
        sandwich = None
    if b == b2 and sandwich is not False:
        sandwich = False

    sep = separating_set(re, b, b2)
    separating_singleton = sep.keys == {primitive_normalize(wall)}
    return AdjacencyEquivalence(i_adjacent, rho_matches, sandwich, separating_singleton)


class LocateResult(Record):
    status: str  # "found" | "not_in_cone" | "budget_exceeded"
    obj: ObjectId | None
    steps: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def locate_point(re: Realization, x, budget: int = 10_000) -> LocateResult:
    """Greedy gallery walk toward x, crossing the lowest-index violated wall.

    Returns not_in_cone only with a certificate: a derived affine functional
    that is 1 on every chamber ray and nonpositive at x.
    """
    x = vec(x)
    if all(c == 0 for c in x):
        raise ValueError("cannot locate the zero vector")
    if re.gamma is not None and vdot(re.gamma, x) <= 0:
        return LocateResult("not_in_cone", None, 0)
    cur = re.base
    steps = 0
    while True:
        values = [vdot(beta, x) for beta in re.bases[cur]]
        violated = [j for j, v in enumerate(values) if v < 0]
        if not violated:
            return LocateResult("found", cur, steps)
        j = violated[0]
        nxt = re.edges.get((cur, j))
        if nxt is None:
            return LocateResult("budget_exceeded", cur, steps)
        cur = nxt
        steps += 1
        if steps > budget:
            return LocateResult("budget_exceeded", cur, steps)


class LocalGraphResult(Record, frozen=False):
    indices: tuple  # I_x inside the ambient index set
    roots: tuple  # realized roots vanishing at x
    graph: CartanGraph | None  # None when the localization is empty
    base_obj: ObjectId
    integer_roots: dict  # residue object -> frozenset of integer coordinate vectors


def local_cartan_graph_at(re: Realization, x, budget: int = 10_000) -> LocalGraphResult:
    """The finite local Cartan graph at a point of the closed cone."""
    x = vec(x)
    located = locate_point(re, x, budget)
    if not located.found:
        raise BudgetExceeded(f"point location failed: {located.status}")
    b = located.obj
    basis = re.bases[b]
    indices = tuple(i for i in range(re.rank) if vdot(basis[i], x) == 0)
    roots_x = tuple(r for r in re.table.roots if vdot(r, x) == 0)
    if not indices:
        if roots_x:
            raise AxiomViolation("roots vanish at x but no wall of its chamber does")
        return LocalGraphResult((), (), None, b, {})
    sub = graph_residue(re.graph, b, indices, budget)
    # Bases of residue objects, propagated from b along residue edges so that
    # they stay consistent with the ambient realization even past its depth;
    # the residue lists its objects in BFS order from b.
    local_bases = {b: re.bases[b]}
    for cur in sub.objects:
        for k, amb_i in enumerate(indices):
            nxt = sub.rho(k, cur)
            if nxt not in local_bases:
                local_bases[nxt] = apply_reflection_to_basis(
                    local_bases[cur], re.graph.matrix(cur), amb_i
                )
    integer_roots = {}
    for obj in sub.objects:
        rays = dual_basis(local_bases[obj])
        per = set()
        for root in roots_x:
            coords = tuple(vdot(root, ray) for ray in rays)
            if any(c.denominator != 1 for c in coords):
                raise AxiomViolation(f"localized root {fmt_covector(root)} non-integral at {fmt_object(obj)}")
            per.add(tuple(int(coords[i]) for i in indices))
        integer_roots[obj] = frozenset(per)
    return LocalGraphResult(indices, roots_x, sub, b, integer_roots)


# ---------------------------------------------------------------------------
# Round trip


class RoundTripReport(Record):
    equivalent: bool
    objects_compared: int
    index_map: tuple | None  # phi_0 as a tuple: graph index -> chamber index
    mismatches: tuple

    @property
    def status(self) -> str:
        return "pass" if self.equivalent else "fail"


def roundtrip_check(graph: CartanGraph, depth: int = 8, budget: int = 10_000) -> RoundTripReport:
    """realize, re-extract, and compare matrices and edges object-by-object.

    Objects are matched through their canonical chamber keys, and indices by
    matching the basis covectors at the first certified object, where the
    survey starts, so no combinatorial search is needed.  Comparison is
    restricted to the certified interior, which the realized table carries
    as its certified keys.
    """
    re = realize(graph, depth)
    # The table's seed hint is the interior point of the anchor's chamber.
    extraction = extract_cartan_graph(re.table, budget)
    mismatches = []

    # The anchor is certified, so extracted, or no object is and the
    # extraction has raised BudgetExceeded.
    anchor = _anchor(re.order, re.certified, re.base)
    anchor_chamber = extraction.chambers[re.canon[anchor]]
    phi0 = []
    for i in range(re.rank):
        beta = re.bases[anchor][i]
        matches = [k for k, alpha in enumerate(anchor_chamber.basis) if alpha == beta]
        if len(matches) != 1:
            return RoundTripReport(False, 0, None, (f"basis covector {fmt_covector(beta)} unmatched",))
        phi0.append(matches[0])
    phi0 = tuple(phi0)

    compared = 0
    for obj in re.certified:
        key = re.canon[obj]
        ext_chamber = extraction.chambers.get(key)
        if ext_chamber is None:
            mismatches.append(f"chamber {fmt_covector(key)} missing from extraction")
            continue
        expected_basis = tuple(re.bases[obj][i] for i in range(re.rank))
        actual_basis = tuple(ext_chamber.basis[phi0[i]] for i in range(re.rank))
        if expected_basis != actual_basis:
            mismatches.append(f"object {fmt_object(obj)}: basis indexing differs")
            continue
        gm, ext = graph.matrix(obj).rows, extraction.graph.matrix(key).rows
        entries = itertools.product(range(re.rank), repeat=2)
        differ = next(((i, j) for i, j in entries if gm[i][j] != ext[phi0[i]][phi0[j]]), None)
        if differ is not None:
            i, j = differ
            mismatches.append(
                f"object {fmt_object(obj)}: matrix entry ({i},{j}) is {gm[i][j]} in the graph, "
                f"{ext[phi0[i]][phi0[j]]} extracted"
            )
        for i in range(re.rank):
            nxt = re.edges.get((obj, i))
            ext_next = extraction.graph.rho(phi0[i], key)
            if nxt is not None and ext_next is not None and re.canon[nxt] != ext_next:
                mismatches.append(f"object {fmt_object(obj)}: edge {i} disagrees")
        compared += 1
    return RoundTripReport(not mismatches, compared, phi0, tuple(mismatches))
