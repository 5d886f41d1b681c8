"""Geometric realization of a connected simply connected Cartan graph.

Each object b receives an indexed basis B^b of covectors (the base object gets
the standard dual basis) propagated across edges by the reflection action, the
chamber K^b is the open cone cut out by B^b, and the realized root table is the
negation closure of all basis elements found within the generation depth.
Each K^b is built as a chamber of that table by the kernel's constructor
(`arrangement._chamber`), so `Chamber.frame` carries its frame.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable

from ._rational import Rat, fmt_covector
from ._record import Record
from .arrangement import (
    Chamber,
    IntegerFrame,
    RootSystemTable,
    Spherical,
    Truncated,
    _chamber,
    _column_is_coherent,
    _dot,
    _extract,
    _frame_at,
    _frame_rays,
    _root_defects,
    _survey,
    interior_point,
    separating_keys,
)
from .cartan import (
    CartanGraph,
    _reflected,
    _reflected_rows,
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
    clear_denominators,
    dual_basis,
    int_adjugate,
    int_primitive,
    int_row_reduce,
    primitive_normalize,
    vec,
    vneg,
)

ObjectId = Hashable


class Realization(Record):
    """Each realized object's basis and its chamber in `table`, by `realize`."""

    graph: CartanGraph
    base: ObjectId
    depth: int
    bases: dict  # object -> indexed covector basis, int tuples
    chambers: dict  # object -> its chamber K^b in the table, in the order of `bases`
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
        return self.chambers[obj]


def realize(graph: CartanGraph, depth: int = 8) -> Realization:
    """Generate chambers and roots from `graph.base` to the given depth and
    assemble the table from the int bases.  The base's chamber holds its
    eliminated frame and the interior point of its rays; every other one is
    found across the first edge (obj, i) into it, by -row i of obj's matrix.

    Raises NotSimplyConnected when two words reach one object with different
    bases or two objects with the same chamber, and AxiomViolation when a
    realized root fails to be sign-coherent at some generated chamber: the
    first in BFS order, found by the full sign test (`_root_defects`) on the
    base's frame and on a carried frame whose new column fails
    (`_column_is_coherent`, which decides it as its parent is coherent).
    """
    base = graph.base
    rank = graph.rank
    dist, edges, closed = graph.ball(base, depth)
    order = sorted(dist, key=lambda o: (dist[o], str(o)))
    bases: dict = {base: standard_dual_basis(rank)}
    first_edge: dict = {}  # object other than the base -> the edge that set its basis, with its coeffs
    # The ball lists edges in BFS order, so each edge's source already has its
    # basis.  The first edge into an object sets its basis; every later one
    # must reproduce it: loops act trivially.
    for (obj, i), nxt in edges.items():
        coeffs = tuple(-c for c in graph.matrix(obj).rows[i])
        image = _reflected_rows(bases[obj], i, coeffs)
        if nxt not in bases:
            bases[nxt] = image
            first_edge[nxt] = (obj, i, coeffs)
        elif bases[nxt] != image:
            raise NotSimplyConnected(
                f"edge {i} at {fmt_object(obj)} reaches {fmt_object(nxt)} with a conflicting basis"
            )
    canon: dict = {}
    seen_keys: dict = {}
    for obj, basis in bases.items():
        key = canonical_basis_key(basis)
        other = seen_keys.get(key)
        if other is not None:
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
    position = table.int_index
    index = tuple(map(position.__getitem__, bases[base]))
    frame = _frame_at(table, index)
    chambers = {base: _chamber(table, index, frame, interior_point(_frame_rays(frame)))}
    if next(_root_defects(frame), None) is not None:
        raise _sign_defect(base, frame)
    for nxt, (obj, i, coeffs) in first_edge.items():
        parent = chambers[obj]
        index = tuple(map(position.__getitem__, bases[nxt]))
        chamber = chambers[nxt] = _chamber(table, index, crossing=(coeffs, i, parent))
        if not _column_is_coherent(parent.frame.num_cols, i, chamber.frame.num_cols[i]):
            raise _sign_defect(nxt, chamber.frame)
    gamma = _derive_affine_functional([chamber.frame for chamber in chambers.values()])
    # Positional: a record built by keyword pays for matching the names.
    return Realization(graph, base, depth, bases, chambers, dict(edges), order, table, closed, certified, canon, gamma)


def _anchor(order: list, certified: frozenset, base: ObjectId) -> ObjectId:
    """The first certified object in BFS order, or the base when none is: the
    realized table's surveys start at its chamber."""
    return next((obj for obj in order if obj in certified), base)


def _anchor_seed(re: Realization, anchor: ObjectId) -> Chamber:
    """The realized table's default seed chamber, without an elimination:
    the anchor's held chamber, its positions and frame columns ordered by the
    table's primitive rays (as `_extreme_basis` orders them), at the seed hint."""
    table, frame = re.table, re.chambers[anchor].frame
    order = sorted(range(re.rank), key=lambda j: table.primitive[frame.index[j]])
    index, cols, num_cols = (tuple(map(v.__getitem__, order)) for v in (frame.index, frame.cols, frame.num_cols))
    return _chamber(table, index, IntegerFrame(table, index, cols, frame.det, num_cols, frame.integral), table.seed_hint)


def _sign_defect(obj: ObjectId, frame) -> AxiomViolation:
    """The AxiomViolation of the first root, in root order, that is not
    sign-coherent in the frame of `obj`: every realized frame is integral."""
    k, _ = next(_root_defects(frame))
    return AxiomViolation(
        f"root {fmt_covector(frame.table.roots[k])} is not sign-coherent at {fmt_object(obj)}: "
        f"coords {fmt_covector(frame.coords(k))}"
    )


def _derive_affine_functional(frames: list) -> tuple | None:
    """A covector h with h(ray) = 1 on every primitive chamber ray, if one
    exists and the frames are of two chambers or more.

    Affine arrangements place all chamber rays on one affine hyperplane, which
    h recovers; spherical data admits no such h.  A frame's integer columns
    are positive multiples of its chamber's rays.  The first chamber's
    primitive rays p_i, the rows of P, span: as P . adj = det * I, the unique
    h with h(p_i) = 1 is num / det for num the row sums of adj.  Every other
    ray p is then checked on integers, num . p = det.
    """
    if len(frames) < 2:
        return None
    adj, det = int_adjugate([int_primitive(col) for col in frames[0].cols])
    num = tuple(map(sum, adj))
    if all(_dot(num, int_primitive(col)) == det for frame in frames[1:] for col in frame.cols):
        return tuple(Rat(n, det) for n in num)
    return None


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
    """Graph distance between the two objects inside the generated region;
    ValueError when either is not an object of the realization.  The walk
    from b reaches b2: the ball is connected from the base, and its edge set
    is symmetric, as rho is an involution wherever it is defined."""
    for obj in (b, b2):
        if obj not in re.bases:
            raise ValueError(f"{fmt_object(obj)} is not an object of the realization")
    seen = {b: 0}
    queue = deque([b])
    while b2 not in seen:
        cur = queue.popleft()
        for i in range(re.rank):
            nxt = re.edges.get((cur, i))
            if nxt is not None and nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    return seen[b2]


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
    """Evaluate the four equivalent adjacency characterizations independently,
    on the frames' primitive columns (the rays); the sandwich reads each
    chamber at its column sum, as every constraint is a root."""
    basis_b, basis_b2 = re.bases[b], re.bases[b2]
    wall = re.bases[b][i]

    def rays_in_closure(obj, basis) -> set:
        rays = map(int_primitive, re.chambers[obj].frame.cols)
        return {ray for ray in rays if all(_dot(beta, ray) >= 0 for beta in basis)}

    shared = rays_in_closure(b, basis_b2) | rays_in_closure(b2, basis_b)
    if b == b2:
        i_adjacent = False
    else:
        i_adjacent = (
            len(shared) >= 1
            and len(int_row_reduce(list(shared))[2]) == re.rank - 1
            and all(_dot(wall, s) == 0 for s in shared)
        )

    rho_matches = re.edges.get((b, i)) == b2 and b != b2

    constraints = [basis_b[j] for j in range(re.rank) if j != i]
    constraints += [basis_b2[j] for j in range(re.rank) if j != i]
    expected = {b, b2}
    sandwich: bool | None = True
    for obj in re.order:
        point = tuple(map(sum, zip(*re.chambers[obj].frame.cols)))
        inside = all(_dot(c, point) > 0 for c in constraints)
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
    if len(x) != re.rank:
        raise ValueError(f"point {fmt_covector(x)} does not have rank {re.rank}")
    xs, _ = clear_denominators(x)
    if not any(xs):
        raise ValueError("cannot locate the zero vector")
    if re.gamma is not None and _dot(clear_denominators(re.gamma)[0], xs) <= 0:
        return LocateResult("not_in_cone", None, 0)
    cur = re.base
    steps = 0
    while True:
        j = next((j for j, beta in enumerate(re.bases[cur]) if _dot(beta, xs) < 0), None)
        if j is None:
            return LocateResult("found", cur, steps)
        nxt = re.edges.get((cur, j))
        if nxt is None:
            return LocateResult("budget_exceeded", cur, steps)
        cur = nxt
        steps += 1
        if steps > budget:
            return LocateResult("budget_exceeded", cur, steps)


class LocalGraphResult(Record):
    indices: tuple  # I_x inside the ambient index set
    roots: tuple  # realized roots vanishing at x
    graph: CartanGraph | None  # None when the localization is empty
    base_obj: ObjectId
    integer_roots: dict  # residue object -> frozenset of integer coordinate vectors


def local_cartan_graph_at(re: Realization, x, budget: int = 10_000) -> LocalGraphResult:
    """The finite local Cartan graph at a point of the closed cone.  As
    `realize` checked every root sign-coherent at every generated chamber,
    roots vanish at x only where a wall J of x's chamber b does.  Their
    J-coordinates are read off b's frame rows (its basis is unimodular, D = 1)
    and carried along the residue's edges by the (R3) action of its matrix."""
    xs, _ = clear_denominators(vec(x))
    located = locate_point(re, x, budget)
    if not located.found:
        raise BudgetExceeded(f"point location failed: {located.status}")
    b = located.obj
    table = re.table
    indices = tuple(i for i, beta in enumerate(re.bases[b]) if _dot(beta, xs) == 0)
    vanishing = [k for k, root in enumerate(table.int_roots) if _dot(root, xs) == 0]
    roots_x = tuple(map(table.roots.__getitem__, vanishing))
    if not indices:
        return LocalGraphResult((), (), None, b, {})
    sub = graph_residue(re.graph, b, indices, budget)
    num = re.chambers[b].frame.num
    integer_roots = {b: frozenset(tuple(num[k][i] for i in indices) for k in vanishing)}
    for cur in sub.objects:
        for k in range(len(indices)):
            nxt = sub.rho(k, cur)
            if nxt not in integer_roots:
                integer_roots[nxt] = frozenset(_reflected(sub.matrix(cur), k, integer_roots[cur]))
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
    matching the basis covectors at the first certified object, the anchor,
    where the survey starts (`_anchor_seed`), so no combinatorial search is
    needed.  Comparison is restricted to the certified interior, which the
    realized table carries as its certified keys.
    """
    re = realize(graph, depth)
    anchor = _anchor(re.order, re.certified, re.base)
    seed = _anchor_seed(re, anchor)
    extraction = _extract(re.table, _survey(re.table, budget, seed))
    # The seed's basis is the anchor's, reordered.
    phi0 = tuple(map(seed.basis.index, re.bases[anchor]))
    mismatches = []
    compared = 0
    for obj in re.certified:
        key = re.canon[obj]
        ext_chamber = extraction.chambers.get(key)
        if ext_chamber is None:
            mismatches.append(f"chamber {fmt_covector(key)} missing from extraction")
            continue
        if tuple(map(ext_chamber.basis.__getitem__, phi0)) != re.bases[obj]:
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
