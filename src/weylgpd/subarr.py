"""Substructures of root-system tables: localizations and restrictions.

Localizing at a point keeps the roots vanishing there (a parabolic
subarrangement, viewed in the quotient by its support); restricting to a root
hyperplane H projects every other root onto H, which is generally non-reduced.
Both inherit the crystallographic property under the documented hypotheses,
and restricted rank-2 systems are identified against generated references.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Sequence

from ._rational import ONE, ZERO, Rat, fmt_covector
from ._record import Record
from .arrangement import (
    Affine,
    Chamber,
    CheckReport,
    RootSystemTable,
    Spherical,
    Truncated,
    _crossing_coefficients,
    _crystallographic_report,
    _survey,
    cartan_matrix_at,
    chamber_bfs,
    chamber_from_point,
    check_crystallographic,
    default_seed_chamber,
)
from .cartan import CartanGraph, GeneralizedCartanMatrix
from .errors import (
    BudgetExceeded,
    InvalidTable,
    NotReducible,
    OutsideCone,
    RootNotInSystem,
    Unsupported,
)
from .exactlin import (
    combination,
    dual_basis,
    int_primitive,
    integer_kernel_basis,
    nullspace_and_pivots,
    primitive_normalize,
    vdot,
    vec,
    vneg,
    vscale,
    vadd,
)

Covector = tuple
Vector = tuple


# ---------------------------------------------------------------------------
# Localization


class Localization(Record):
    point: Vector
    roots: tuple  # ambient covectors vanishing at the point
    support: tuple  # basis of the intersection of their hyperplanes
    quotient_rank: int
    pivot_columns: tuple  # ambient coordinates realizing the quotient
    table: RootSystemTable | None  # intrinsic table on the quotient, None when empty

    @property
    def empty(self) -> bool:
        return not self.roots

    def intrinsic_covector(self, alpha) -> tuple:
        return tuple(vec(alpha)[c] for c in self.pivot_columns)

    def intrinsic_point(self, y) -> tuple:
        """Image of y in the quotient, in the chosen complement coordinates: the
        support vector s_f of free column f is 1 at f and 0 at the other free
        columns, so y = sum_f y[f] s_f + sum_j c_j e_{p_j} over the pivot
        columns p_j, with c_j = y[p_j] - sum_f y[f] s_f[p_j], the image."""
        y = vec(y)
        if len(y) != len(self.point):
            raise InvalidTable(f"point {fmt_covector(y)} does not have rank {len(self.point)}")
        free = [c for c in range(len(y)) if c not in self.pivot_columns]
        return tuple(y[p] - sum(y[f] * s[p] for f, s in zip(free, self.support)) for p in self.pivot_columns)


def localize(table: RootSystemTable, x) -> Localization:
    """Parabolic subtable at x: roots vanishing at x, with quotient coordinates."""
    x = vec(x)
    roots = tuple(r for r in table.roots if vdot(r, x) == 0)
    if not roots:
        return Localization(x, (), (), 0, (), None)
    # Pivot columns of the root matrix give a complement of the support.
    support, pivots = nullspace_and_pivots(roots)
    q = len(pivots)
    intrinsic_roots = [tuple(r[c] for c in pivots) for r in roots]
    intrinsic = RootSystemTable(q, intrinsic_roots, cone=Spherical())
    return Localization(x, roots, tuple(support), q, tuple(pivots), intrinsic)


class LocalizationWitness(Record):
    root: Covector
    basis: tuple
    coords: tuple

    def __str__(self) -> str:
        terms = " + ".join(f"({c})*{fmt_covector(b)}" for c, b in zip(self.coords, self.basis))
        return f"{fmt_covector(self.root)} = {terms}"


def _localization_witnesses(basis: tuple, through: tuple, coordinates) -> list:
    """The witness rule of both localization checks.  `coordinates` holds
    (root, coords) pairs, coords the root's coordinates in the chamber basis
    `basis`, and `through` the positions of the walls through the point.  A
    nonzero coordinate off those walls gives a witness with empty
    coordinates; else a wall coordinate that is not an integer gives one
    with the wall coordinates."""
    walls = tuple(basis[j] for j in through)
    witnesses = []
    for root, coords in coordinates:
        wall_coords = tuple(coords[j] for j in through)
        if any(c for j, c in enumerate(coords) if j not in through):
            witnesses.append(LocalizationWitness(root, walls, ()))
        elif any(c.denominator != 1 for c in wall_coords):
            witnesses.append(LocalizationWitness(root, walls, wall_coords))
    return witnesses


def check_localization_crystallographic(loc: Localization, chamber: Chamber) -> CheckReport:
    """Integrality of every localized root in the chamber's walls through the point.

    InvalidTable when no wall of the chamber goes through the point x, else
    when its closure misses x.  A root's coordinates c_j are its values at
    the rays (alpha_i(rays[j]) = delta_ij).  A root of the chamber's table
    vanishing at x has sign-coherent c_j with sum_j c_j b_j(x) = 0 and
    b_j(x) >= 0, so c_j = 0 wherever b_j(x) > 0: only a covector that is no
    root of the table gets the empty-coordinate witness.
    """
    if loc.empty:
        return CheckReport("localization-crystallographic", True, (), 0, 0, 0, False)
    values = [vdot(b, loc.point) for b in chamber.basis]
    through = tuple(j for j, v in enumerate(values) if v == 0)
    if not through:
        raise InvalidTable("the chamber has no wall through the localization point")
    if any(v < 0 for v in values):
        raise InvalidTable("the chamber's closure does not contain the localization point")
    coordinates = ((root, [vdot(root, ray) for ray in chamber.rays]) for root in loc.roots)
    witnesses = _localization_witnesses(chamber.basis, through, coordinates)
    return CheckReport("localization-crystallographic", not witnesses, tuple(witnesses), 1, 1, 0, False)


def local_to_global_check(table: RootSystemTable, budget: int = 10_000) -> dict:
    """All vertex localizations crystallographic vs. the global check, rank != 2.

    The vertices are the rays of the checked chambers, each read once off
    the first chamber's integer frame.  At ray k the point is the primitive
    column k, the localized roots are the rows of `num` with 0 in column k,
    and such a row over `det` holds the root's coordinates: every wall but k
    goes through the point.

    Rank 2 is rejected: a rank-2 table can have crystallographic localizations
    at every point of the cone while failing the global check (scaling each
    hyperplane independently is invisible to rank-1 localizations).
    """
    if table.rank == 2:
        raise Unsupported(
            "rank-2 tables admit locally-crystallographic non-crystallographic scalings;"
            " the local-to-global inference needs rank != 2"
        )
    atlas = _survey(table, budget)
    local_witnesses = []
    points_checked = 0
    seen_points = set()
    for n in sorted(atlas.checked):  # the chambers the global report reads
        chamber = atlas.chambers[n]
        frame, det = chamber.frame, chamber.frame.det
        for k, col in enumerate(frame.cols):
            p = int_primitive(col)
            if p in seen_points:
                continue
            seen_points.add(p)
            localized = [(table.roots[r], [Rat(c, det) for c in row]) for r, row in enumerate(frame.num) if row[k] == 0]
            points_checked += bool(localized)
            through = tuple(j for j in range(table.rank) if j != k)
            local_witnesses += _localization_witnesses(chamber.basis, through, localized)
    global_report = _crystallographic_report(table, atlas, max_witnesses=64)
    return {
        "rank": table.rank,
        "points_checked": points_checked,
        "local_passed": not local_witnesses,
        "local_witnesses": tuple(local_witnesses),
        "global_passed": global_report.passed,
        "global_report": global_report,
        "consistent": bool(local_witnesses) or global_report.passed,
    }


# ---------------------------------------------------------------------------
# Restriction to a hyperplane


class Restriction(Record):
    source: RootSystemTable
    alpha0: Covector
    lattice_basis: tuple  # unimodular basis of H's integer lattice (ambient vectors)
    table: RootSystemTable  # intrinsic coordinates; generally non-reduced
    reduced_table: RootSystemTable
    dropped: tuple  # intrinsic covectors removed by the cone filter

    @property
    def rank(self) -> int:
        return self.table.rank

    def intrinsic_of(self, alpha) -> tuple:
        """The restriction of a covector to H, in intrinsic coordinates."""
        alpha = vec(alpha)
        return tuple(vdot(alpha, b) for b in self.lattice_basis)

    @functools.cached_property
    def _ambient_units(self) -> tuple:
        """The ambient representatives of the intrinsic unit covectors: with G
        the Gram matrix of the lattice basis, unit j maps to the combination of
        the lattice basis by column j of G^-1."""
        gram = tuple(tuple(vdot(a, b) for b in self.lattice_basis) for a in self.lattice_basis)
        return tuple(combination(col, self.lattice_basis) for col in dual_basis(gram))

    def ambient_of(self, intrinsic) -> tuple:
        """Orthogonal-projection representative (standard inner product) of an
        intrinsic covector, as an ambient tuple."""
        return combination(vec(intrinsic), self._ambient_units)

    def ambient_table(self, reduced: bool = False) -> frozenset:
        src = self.reduced_table if reduced else self.table
        return frozenset(self.ambient_of(r) for r in src.roots)


def restrict(table: RootSystemTable, alpha0) -> Restriction:
    """Restriction of the arrangement to the hyperplane of a table root.

    Roots are restricted to H = ker(alpha0); the roots on alpha0's line, the
    only ones with the zero form as image, are skipped, and for affine tables
    so are forms whose hyperplane-within-H misses the cone.
    """
    alpha0 = vec(alpha0)
    if not table.contains(alpha0):
        raise RootNotInSystem(f"{fmt_covector(alpha0)} is not in the table")
    key = primitive_normalize(alpha0)
    lattice = tuple(integer_kernel_basis(key))
    intrinsic_gamma = None
    if isinstance(table.cone, Affine):
        intrinsic_gamma = tuple(vdot(table.cone.gamma, b) for b in lattice)
        if all(c == 0 for c in intrinsic_gamma):
            raise Unsupported("the cone functional vanishes on the hyperplane")
    images = (tuple(vdot(root, b) for b in lattice) for root in table.roots if primitive_normalize(root) != key)
    projected = dict.fromkeys(images)
    kept = []
    dropped = []
    # ker(image) meets gamma > 0 unless gamma vanishes on it, i.e. is parallel to image.
    gamma_line = primitive_normalize(intrinsic_gamma) if intrinsic_gamma is not None else None
    for image in projected:
        if primitive_normalize(image) == gamma_line:
            dropped.append(image)
        else:
            kept.append(image)
    if isinstance(table.cone, Spherical):
        cone = Spherical()
    elif isinstance(table.cone, Affine):
        cone = Affine(intrinsic_gamma)
    else:
        cone = Truncated(table.cone.depth)
    sub = RootSystemTable(len(lattice), kept, cone=cone)
    return Restriction(table, alpha0, lattice, sub, reduce(sub), tuple(sorted(dropped)))


def reduce(table: RootSystemTable) -> RootSystemTable:
    """Keep per line the +/- pair of the minimal element (the common divisor);
    NotReducible when an element of a line is not an integral multiple of it."""
    kept = []
    for key, elems in sorted(table.lines.items()):
        lambdas = [_multiple(e, key) for e in elems]
        positive = sorted(lam for lam in lambdas if lam > 0)
        lam_min = positive[0]
        for lam in lambdas:
            ratio = lam / lam_min
            if ratio.denominator != 1:
                raise NotReducible(key, elems)
        kept.append(vscale(lam_min, key))
        kept.append(vscale(-lam_min, key))
    return RootSystemTable(table.rank, kept, cone=table.cone, seed_hint=table.seed_hint)


def _multiple(e: Covector, base: Covector):
    """The c with e = c * base, for e on the line of base."""
    k = next(k for k, b in enumerate(base) if b != 0)
    return e[k] / base[k]


def double_restriction(table: RootSystemTable, root_a, root_b) -> Restriction:
    """Two successive rank drops with the lattice maps composed, so ambient
    output (orthogonal-projection representatives) refers to the original space."""
    first = restrict(table, root_a)
    image_b = first.intrinsic_of(root_b)
    if not first.table.contains(image_b):
        raise RootNotInSystem(f"{fmt_covector(vec(root_b))} does not survive the first restriction")
    second = restrict(first.table, image_b)
    composed = tuple(combination(inner, first.lattice_basis) for inner in second.lattice_basis)
    return Restriction(
        source=table,
        alpha0=vec(root_a),
        lattice_basis=composed,
        table=second.table,
        reduced_table=second.reduced_table,
        dropped=second.dropped,
    )


def check_restriction_crystallographic(rst: Restriction, budget: int = 10_000) -> CheckReport:
    """The crystallographic check of the reduced restriction.  Every element of
    a line is an integral multiple of the reduced one (Cuntz, Bull. LMS 43,
    2011) by construction: `restrict` and `double_restriction`, which build
    every Restriction, take `reduced_table` from `reduce`."""
    report = check_crystallographic(rst.reduced_table, budget)
    return CheckReport(
        "restriction-crystallographic", report.passed, report.witnesses, report.chambers_visited,
        report.certified, report.skipped, False,
    )


def projected_chamber_basis(table: RootSystemTable, rst: Restriction, chamber: Chamber) -> tuple:
    """pi_H(B^K) minus zero, in intrinsic coordinates, for a chamber with the
    restriction hyperplane among its walls."""
    key = primitive_normalize(rst.alpha0)
    images = []
    for b in chamber.basis:
        if primitive_normalize(b) == key:
            continue
        images.append(rst.intrinsic_of(b))
    if len(images) != rst.rank:
        raise InvalidTable("the chamber does not have the restriction hyperplane as a wall")
    return tuple(images)


def chamber_with_wall(table: RootSystemTable, alpha0) -> Chamber:
    """Some chamber having the hyperplane of alpha0 among its walls."""
    alpha0 = vec(alpha0)
    key = primitive_normalize(alpha0)
    lattice = integer_kernel_basis(key)
    q = len(lattice)
    # A direction with alpha0 = 1 on it, along a coordinate axis.
    first = next(j for j, a in enumerate(alpha0) if a != 0)
    direction = tuple(ONE / a if j == first else ZERO for j, a in enumerate(alpha0))
    # A generic point of H, then a small push to the positive side of alpha0.
    for m in (2, 3, 5, 7, 11, 13, 17):
        z = combination([Rat(m) ** t for t in range(q)], lattice)
        if any(vdot(r, z) == 0 and primitive_normalize(r) != key for r in table.roots):
            continue
        if isinstance(table.cone, Affine) and vdot(table.cone.gamma, z) <= 0:
            z = vneg(z)
            if vdot(table.cone.gamma, z) <= 0:
                continue
        chamber = _push_chamber(table, z, direction, table.roots)
        if any(primitive_normalize(b) == key for b in chamber.basis):
            return chamber
    raise InvalidTable(f"no chamber with wall {fmt_covector(alpha0)} found")


def _push_chamber(table: RootSystemTable, z, d, guards) -> Chamber:
    """The chamber containing z + (eps/2) d, where eps is the least |g(z)|/|g(d)|
    over the guards g vanishing at neither z nor d (a unit step when none is
    left).  The guards hold every root, none vanishing at both z and d, so
    that point is on no hyperplane: a root vanishing at z does not there, and
    any other moves by at most half its value at z."""
    bounds = []
    for g in guards:
        gz, gd = vdot(g, z), vdot(g, d)
        if gz != 0 and gd != 0:
            bounds.append(abs(gz) / abs(gd))
    step = min(bounds) / 2 if bounds else ONE
    return chamber_from_point(table, vadd(z, vscale(step, d)))


# ---------------------------------------------------------------------------
# Rank-2 identification


def fan_edge_sequence(table: RootSystemTable) -> tuple[int, ...]:
    """Crossing coefficients read cyclically around a reduced rank-2 fan.

    The reading starts at the default seed chamber and crosses walls 0, 1,
    0, 1, ... once around the fan; entry k is the coefficient c of the k-th
    crossing, beta_j = c * alpha_i + alpha_j.  Another start or direction
    gives a rotation or reversal of the same cycle.

    A reduced spherical rank-2 table with 2n roots has 2n chambers.  With
    the compatible indexing each crossing moves on in one sense of rotation,
    so the walk visits each chamber once and is back at the seed after 2n.
    """
    if table.rank != 2:
        raise Unsupported("fan signatures are defined for rank-2 tables")
    if not isinstance(table.cone, Spherical):
        raise Unsupported("fan signatures need a spherical table")
    table.require_reduced()
    atlas = chamber_bfs(table, default_seed_chamber(table), len(table.roots))
    n, seq = 0, []  # the seed's id
    for step in range(len(table.roots)):
        i = step % 2
        seq.append(_crossing_coefficients(table, atlas, n, i)[1 - i])
        n = atlas.edges[2 * n + i]
    return tuple(seq)


def canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Least rotation among the sequence and its reversal."""
    seq = tuple(seq)
    best = None
    for candidate in (seq, tuple(reversed(seq))):
        for s in range(len(candidate)):
            rotated = candidate[s:] + candidate[:s]
            if best is None or rotated < best:
                best = rotated
    return best if best is not None else ()


def rank2_graph_from_edge_sequence(seq: Sequence[int]) -> CartanGraph:
    """The cyclic rank-2 Cartan graph whose fan has the given crossing sequence."""
    seq = tuple(int(s) for s in seq)
    n = len(seq)
    if n % 2 != 0:
        raise InvalidTable("edge sequences of rank-2 fans have even length")
    matrices = {}
    edges = {}
    for k in range(n):
        label_prev = (k - 1) % 2
        label_next = k % 2
        rows = [[2, 0], [0, 2]]
        rows[label_prev][1 - label_prev] = -seq[(k - 1) % n]
        rows[label_next][1 - label_next] = -seq[k]
        matrices[k] = GeneralizedCartanMatrix.from_rows(rows)
        edges[(k, label_next)] = (k + 1) % n
        edges[((k + 1) % n, label_next)] = k
    return CartanGraph.explicit(matrices, edges, 0)


_REFERENCE_SEQUENCES = {
    "A1xA1": ("standard", ((2, 0), (0, 2))),
    "A2": ("standard", ((2, -1), (-1, 2))),
    "B2": ("standard", ((2, -1), (-2, 2))),
    "G2": ("standard", ((2, -1), (-3, 2))),
    "R(1,2,2,2,1,4)": ("cycle", (1, 2, 2, 2, 1, 4, 1, 2, 2, 2, 1, 4)),
}


@functools.lru_cache(maxsize=1)
def rank2_reference_signatures() -> dict:
    """Signatures of the reference rank-2 systems, generated by realization:
    each constant reference realizes complete, hence spherical, at depth 16
    (a test pins this)."""
    from .realization import realize

    signatures = {}
    for label, (kind, data) in _REFERENCE_SEQUENCES.items():
        if kind == "standard":
            graph = CartanGraph.standard(GeneralizedCartanMatrix.from_rows(data))
        else:
            graph = rank2_graph_from_edge_sequence(data)
        signatures[canonical_cycle(fan_edge_sequence(realize(graph, depth=16).table))] = label
    return signatures


class Rank2Identification(Record):
    label: str | None
    signature: tuple[int, ...]

    @property
    def classified(self) -> bool:
        return self.label is not None


def identify_rank2(table: RootSystemTable) -> Rank2Identification:
    """Reduce, read the fan's crossing sequence, and match the references."""
    reduced = table if table.reduced else reduce(table)
    if isinstance(reduced.cone, Truncated):
        raise Unsupported("rank-2 identification needs a spherical table")
    signature = canonical_cycle(fan_edge_sequence(reduced))
    label = rank2_reference_signatures().get(signature)
    return Rank2Identification(label, signature)


# ---------------------------------------------------------------------------
# Residue correspondence


class CorrespondenceReport(Record):
    equivalent: bool
    objects_compared: int
    index_map: tuple
    mismatches: tuple

    @property
    def status(self) -> str:
        return "pass" if self.equivalent else "fail"


def residue_correspondence_check(table: RootSystemTable, x, budget: int = 10_000) -> CorrespondenceReport:
    """Localization graph vs. Cartan-graph residue at a face point, anchored.

    x must lie on a face of some chamber; the chamber's walls through x give the
    index subset J.  Near x the chamber is its tangent cone {b_j >= 0, j in J},
    a chamber of the localization whose walls are the images of the b_j, and
    `intrinsic_covector` is injective on the span of the localized roots: wall
    j in J has exactly one counterpart in the localized chamber's basis.  The
    walk crosses matching walls on both sides in lock-step and compares
    restricted Cartan matrices entry by entry.
    """
    x = vec(x)
    loc = localize(table, x)
    if loc.empty:
        raise InvalidTable("the localization at x is empty")
    chamber = _chamber_at_face(table, x, loc)
    ambient_J = tuple(i for i in range(table.rank) if vdot(chamber.basis[i], x) == 0)

    seed_intrinsic = chamber_from_point(loc.table, loc.intrinsic_point(chamber.witness))
    phi = tuple(seed_intrinsic.basis.index(loc.intrinsic_covector(chamber.basis[i])) for i in ambient_J)

    mismatches = []
    compared = 0
    seen = {chamber.key}
    queue = deque([(chamber, seed_intrinsic)])
    while queue:
        amb, intr = queue.popleft()
        if compared >= budget:
            raise BudgetExceeded("correspondence walk budget exhausted")
        amb_data = cartan_matrix_at(table, amb)
        intr_data = cartan_matrix_at(loc.table, intr)
        for a_pos, i in enumerate(ambient_J):
            for b_pos, j in enumerate(ambient_J):
                lhs = amb_data.matrix.rows[i][j]
                rhs = intr_data.matrix.rows[phi[a_pos]][phi[b_pos]]
                if lhs != rhs:
                    mismatches.append(
                        f"chamber {fmt_covector(amb.key)}: restricted entry ({i},{j}) is {lhs}, localized {rhs}"
                    )
        compared += 1
        for a_pos, i in enumerate(ambient_J):
            nxt_amb = amb_data.neighbors[i]
            nxt_intr = intr_data.neighbors[phi[a_pos]]
            if nxt_amb.key not in seen:
                seen.add(nxt_amb.key)
                queue.append((nxt_amb, nxt_intr))
    return CorrespondenceReport(not mismatches, compared, phi, tuple(mismatches))


def _chamber_at_face(table: RootSystemTable, x, loc: Localization) -> Chamber:
    """A chamber whose closure contains x, found by an exact generic push."""
    guards = list(table.roots)
    if isinstance(table.cone, Affine):
        if vdot(table.cone.gamma, x) == 0:  # x is on the boundary of the cone
            raise OutsideCone(f"gamma({fmt_covector(x)}) <= 0")
        guards.append(table.cone.gamma)
    for m in (2, 3, 5, 7, 11, 13):
        w = tuple(Rat(m) ** k for k in range(table.rank))
        if not any(vdot(r, w) == 0 for r in loc.roots):  # loc.roots: the roots vanishing at x
            return _push_chamber(table, x, w, guards)
    raise InvalidTable("no generic push direction found at the face point")
