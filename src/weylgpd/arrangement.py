"""Chamber geometry of root-system tables.

A RootSystemTable is a finite, negation-closed set of rational covectors
together with a cone specification: Spherical (the whole space), Affine with an
imaginary-root functional gamma (an open halfspace), or Truncated (a finite
slice of an infinite system, cone unknown).  Chambers are the open simplicial
cones cut out by the table; adjacency, Cartan matrices per chamber, and the
crystallographic/additive checks are all exact.

The chamber kernel decides on integers.  Scaling every root by one positive
integer L (the lcm of the root denominators) moves no hyperplane and changes
no chamber coordinate, so each table keeps its roots as integer covectors
L*root.  A chamber's integer data is its integer basis B with an adjugate A and
determinant D > 0 (B . A = D * I); root k's chamber coordinates are the
numerators int_root_k . A[:, j] over D.  Sign, integrality and wall-crossing
predicates compare those numerators; Fractions are built only for values that
leave the kernel.

A seed chamber's walls come from its extreme rays, found by double
description.  A wall crossing is one wall step (`_wall_step`), the kernel
that `_cross` and `chamber_bfs` share.  Crossing wall i of a crystallographic
arrangement is the Weyl groupoid's change of object: wall j of the neighbor
is a_j + m_j * a_i, where m_j = -c_ij is how far the a_i-string through a_j
runs inside the table, and B' = T . B for an integer involution T, so
A' = A . T is carried over with one column update.  On a frame whose roots
all have integer coordinates the step reads the strings from the table's
integer root index and accepts them when the carried column passes the sign
check.  Otherwise a wall scan names the neighbor's basis, and a frame step
that `_wall_coefficients`, the one statement of the crystallographic rule,
reads carries the frame when every coefficient is an integer; else, and at
a seed chamber, Bareiss elimination builds A.  Chamber keys and line keys
are tuples of primitive integer rays.  `chamber_bfs` builds and checks a
frame once per chamber found; a crossing into a known chamber costs only
the step that names it.  A frame records whether every root has integer
coordinates in its basis, and a carried frame inherits that from its
parent, since T is an integer matrix.  A chamber's Fraction data, its rays
and witness point, is built when it is first read; a survey that only
decides on integers builds none.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Sequence

from ._rational import ONE, ZERO, Rat, fmt_covector
from ._record import Record
from .cartan import CartanGraph, GeneralizedCartanMatrix, canonical_basis_key
from .errors import (
    BudgetExceeded,
    InvalidTable,
    NonReducedTable,
    NotCrystallographicAt,
    NotSimplicial,
    OnHyperplane,
    OutsideCone,
    SingularBasis,
    Unreachable,
    Unsupported,
    WallOnBoundary,
)
from .exactlin import (
    clear_denominators,
    combination,
    denominator_lcm,
    dual_basis,
    int_adjugate,
    int_det,
    int_primitive,
    int_row_reduce,
    is_zero,
    line_key,
    nullspace,
    primitive_ray,
    rank as mat_rank,
    sign_at,
    vdot,
    vec,
    vneg,
)

Covector = tuple
Vector = tuple


# ---------------------------------------------------------------------------
# Cone specifications


class Spherical(Record):
    def to_json(self):
        return "spherical"


class Affine(Record):
    gamma: Covector

    def to_json(self):
        return {"affine": [str(c) for c in self.gamma]}


class Truncated(Record):
    depth: int

    def to_json(self):
        return {"truncated": self.depth}


ConeSpec = Spherical | Affine | Truncated


# ---------------------------------------------------------------------------
# Tables


class RootSystemTable:
    """Finite set of roots with cone data; immutable after construction.

    Besides the roots (sorted), it keeps only data derived from them once:
    `scale` L, the integer roots `int_roots` (L*root, in root order), the
    root -> position maps `index` and `int_index` (of the integer roots), the
    positions `negation` of the negated roots, and the primitive rays
    `primitive` (int tuples), as are line keys.
    """

    def __init__(
        self,
        rank: int,
        roots: Iterable,
        cone: ConeSpec = Spherical(),
        reduced: bool | None = None,
        seed_hint: Vector | None = None,
        certified_keys: frozenset | None = None,
    ):
        self.rank = int(rank)
        self.roots = tuple(sorted({vec(r) for r in roots}))
        for r in self.roots:
            if len(r) != self.rank:
                raise InvalidTable(f"root {fmt_covector(r)} does not have rank {self.rank}")
            if is_zero(r):
                raise InvalidTable("0 is not a root")
        self.index = {r: k for k, r in enumerate(self.roots)}
        for r in self.roots:
            if vneg(r) not in self.index:
                raise InvalidTable(f"table is not negation-closed: missing {fmt_covector(vneg(r))}")
        self.negation = tuple(self.index[vneg(r)] for r in self.roots)
        self.scale = scale = denominator_lcm(c for r in self.roots for c in r)
        self.int_roots = tuple(
            tuple(c.numerator * (scale // c.denominator) for c in r) for r in self.roots
        )
        self.int_index = {r: k for k, r in enumerate(self.int_roots)}
        self.primitive = tuple(int_primitive(r) for r in self.int_roots)
        lines: dict[Covector, list] = {}
        for r, p in zip(self.roots, self.primitive):
            lines.setdefault(line_key(p), []).append(r)
        self.lines: dict[Covector, tuple] = {k: tuple(v) for k, v in lines.items()}
        derived_reduced = all(len(v) == 2 for v in self.lines.values())
        if reduced is not None and bool(reduced) != derived_reduced:
            raise InvalidTable(
                f"reduced={reduced} claimed but table is {'reduced' if derived_reduced else 'not reduced'}"
            )
        self.reduced = derived_reduced
        if isinstance(cone, Affine):
            gamma = vec(cone.gamma)
            if len(gamma) != self.rank or is_zero(gamma):
                raise InvalidTable("affine cone needs a nonzero rank-length gamma")
            cone = Affine(gamma)
        self.cone = cone
        self.seed_hint = vec(seed_hint) if seed_hint is not None else None
        # For truncated tables produced by a realization: the chamber keys known
        # to be interior (in-memory metadata, not part of the wire format).
        self.certified_keys = certified_keys

    def __repr__(self) -> str:
        return f"RootSystemTable(rank={self.rank}, n_roots={len(self.roots)}, cone={self.cone})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystemTable)
            and self.rank == other.rank
            and self.roots == other.roots
            and self.cone == other.cone
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.roots, self.cone))

    def contains(self, root) -> bool:
        return vec(root) in self.index

    def positive_on(self, x: Vector) -> list:
        """One representative per line, the element positive at x (reduced tables)."""
        return [(key, self.roots[k]) for key, k in _positive_lines(self, vec(x))]

    def require_reduced(self) -> None:
        if not self.reduced:
            raise NonReducedTable(
                "chamber geometry needs a reduced table; call subarr.reduce first"
            )


# ---------------------------------------------------------------------------
# Chambers


class Chamber:
    """An open simplicial chamber: indexed root basis, dual rays, and a witness point.

    `basis` is the indexed root basis alpha_0..alpha_{r-1} (table elements),
    `rays` its dual basis (alpha_i(rays[j]) = delta_ij) and `witness` an
    interior point.  `frame` is the integer data in the table that produced
    the chamber (see IntegerFrame), or None.  A chamber is immutable, and
    equal and hash-equal to another exactly when (basis, rays, witness) are.

    `Chamber(basis, rays, witness, frame)` holds the values given.  A chamber
    the kernel finds (`_chamber`) builds its rays from its frame, and its
    witness across the crossing that found it, when they are first read.
    """

    def __init__(self, basis: tuple, rays: tuple, witness: Vector, frame: IntegerFrame | None = None):
        self.__dict__.update(basis=basis, rays=rays, witness=witness, frame=frame)

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.rays, self.witness) == (other.basis, other.rays, other.witness)

    def __hash__(self) -> int:
        return hash((self.basis, self.rays, self.witness))

    @cached_property
    def rays(self) -> tuple:
        return _frame_rays(self.frame)

    @cached_property
    def witness(self) -> Vector:
        return _witness_across(*self._crossing)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def key(self) -> tuple:
        """canonical_basis_key(basis), built once; read through the table's
        primitive rays when the chamber has a frame."""
        if self.frame is not None:
            return _key_at(self.frame.table, self.frame.index)
        return canonical_basis_key(self.basis)

    def __repr__(self) -> str:
        return f"Chamber(basis={self.basis})"


class IntegerFrame(Record, eq=False):
    """A chamber's integer data in one table.

    B is the integer basis (the table's int_roots at `index`); the columns
    `cols` of A and `det` D > 0 satisfy B . A = D * I.  Ray j is
    table.scale * A[:, j] / D, and root k has chamber coordinates
    num[k][j] / D with num[k][j] = int_roots[k] . A[:, j].  The frame holds
    num by column (`num_cols`); its rows `num` are built on first read (by a
    full check, the wall scan, a witness), which a survey of a
    crystallographic table does only for its seed.  `integral` says whether D
    divides every entry of num, that is, whether every root has integer
    coordinates in the basis.  `_frame_at` builds a frame by elimination;
    `_wall_step` finds the frame across a wall.
    """

    table: RootSystemTable
    index: tuple
    cols: tuple
    det: int
    num_cols: tuple
    integral: bool

    def __init__(self, table: RootSystemTable, index: tuple, cols: tuple, det: int, num_cols: tuple, integral: bool):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "num_cols", num_cols)
        object.__setattr__(self, "integral", integral)

    @cached_property
    def num(self) -> tuple:
        return tuple(zip(*self.num_cols))

    def coords(self, k: int) -> tuple:
        return tuple(Rat(col[k], self.det) for col in self.num_cols)


def _key_at(table: RootSystemTable, index: tuple) -> tuple:
    """canonical_basis_key of the basis at root positions `index`, read
    through the table's primitive rays."""
    return tuple(sorted(table.primitive[k] for k in index))


def _dot(u: tuple, v: tuple) -> int:
    return sum(map(mul, u, v))


def _frame_at(table: RootSystemTable, index: tuple) -> IntegerFrame:
    adj, det = int_adjugate([table.int_roots[k] for k in index])
    if adj is None:
        raise SingularBasis("matrix is singular")
    if det < 0:
        adj, det = tuple(tuple(-a for a in row) for row in adj), -det
    cols = tuple(zip(*adj))
    # num = int_roots . A: column j of num combines the roots' coordinate
    # columns with the entries of column j of A.
    coordinates = tuple(zip(*table.int_roots))
    num_cols = tuple(_combine(col, coordinates) for col in cols)
    integral = not any(n % det for col in num_cols for n in col)
    return IntegerFrame(table, index, cols, det, num_cols, integral)


def _combine(weights: Sequence[int], vectors: Sequence[tuple]) -> tuple:
    """sum_j weights[j] * vectors[j] on integers, skipping zero weights; at
    least one weight is nonzero."""
    acc = None
    for w, v in zip(weights, vectors):
        if w:
            acc = [w * x for x in v] if acc is None else [s + w * x for s, x in zip(acc, v)]
    return tuple(acc)


def _carried_column(columns: tuple, i: int, coeffs: Sequence[int]) -> tuple:
    """Column i of columns . T for the T of `_carry_frame`:
    sum_{j != i} coeffs[j] * x_j - x_i."""
    return _combine(tuple(-1 if j == i else c for j, c in enumerate(coeffs)), columns)


def _carry_frame(
    frame: IntegerFrame, i: int, coeffs: Sequence[int], index: tuple, num_column: tuple | None = None
) -> IntegerFrame:
    """The frame at `index`, whose integer basis is T . B for the integer T
    with row i = -e_i and row j = e_j + coeffs[j] * e_i (coeffs[i] is unused).

    As T^2 = I and det T = -1, the neighbor's A' = A . T with the same D: only
    column i of A and of num changes (`_carried_column`); `num_column` is the
    new column of num when the caller has built it already.  num' = num . T
    is integral exactly when num is, so the flag carries over.
    """
    if num_column is None:
        num_column = _carried_column(frame.num_cols, i, coeffs)
    cols, num_cols = frame.cols, frame.num_cols
    return IntegerFrame(
        frame.table,
        index,
        cols[:i] + (_carried_column(cols, i, coeffs),) + cols[i + 1:],
        frame.det,
        num_cols[:i] + (num_column,) + num_cols[i + 1:],
        frame.integral,
    )


def _frame(table: RootSystemTable, chamber: Chamber) -> IntegerFrame:
    """The chamber's integer data in `table`, computed from its basis when it
    carries none for this table object (hand-built chambers, equal rebuilt tables)."""
    frame = chamber.frame
    if frame is not None and frame.table is table:
        return frame
    missing = [b for b in chamber.basis if b not in table.index]
    if missing:
        raise InvalidTable(f"basis element {fmt_covector(missing[0])} is not a root of the table")
    return _frame_at(table, tuple(table.index[b] for b in chamber.basis))


def _frame_rays(frame: IntegerFrame) -> tuple:
    """The chamber's rays, scale * A[:, j] / D: the basis dual to its roots."""
    scale, det = frame.table.scale, frame.det
    return tuple(tuple(Rat(scale * a, det) for a in col) for col in frame.cols)


def _chamber(frame: IntegerFrame, witness: Vector | None = None, crossing: tuple | None = None) -> Chamber:
    """The chamber on the frame's table roots, with its integer data.  It
    builds its rays from the frame when they are first read.  Its witness is
    `witness`, or else `_witness_across(*crossing)`, built on first read:
    `crossing` is (frame, wall, chamber) of the crossing that found it."""
    chamber = object.__new__(Chamber)
    roots = frame.table.roots
    chamber.__dict__.update(basis=tuple(roots[k] for k in frame.index), frame=frame, _crossing=crossing)
    if witness is not None:
        chamber.__dict__["witness"] = witness
    return chamber


class Gallery(Record):
    chambers: tuple
    crossings: tuple  # wall indices, len(chambers) - 1

    def __len__(self) -> int:
        return len(self.crossings)


class CoefficientWitness(Record):
    """A wall-crossing relation beta_j = c * alpha_i + d * alpha_j that is not of
    the crystallographic shape (c a nonnegative integer, d = 1)."""

    i: int
    j: int
    root: Covector
    c: object
    d: object

    def __str__(self) -> str:
        return (
            f"crossing wall {self.i}: basis[{self.j}] -> "
            f"{fmt_covector(self.root)} = ({self.c})*a_{self.i} + ({self.d})*a_{self.j}"
        )


class IntegralityWitness(Record):
    """A root whose coordinates in a chamber basis are non-integral or sign-mixed."""

    chamber_key: tuple
    basis: tuple
    root: Covector
    coords: tuple
    kind: str  # "integrality" | "sign"

    def __str__(self) -> str:
        terms = " + ".join(
            f"({c})*{fmt_covector(b)}" for c, b in zip(self.coords, self.basis)
        )
        return f"{fmt_covector(self.root)} = {terms}  [{self.kind}]"


class ChamberCartanData(Record):
    chamber: Chamber
    matrix: GeneralizedCartanMatrix
    neighbors: tuple  # Chamber per wall index
    coefficients: tuple  # coefficients[i][j] = c with beta_j = c*a_i + a_j


# ---------------------------------------------------------------------------
# Walls and adjacency


def coords_in_chamber(table: RootSystemTable, chamber: Chamber, root) -> tuple:
    """Coordinates of a covector in the chamber's basis, exactly.

    The chamber's basis must consist of roots of `table` (InvalidTable otherwise).
    """
    frame = _frame(table, chamber)
    covector = vec(root)
    if len(covector) != table.rank:
        raise InvalidTable(f"covector {fmt_covector(covector)} does not have rank {table.rank}")
    ints, m = clear_denominators(covector)
    den = m * frame.det
    return tuple(Rat(table.scale * _dot(ints, col), den) for col in frame.cols)


def chamber_from_point(table: RootSystemTable, x) -> Chamber:
    """The chamber containing x; x must be generic and inside the cone."""
    table.require_reduced()
    x = vec(x)
    if len(x) != table.rank:
        raise InvalidTable(f"point {fmt_covector(x)} does not have rank {table.rank}")
    if isinstance(table.cone, Affine) and sign_at(table.cone.gamma, x) <= 0:
        raise OutsideCone(f"gamma({fmt_covector(x)}) <= 0")
    positives = _positive_lines(table, x)  # raises OnHyperplane when not generic
    return _chamber(_frame_at(table, _extreme_basis(table, positives)), x)


def walls_and_root_basis(table: RootSystemTable, x) -> tuple:
    """The indexed root basis (irredundant positive constraints) at a generic x."""
    table.require_reduced()
    return tuple(table.roots[k] for k in _extreme_basis(table, _positive_lines(table, vec(x))))


def _positive_lines(table: RootSystemTable, x: Vector) -> list:
    """(line key, index of the line's root positive at x) per line, by key."""
    if len(x) != table.rank:
        raise InvalidTable(f"point {fmt_covector(x)} does not have rank {table.rank}")
    xs, _ = clear_denominators(x)
    out = []
    for key, elems in sorted(table.lines.items()):
        k = table.index[elems[0]]
        s = _dot(table.int_roots[k], xs)
        if s == 0:
            raise OnHyperplane(elems[0], x)
        out.append((key, k if s > 0 else table.negation[k]))
    return out


def _cone_rays(reps: Sequence[tuple], rank: int) -> list:
    """The extreme rays (primitive int tuples) of the cone {reps >= 0}, by
    double description (Fukuda and Prodon, "Double description method
    revisited", 1996): one elimination of [reps^T | I] gives the dual rays of
    the first `rank` independent lines, and each further line keeps the rays
    on its nonnegative side and joins each adjacent pair on opposite sides.
    Two rays are adjacent when they share >= rank-2 zero lines (line
    positions) and no third ray vanishes on all of those.  Lines that do not
    span leave the kernel line, if the kernel is one, and no ray otherwise."""
    n = len(reps)
    reduced, d, pivots = int_row_reduce(
        [[rep[t] for rep in reps] + [int(j == t) for j in range(rank)] for t in range(rank)]
    )
    if pivots[-1] >= n:
        kernel = [row[n:] for row, p in zip(reduced, pivots) if p >= n]
        return [int_primitive(kernel[0])] if len(kernel) == 1 else []
    # Row j is d times the ray dual to line pivots[j]; it vanishes on the others.
    rays = [int_primitive(row[n:] if d > 0 else [-a for a in row[n:]]) for row in reduced]
    zeros = [frozenset(pivots[:j] + pivots[j + 1:]) for j in range(rank)]
    for m in sorted(set(range(n)) - set(pivots)):
        values = [_dot(reps[m], ray) for ray in rays]
        keep = [t for t, v in enumerate(values) if v >= 0]
        new_rays = [rays[t] for t in keep]
        new_zeros = [zeros[t] | {m} if values[t] == 0 else zeros[t] for t in keep]
        positive = [t for t in keep if values[t] > 0]
        for a, b in itertools.product(positive, [t for t, v in enumerate(values) if v < 0]):
            shared = zeros[a] & zeros[b]
            if len(shared) < rank - 2 or any(shared <= z for t, z in enumerate(zeros) if t != a and t != b):
                continue
            # values[a] * ray_b - values[b] * ray_a lies on line m and in the cone.
            va, vb = values[a], values[b]
            new_rays.append(int_primitive(tuple(va * y - vb * x for x, y in zip(rays[a], rays[b]))))
            new_zeros.append(shared | {m})
        rays, zeros = new_rays, new_zeros
    return rays


def _extreme_basis(table: RootSystemTable, positives: Sequence[tuple]) -> tuple:
    """Facet-defining representatives among positive constraints of a simplicial cone.

    `positives` holds (line key, root index) pairs.  The cone they cut out
    must have exactly `rank` extreme rays (`_cone_rays`), and each wall is the
    unique constraint line vanishing on the other rank-1 rays.  Returns root
    indices."""
    rank = table.rank
    if len(positives) < rank:
        raise NotSimplicial(f"only {len(positives)} lines in rank {rank}")
    if rank == 1:
        if len(positives) != 1:
            raise NotSimplicial("rank-1 tables have a single hyperplane line")
        return (positives[0][1],)
    keys = [key for key, _ in positives]
    rays = _cone_rays([table.int_roots[k] for _, k in positives], rank)
    if len(rays) != rank or int_det(rays) == 0:
        raise NotSimplicial(f"chamber has {len(rays)} extreme rays, expected {rank}")
    basis = []
    for m in range(rank):
        others = rays[:m] + rays[m + 1:]
        wall = next(
            (k for key, (_, k) in zip(keys, positives) if all(_dot(key, d) == 0 for d in others)),
            None,
        )
        if wall is None:
            raise NotSimplicial("a facet of the chamber lies on no table hyperplane")
        if _dot(table.int_roots[wall], rays[m]) <= 0:
            raise NotSimplicial("wall orientation inconsistent with chamber rays")
        basis.append(wall)
    basis.sort(key=table.primitive.__getitem__)
    return tuple(basis)


def _rays_in_cone(gamma: Covector, chamber: Chamber) -> list:
    """For each ray of the chamber, whether it lies inside the open cone gamma > 0."""
    return [vdot(gamma, ray) > 0 for ray in chamber.rays]


def wall_is_crossable(table: RootSystemTable, chamber: Chamber, i: int) -> bool:
    """Whether the facet on wall i meets the open cone."""
    if not isinstance(table.cone, Affine):
        return True
    inside = _rays_in_cone(table.cone.gamma, chamber)
    return any(inside[:i] + inside[i + 1:])


def adjacent_chamber(table: RootSystemTable, chamber: Chamber, i: int) -> Chamber:
    """The chamber across wall i, with compatible indexing (see `_cross`)."""
    table.require_reduced()
    if not wall_is_crossable(table, chamber, i):
        raise WallOnBoundary(f"wall {i} of chamber {fmt_covector(chamber.key)} does not meet the cone")
    frame = _frame(table, chamber)
    return _chamber(_cross(table, frame, i), crossing=(frame, i, chamber))


def _cross(table: RootSystemTable, frame: IntegerFrame, i: int) -> IntegerFrame:
    """The frame of the chamber across wall i, with compatible indexing: the
    wall step, then the full check of the claimed basis."""
    _, _, across = _wall_step(table, frame, i)
    _verify_chamber_basis(across)
    return across


def _wall_step(table: RootSystemTable, frame: IntegerFrame, i: int, known=()) -> tuple:
    """The crossing of wall i of a verified frame: (key, index, across) for
    the neighbor's chamber key and root positions, and its checked frame,
    or None for `across` when the key is in `known`.

    On an integral frame the root strings (`_string_walls`) guess the
    neighbor.  A known guessed key is the neighbor: a verified chamber whose
    basis is -a_i and a_j + m_j * a_i has the facet on wall i in its closure,
    beyond wall i, and it has one basis element in each plane of a_i and a_j,
    so its indexing is the compatible one.  A new guessed key is accepted
    when its new column of num passes the check of a carried column; only
    then is the frame carried.  Otherwise, and on a frame that is not
    integral, the wall scan (`_walls_across`) names the neighbor and the
    frame step (`_frame_across`) builds its frame, which is then checked.
    """
    if frame.integral:
        index, coeffs = _string_walls(table, frame, i)
        key = _key_at(table, index)
        if key in known:
            return key, index, None
        column = _carried_column(frame.num_cols, i, coeffs)
        if _column_is_coherent(frame.num_cols, i, column):
            return key, index, _carry_frame(frame, i, coeffs, index, column)
    index = _walls_across(table, frame, i)
    key = _key_at(table, index)
    if key in known:
        return key, index, None
    across, column = _frame_across(table, frame, i, index)
    _verify_chamber_basis(across, column)
    return key, index, across


def _string_walls(table: RootSystemTable, frame: IntegerFrame, i: int) -> tuple:
    """(index, coeffs): the neighbor across wall i as the Weyl groupoid's
    change of object, read from root strings.  Wall i is -a_i; wall j is the
    last root of the a_i-string a_j, a_j + a_i, a_j + 2*a_i, ... in the table,
    and coeffs[j] = m_j its step count (-c_ij); coeffs[i] is -2.

    This is the neighbor when the crossing is crystallographic and the
    table holds the whole string; `_wall_step` checks the guess.
    """
    ints, position = table.int_roots, table.int_index
    alpha = ints[frame.index[i]]
    index, coeffs = [], []
    for j, k in enumerate(frame.index):
        if j == i:
            index.append(table.negation[k])
            coeffs.append(-2)
            continue
        m, beta = 0, ints[k]
        while True:
            beta = tuple(map(add, beta, alpha))
            longer = position.get(beta)
            if longer is None:
                break
            k, m = longer, m + 1
        index.append(k)
        coeffs.append(m)
    return tuple(index), tuple(coeffs)


def _walls_across(table: RootSystemTable, frame: IntegerFrame, i: int) -> tuple:
    """The root positions of the neighbor's basis across wall i, by a scan
    of the frame's rows: the fallback of `_wall_step`.

    Index i receives -alpha_i; every other index j receives the unique wall of
    the neighbor inside the plane spanned by alpha_i and alpha_j.

    In that plane, the roots positive just across the facet have
    coordinates (c, d) there with d > 0, and the new wall j maximizes c/d.
    The scan starts plane j at alpha_j itself (c = 0, d = D), so only a root
    with c > 0 and exactly one other nonzero coordinate can replace it; the
    maximum is unique in a reduced table.
    """
    r = len(frame.index)
    best = [(0, frame.det, k) for k in frame.index]
    for k, row in enumerate(frame.num):
        c = row[i]
        if c <= 0 or row.count(0) != r - 2:
            continue
        j = next(t for t, v in enumerate(row) if v and t != i)
        d = row[j]
        if d > 0 and c * best[j][1] > best[j][0] * d:
            best[j] = (c, d, k)
    walls = [k for _, _, k in best]
    walls[i] = table.negation[frame.index[i]]
    return tuple(walls)


def _frame_across(table: RootSystemTable, frame: IntegerFrame, i: int, index: tuple) -> tuple:
    """(frame at `index`, i), carried across wall i when `_wall_coefficients`
    reads the crossing as crystallographic, else (eliminated frame, None)."""
    coeffs = _wall_coefficients(frame, i, index)
    if isinstance(coeffs, CoefficientWitness):
        return _frame_at(table, index), None
    return _carry_frame(frame, i, coeffs, index), i


def _witness_across(frame: IntegerFrame, i: int, chamber: Chamber) -> Vector:
    """An interior point of the neighbor across wall i of `chamber`, whose
    frame is `frame`, found exactly.

    It is the facet point (the sum of the rays other than ray i) minus half
    of the largest step eps along ray i that no root hyperplane interrupts:
    eps is the least |root(facet point)| / |root(ray i)|, a ratio of numerators.
    In rank 1 it is the chamber's own witness point negated.
    """
    if len(frame.index) == 1:
        return vneg(chamber.witness)
    eps = None  # (p, q) for p / q
    for row in frame.num:
        q = abs(row[i])
        p = abs(sum(row) - row[i])
        if p and q and (eps is None or p * eps[1] < eps[0] * q):
            eps = (p, q)
    sp, sq = (eps[0], 2 * eps[1]) if eps is not None else (1, 1)
    ray_i = frame.cols[i]
    others = [col for j, col in enumerate(frame.cols) if j != i]
    den = sq * frame.det
    scale = frame.table.scale
    return tuple(
        Rat(scale * (sq * sum(col[m] for col in others) - sp * ray_i[m]), den)
        for m in range(len(ray_i))
    )


def _verify_chamber_basis(frame: IntegerFrame, column: int | None = None) -> None:
    """Every root must have sign-coherent coordinates in the frame's basis.

    Together with the basis elements being table roots this pins the claimed
    simplicial cone to an actual chamber of the table's arrangement.  No
    root's coordinates all vanish: its row of num is int_root . A with A
    invertible, and the table has no zero root.

    A frame carried from a verified one is new in `column` only: a row is
    coherent exactly when that entry does not disagree in sign with the rest.
    """
    if column is not None and _column_is_coherent(frame.num_cols, column, frame.num_cols[column]):
        return
    for k, row in enumerate(frame.num):
        if min(row) < 0 < max(row):
            raise NotSimplicial(
                f"root {fmt_covector(frame.table.roots[k])} separates the claimed chamber "
                f"{fmt_covector(_key_at(frame.table, frame.index))}: coords {fmt_covector(frame.coords(k))}"
            )


def _column_is_coherent(num_cols: tuple, column: int, new: tuple) -> bool:
    """Whether every row stays sign-coherent when column `column` of a
    verified frame's num is replaced by `new`: each new entry agrees in sign
    with the sum of the row's other entries, which has their sign."""
    rest = map(sum, zip(*(col for j, col in enumerate(num_cols) if j != column)))
    return min(map(mul, new, rest), default=0) >= 0


def _root_defects(frame: IntegerFrame):
    """(k, kind) for every root k, in root order, whose chamber coordinates
    are not integral and sign-coherent.  The kind is "sign" (both signs) or,
    failing that, "integrality", which an integral frame never has."""
    det, integral = frame.det, frame.integral
    for k, row in enumerate(frame.num):
        if min(row) < 0 < max(row):
            yield k, "sign"
        elif not integral and any(n % det for n in row):
            yield k, "integrality"


def _wall_coefficients(frame: IntegerFrame, i: int, index: tuple) -> tuple | CoefficientWitness:
    """The crystallographic rule: the crossing of wall i to the neighbor on
    root positions `index` as c_j with basis'[j] = c_j * a_i + a_j (-2 at i),
    or the CoefficientWitness of the first wall j whose coordinates (c, d) / D
    have d != D or c not divisible by D.

    Wall j lies in the plane of a_i and a_j with c >= 0, since a_j itself, with
    c = 0, competes for it; on the reverse crossing a_j = (c/d)(-a_i) + (D/d) b_j.
    """
    det, num_cols = frame.det, frame.num_cols
    out = []
    for j, k in enumerate(index):
        if j == i:
            out.append(-2)
            continue
        c, d = num_cols[i][k], num_cols[j][k]
        if d != det or c % det:
            return CoefficientWitness(i, j, frame.table.roots[k], Rat(c, det), Rat(d, det))
        out.append(c // det)
    return tuple(out)


def cartan_matrix_at(table: RootSystemTable, chamber: Chamber) -> ChamberCartanData:
    """The generalized Cartan matrix read off from all wall crossings at a chamber.

    Raises NotCrystallographicAt with the offending relation when a transition
    coefficient is non-integral or the j-slot coefficient is not 1.
    """
    neighbors = []
    coeff_rows = []
    for i in range(chamber.rank):
        neighbor = adjacent_chamber(table, chamber, i)
        coeffs = _wall_coefficients(_frame(table, chamber), i, neighbor.frame.index)
        if isinstance(coeffs, CoefficientWitness):
            raise NotCrystallographicAt(chamber.key, coeffs)
        neighbors.append(neighbor)
        coeff_rows.append(coeffs)
    matrix = GeneralizedCartanMatrix.from_rows(tuple(-c for c in row) for row in coeff_rows)
    return ChamberCartanData(chamber, matrix, tuple(neighbors), tuple(coeff_rows))


# ---------------------------------------------------------------------------
# Chamber BFS with certification


class ChamberAtlas(Record, frozen=False):
    seed_key: tuple
    chambers: dict  # key -> Chamber
    edges: dict  # (key, i) -> key
    order: list  # BFS order of keys
    true_chambers: set  # keys that chamber_is_true accepts
    certified: set  # true chambers all of whose neighbors are true
    # The chambers analyses read: the certified set, except on a bare
    # truncation, where nothing is certified and every visited chamber is read.
    checked: set
    budget_exceeded: bool


def chamber_is_true(table: RootSystemTable, chamber: Chamber) -> bool | None:
    """Whether the chamber is a chamber of the system the table describes.

    Spherical: always.  A table with `certified_keys` (a realization): exactly
    when the chamber's key is certified.  Affine: when all its rays lie
    strictly inside the cone.  None for a bare truncation, which cannot tell.
    """
    if isinstance(table.cone, Spherical):
        return True
    if table.certified_keys is not None:
        return chamber.key in table.certified_keys
    if isinstance(table.cone, Affine):
        return all(_rays_in_cone(table.cone.gamma, chamber))
    return None


def chamber_bfs(table: RootSystemTable, seed: Chamber, budget: int) -> ChamberAtlas:
    """Breadth-first chamber exploration from a seed chamber.

    Frames are kept under chamber keys.  Each crossing is one wall step
    (`_wall_step`): on an integral frame the root strings name the
    neighbor's basis positions and key; otherwise, or when that guess fails
    its check, the wall scan does.  A known key only has its indexing
    compared (frames on the same positions are equal: A = D * B^-1, and a
    carry keeps D = |det B|).  A new key gets its frame, checked (in full
    for the seed, which must be a chamber, and for an eliminated frame; on
    the new column for a carried one), its Chamber (whose rays and witness
    are built on first read) and its `chamber_is_true` verdict.  Only
    chambers not rejected are expanded: inside the cone of an affine table,
    inside the certified region of a realized truncation (its border is
    visited but not crossed).  Crossings into non-simplicial frontier
    regions of bare truncations are recorded as missing edges.  A realized
    truncation's certified set is its true set; a bare truncation has none.
    """
    table.require_reduced()
    spherical = isinstance(table.cone, Spherical)
    seed_key = seed.key
    chambers = {seed_key: seed}
    frames = {seed_key: _frame(table, seed)}
    _verify_chamber_basis(frames[seed_key])
    verdict = {seed_key: chamber_is_true(table, seed)}
    order = [seed_key]
    edges: dict = {}
    queue = deque([seed_key])
    budget_exceeded = False
    while queue:
        if len(order) > budget:
            budget_exceeded = True
            break
        key = queue.popleft()
        if verdict[key] is False:
            continue
        chamber, frame = chambers[key], frames[key]
        for i in range(table.rank):
            if (key, i) in edges or not wall_is_crossable(table, chamber, i):
                continue
            try:
                nkey, index, across = _wall_step(table, frame, i, frames)
            except NotSimplicial:
                if spherical:
                    raise
                continue
            if across is not None:
                neighbor = _chamber(across, crossing=(frame, i, chamber))
                chambers[nkey], frames[nkey] = neighbor, across
                verdict[nkey] = chamber_is_true(table, neighbor)
                order.append(nkey)
                queue.append(nkey)
            elif frames[nkey].index != index:
                raise NotSimplicial(
                    f"chamber {fmt_covector(nkey)} reached with conflicting compatible indexings"
                )
            edges[(key, i)] = nkey
            edges[(nkey, i)] = key
    true_chambers = {key for key in order if verdict[key]}
    if not isinstance(table.cone, Truncated):
        certified = {
            key for key in true_chambers if all(edges.get((key, i)) in true_chambers for i in range(table.rank))
        }
        checked = set(certified)
    elif table.certified_keys is not None:
        certified, checked = set(true_chambers), set(true_chambers)
    else:
        certified, checked = set(), set(order)
    return ChamberAtlas(seed_key, chambers, edges, order, true_chambers, certified, checked, budget_exceeded)


def interior_point(rays: Sequence) -> Vector:
    """The point sum_i (1 + (i+1)/(r+1)) * rays[i] of the open cone on r rays;
    the distinct weights break symmetry."""
    r = len(rays)
    return combination([ONE + Rat(i + 1, r + 1) for i in range(r)], rays)


def default_seed_chamber(table: RootSystemTable) -> Chamber:
    """Deterministic seed: `interior_point` of the dual basis of the first
    independent root subset.

    If that point is non-generic or outside the cone, deterministic fallbacks
    (geometric weights, both signs) are tried.
    """
    if table.seed_hint is not None:
        return chamber_from_point(table, table.seed_hint)
    r = table.rank
    subset: list = []
    for root in table.roots:
        if mat_rank(subset + [root]) > len(subset):
            subset.append(root)
        if len(subset) == r:
            break
    if len(subset) < r:
        raise InvalidTable("table does not span; chamber geometry is degenerate")
    duals = dual_basis(subset)
    candidates = [interior_point(duals)]
    for m in (2, 3, 5, 7, 11, 13):
        candidates.append(combination([Rat(m) ** i for i in range(r)], duals))
    for cand in candidates:
        for point in (cand, vneg(cand)):
            try:
                return chamber_from_point(table, point)
            except (OnHyperplane, OutsideCone):
                continue
    raise InvalidTable("no generic seed point found")


# ---------------------------------------------------------------------------
# Reports


class CheckReport(Record):
    check: str
    passed: bool
    witnesses: tuple
    chambers_visited: int
    certified: int
    skipped: int
    budget_exceeded: bool

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def first_witness(self):
        return self.witnesses[0] if self.witnesses else None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "witness": str(self.first_witness) if self.witnesses else None,
            "witnesses": [str(w) for w in self.witnesses],
            "chambers_visited": self.chambers_visited,
            "certified": self.certified,
            "skipped": self.skipped,
            "budget_exceeded": self.budget_exceeded,
        }


def _survey(table: RootSystemTable, budget: int) -> ChamberAtlas:
    """The chamber atlas an analysis reads: BFS from the default seed chamber,
    with BudgetExceeded when the budget runs out."""
    atlas = chamber_bfs(table, default_seed_chamber(table), budget)
    if atlas.budget_exceeded:
        raise BudgetExceeded("chamber budget exhausted", partial=atlas)
    return atlas


def _scan_order(frame: IntegerFrame, indices: list) -> list:
    """Roots smallest first: by l1-size of chamber coordinates, then
    lexicographically; rows of num are read only when there are roots."""
    return sorted(indices, key=lambda k: (sum(map(abs, frame.num[k])), frame.num[k]))


def _report(
    check: str, table: RootSystemTable, atlas: ChamberAtlas, chamber_witnesses, max_witnesses: int
) -> CheckReport:
    """The report of `chamber_witnesses(key, chamber)` over the checked
    chambers in BFS order, keeping the first max_witnesses witnesses; even
    max_witnesses <= 0 keeps the first one, so a failure is never a pass."""
    checked = atlas.checked
    found = (
        witness
        for key in atlas.order
        if key in checked
        for witness in chamber_witnesses(key, atlas.chambers[key])
    )
    witnesses = list(itertools.islice(found, max(max_witnesses, 1)))
    return CheckReport(
        check,
        not witnesses,
        tuple(witnesses),
        len(atlas.order),
        len(atlas.certified),
        len(atlas.order) - len(checked),
        False,
    )


def _crystallographic_report(table: RootSystemTable, atlas: ChamberAtlas, max_witnesses: int) -> CheckReport:
    """The crystallographic check on an atlas already surveyed.  The survey
    verified every chamber's signs, so an integral frame has no defect."""

    def witnesses(key, chamber):
        frame = _frame(table, chamber)
        if frame.integral:
            return
        kinds = dict(_root_defects(frame))
        for k in _scan_order(frame, list(kinds)):
            root, coords = table.roots[k], frame.coords(k)
            if all(c <= 0 for c in coords):
                root, coords = vneg(root), vneg(coords)
            yield IntegralityWitness(key, chamber.basis, root, coords, kinds[k])

    return _report("crystallographic", table, atlas, witnesses, max_witnesses)


def check_crystallographic(table: RootSystemTable, budget: int = 10_000, max_witnesses: int = 64) -> CheckReport:
    """Integral, sign-coherent coordinates of every root at every certified chamber."""
    return _crystallographic_report(table, _survey(table, budget), max_witnesses)


class AdditiveWitness(Record):
    chamber_key: tuple
    basis: tuple
    root: Covector
    coords: tuple

    def __str__(self) -> str:
        return (
            f"positive root {fmt_covector(self.root)} (coords {fmt_covector(self.coords)})"
            " is neither in the basis nor a sum of two positive roots"
        )


def check_additive(table: RootSystemTable, budget: int = 10_000, max_witnesses: int = 64) -> CheckReport:
    """Every positive root is a basis element or a sum of two positive roots."""

    def witnesses(key, chamber):
        frame = _frame(table, chamber)
        for k in _scan_order(frame, _lonely_roots(frame)):
            yield AdditiveWitness(key, chamber.basis, table.roots[k], frame.coords(k))

    return _report("additive", table, _survey(table, budget), witnesses, max_witnesses)


def _lonely_roots(frame: IntegerFrame) -> list:
    """The positive roots of a verified frame (rows of num are sign-coherent
    and nonzero) that are neither basis elements nor sums of two positive
    roots: beta - alpha is a positive root for no positive alpha, trying the
    basis elements first."""
    ints, position = frame.table.int_roots, frame.table.int_index
    # A coherent row has the sign of its sum.
    positive = [s > 0 for s in map(sum, zip(*frame.num_cols))]
    tries = [*frame.index, *(k for k, p in enumerate(positive) if p and k not in frame.index)]

    def is_sum(beta: tuple) -> bool:
        diffs = (position.get(tuple(map(sub, beta, ints[a]))) for a in tries)
        return any(m is not None and positive[m] for m in diffs)

    return [k for k in tries[len(frame.index):] if not is_sum(ints[k])]


# ---------------------------------------------------------------------------
# Cartan-graph extraction


class ExtractionResult(Record, frozen=False):
    graph: CartanGraph
    root_sets: dict  # chamber key -> frozenset of integer coordinate vectors
    chambers: dict  # chamber key -> Chamber
    atlas: ChamberAtlas

    @property
    def certified(self) -> set:
        return set(self.atlas.certified)


def extract_cartan_graph(table: RootSystemTable, budget: int = 10_000) -> ExtractionResult:
    """Chambers as objects, wall crossings as edges, Cartan matrix per chamber.

    The objects are the atlas's checked chambers: the certified ones (for a
    realized table, the realization's certified region), or every visited
    chamber of a bare truncation.
    """
    atlas = _survey(table, budget)
    checked = atlas.checked
    matrices = {}
    root_sets = {}
    chambers = {}
    for key in atlas.order:
        if key not in checked:
            continue
        chamber = atlas.chambers[key]
        matrices[key] = _matrix_from_atlas(table, atlas, key)
        chambers[key] = chamber
        frame = _frame(table, chamber)
        # A surveyed chamber's roots are sign-coherent, so the first defect,
        # if any, is one of integrality, which an integral frame has not.
        defect = None if frame.integral else next(_root_defects(frame), None)
        if defect is not None:
            k, kind = defect
            raise NotCrystallographicAt(
                key, IntegralityWitness(key, chamber.basis, table.roots[k], frame.coords(k), kind)
            )
        # The division is exact: D divides every numerator of an integral frame.
        root_sets[key] = frozenset(zip(*(map(frame.det.__rfloordiv__, col) for col in frame.num_cols)))
    edges = {
        (a, i): b
        for (a, i), b in atlas.edges.items()
        if a in checked and b in checked
    }
    truncated = any(
        (key, i) not in edges
        for key in matrices
        for i in range(table.rank)
    )
    if not matrices:
        raise BudgetExceeded("no certified chamber to extract", partial=atlas)
    base = atlas.seed_key if atlas.seed_key in matrices else next(iter(matrices))
    graph = CartanGraph.explicit(matrices, edges, base, truncated=truncated)
    return ExtractionResult(graph, root_sets, chambers, atlas)


def _matrix_from_atlas(table: RootSystemTable, atlas: ChamberAtlas, key: tuple) -> GeneralizedCartanMatrix:
    """Cartan matrix at a chamber from crossings already discovered by the BFS."""
    frame = _frame(table, atlas.chambers[key])
    rows = []
    for i in range(table.rank):
        nkey = atlas.edges.get((key, i))
        if nkey is None:
            raise BudgetExceeded(f"wall {i} of chamber {fmt_covector(key)} was not crossed", partial=atlas)
        coeffs = _wall_coefficients(frame, i, _frame(table, atlas.chambers[nkey]).index)
        if isinstance(coeffs, CoefficientWitness):
            raise NotCrystallographicAt(key, coeffs)
        rows.append(tuple(-c for c in coeffs))
    return GeneralizedCartanMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Distance, galleries, radical, sphericity


def separating_keys(table: RootSystemTable, a: Chamber, b: Chamber) -> set:
    return {
        key
        for key in table.lines
        if sign_at(key, a.witness) != sign_at(key, b.witness)
    }


def distance_and_gallery(table: RootSystemTable, start: Chamber, goal: Chamber) -> tuple[int, Gallery]:
    """Separating-hyperplane count and a greedy minimal gallery realizing it."""
    table.require_reduced()
    total = len(separating_keys(table, start, goal))
    chambers = [start]
    crossings = []
    cur = start
    remaining = total
    while cur.key != goal.key:
        moved = False
        for i in range(cur.rank):
            if sign_at(cur.basis[i], goal.witness) < 0 and wall_is_crossable(table, cur, i):
                nxt = adjacent_chamber(table, cur, i)
                now = len(separating_keys(table, nxt, goal))
                if now != remaining - 1:
                    raise Unreachable(
                        f"crossing wall {i} changed separation {remaining} -> {now}"
                    )
                cur = nxt
                remaining = now
                chambers.append(cur)
                crossings.append(i)
                moved = True
                break
        if not moved:
            raise Unreachable(f"no crossable separating wall at {fmt_covector(cur.key)}")
    return total, Gallery(tuple(chambers), tuple(crossings))


def radical(table: RootSystemTable) -> tuple:
    """Basis of the intersection of all hyperplanes (the whole space if empty)."""
    if not table.roots:
        return tuple(
            tuple(ONE if j == i else ZERO for j in range(table.rank))
            for i in range(table.rank)
        )
    return tuple(nullspace(list(table.roots)))


def is_nondegenerate(table: RootSystemTable) -> bool:
    return len(radical(table)) == 0


class KSphericalWitness(Record):
    chamber_key: tuple
    face_indices: tuple

    def __str__(self) -> str:
        key = fmt_covector(self.chamber_key)
        return f"codim-{len(self.face_indices)} face {self.face_indices} of chamber {key} misses the cone"


def check_k_spherical(table: RootSystemTable, k: int, budget: int = 10_000) -> CheckReport:
    """Does every codimension-k face of a chamber meet the open cone?"""
    if isinstance(table.cone, Truncated):
        raise Unsupported("k-sphericity is undefined for truncated tables (no cone)")
    if not 0 <= k <= table.rank:
        raise ValueError(f"k must be between 0 and {table.rank}")
    if isinstance(table.cone, Spherical):
        return CheckReport("k-spherical", True, (), 0, 0, 0, False)
    atlas = _survey(table, budget)
    witnesses = []
    for key in atlas.order:
        if key not in atlas.true_chambers:
            continue
        inside = _rays_in_cone(table.cone.gamma, atlas.chambers[key])
        for face in itertools.combinations(range(table.rank), k):
            if not any(v for j, v in enumerate(inside) if j not in face):
                witnesses.append(KSphericalWitness(key, face))
    return CheckReport(
        "k-spherical",
        not witnesses,
        tuple(witnesses),
        len(atlas.order),
        len(atlas.certified),
        0,
        False,
    )


# ---------------------------------------------------------------------------
# Combinatorial equivalence (verification of a supplied g only)


class EquivalenceReport(Record):
    equivalent: bool
    reason: str | None

    @property
    def status(self) -> str:
        return "pass" if self.equivalent else "fail"


def verify_combinatorial_equivalence(
    table_a: RootSystemTable, table_b: RootSystemTable, g: Sequence[Sequence]
) -> EquivalenceReport:
    """Check that the linear map g sends table_a's data onto table_b's exactly."""
    g_inv = dual_basis(tuple(vec(row) for row in g))  # the columns of g^-1
    image = {tuple(vdot(alpha, col) for col in g_inv) for alpha in table_a.roots}
    if image != set(table_b.roots):
        return EquivalenceReport(False, "g does not map the root set onto the target root set")
    ca, cb = table_a.cone, table_b.cone
    if isinstance(ca, Spherical) != isinstance(cb, Spherical):
        return EquivalenceReport(False, "cone types differ")
    if isinstance(ca, Affine):
        if not isinstance(cb, Affine):
            return EquivalenceReport(False, "cone types differ")
        gamma_image = tuple(vdot(ca.gamma, col) for col in g_inv)
        if primitive_ray(gamma_image) != primitive_ray(cb.gamma):
            return EquivalenceReport(False, "g does not map the cone onto the target cone")
    return EquivalenceReport(True, None)
