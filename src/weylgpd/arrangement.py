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
L*root.  A table is derived once, from its sorted distinct integer roots,
and its Fraction roots from them; the kernel finds a root's position by its
integers, never by a Fraction.  A chamber's integer data is its integer
basis B with an adjugate A and determinant D > 0 (B . A = D * I); root k's
chamber coordinates are the numerators int_root_k . A[:, j] over D.  Sign,
integrality and wall-crossing predicates compare those numerators;
Fractions are built only for values that leave the kernel.

A seed chamber's walls come from its extreme rays, found by double
description with the lines each lies on: wall m is the one line on all
rays but ray m.  A chamber whose roots all have integer coordinates in its
basis B is an object a of the Weyl groupoid, and the set R^a of those
coordinate vectors decides what a survey asks of it.  Crossing wall i is
the change of object: B' = T . B for the simple reflection T of `cartan`,
m_j the length of the e_i-string through e_j in R^a; the neighbor is a
chamber exactly when T(R^a) is sign-coherent, and its frame is
A' = A . T.  `chamber_bfs` crosses by these transitions,
found once per (object, wall); affine cones, frames that are not integral
and refused transitions take the wall step: a wall scan names the
neighbor's basis, and `_wall_coefficients`, the one statement of the
crystallographic rule, gives T when every coefficient is an integer; the
step carries the neighbor's frame by T, else eliminates it.  Either way
the neighbor is built by `_chamber`, the one constructor of the chambers
the library builds (a realization's objects too).  One found by a
transition builds its frame when it is read (`Chamber.frame`): carried
with one column update from its parent's frame when that is built, else by
Bareiss elimination.  A seed holds its frame from the start.  The kernel
trusts the chambers it builds; `_held` holds any chamber on a table and
checks one the kernel did not build for it.  Chamber keys and line keys
are tuples of primitive integer rays.  A point or covector from outside
is checked and cleared once, at one door (`exactlin._cleared`), and the
kernel decides on its integers and on the table's `int_gamma`.  A chamber's
Fraction data, its rays and witness point, is built when it is first read;
`chamber_bfs` builds none, as the affine cone test reads the sign of gamma
at the columns of A.
A check that could only pass on a spherical table counts its chambers from
the objects instead (`_chamber_count`): #objects x |Aut(a)|.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence

from ._rational import ONE, ZERO, Rat, fmt_covector
from ._record import Record
from .cartan import CartanGraph, GeneralizedCartanMatrix, canonical_basis_key
from .cartan import _carried_column, _check_edge, _combine, _reflected_rows, _wall_index, standard_dual_basis
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
    _cleared,
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

    A table is derived once, by `_of_ints`, from its sorted distinct integer
    roots `int_roots` (L*root, in root order) over their `scale` L: the
    root -> position map `int_index`, the positions `negation` of the negated
    roots, the primitive rays `primitive` (int tuples), as are line keys, each
    line's root positions `line_positions`, and each root's Fractions.  The
    kernel finds a root's position by its integers, `int_index` at L*root.
    The constructor reads its roots once (a root given twice is one root) and
    clears them; the checks and their texts (rank, zero root, negation, a
    `reduced` claim, and bool or float entries, refused by `vec`) read as on
    the Fraction roots.  `int_gamma` is the least integer multiple of an
    affine cone's gamma, which every cone test reads (None off affine tables).
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
        # A tuple of ints and Fractions is taken as it is, any other root is
        # read by `vec`; the set merges a root given twice.
        given = {r if type(r) is tuple and all(type(c) in (int, Rat) for c in r) else vec(r) for r in roots}
        scale = denominator_lcm(c for r in given for c in r)
        ints = [tuple(c.numerator * (scale // c.denominator) for c in r) for r in given]
        vars(self).update(vars(self._of_ints(rank, ints, scale, cone, seed_hint, certified_keys, reduced)))

    @classmethod
    def _of_ints(cls, rank: int, ints: Sequence[tuple], scale: int, cone: ConeSpec = Spherical(),
                 seed_hint: Vector | None = None, certified_keys=None, reduced=None) -> RootSystemTable:
        """The table of the distinct integer roots `ints` over a positive
        `scale`: the one place a table is derived.  The common divisor of the
        scale and every entry is divided out, so the scale is the least one."""
        table = object.__new__(cls)
        table.rank = rank = int(rank)
        g = gcd(scale, *itertools.chain.from_iterable(ints))
        table.scale = scale = scale // g
        table.int_roots = ints = tuple(sorted(ints if g == 1 else (tuple(c // g for c in r) for r in ints)))
        fraction = {c: Rat(c, scale) for c in set(itertools.chain.from_iterable(ints))}  # one per coordinate value
        table.roots = roots = tuple(tuple(map(fraction.__getitem__, r)) for r in ints)
        for r in roots:
            if len(r) != rank:
                raise InvalidTable(f"root {fmt_covector(r)} does not have rank {rank}")
            if not any(r):
                raise InvalidTable("0 is not a root")
        table.int_index = position = {r: k for k, r in enumerate(ints)}
        table.negation = tuple(position.get(tuple(-c for c in r)) for r in ints)
        if None in table.negation:
            missing = vneg(roots[table.negation.index(None)])
            raise InvalidTable(f"table is not negation-closed: missing {fmt_covector(missing)}")
        table.primitive = tuple(map(int_primitive, ints))
        lines: dict[Covector, list] = {}
        for k, p in enumerate(table.primitive):
            lines.setdefault(line_key(p), []).append(k)
        table.line_positions = {key: tuple(ks) for key, ks in lines.items()}
        table.lines = {key: tuple(map(roots.__getitem__, ks)) for key, ks in lines.items()}
        table.reduced = all(len(ks) == 2 for ks in lines.values())
        if reduced is not None and bool(reduced) != table.reduced:
            raise InvalidTable(
                f"reduced={reduced} claimed but table is {'reduced' if table.reduced else 'not reduced'}"
            )
        if isinstance(cone, Affine):
            gamma = vec(cone.gamma)
            if len(gamma) != rank or is_zero(gamma):
                raise InvalidTable("affine cone needs a nonzero rank-length gamma")
            cone = Affine(gamma)
        table.cone = cone
        table.int_gamma = clear_denominators(cone.gamma)[0] if isinstance(cone, Affine) else None
        table.seed_hint = vec(seed_hint) if seed_hint is not None else None
        # For truncated tables produced by a realization: the chamber keys known
        # to be interior (in-memory metadata, not part of the wire format).
        table.certified_keys = certified_keys
        return table

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
        return tuple(c * self.scale for c in _cleared(self.rank, root, "covector")[0]) in self.int_index

    def positive_on(self, x: Vector) -> list:
        """One representative per line, the element positive at x (reduced tables)."""
        return [(key, self.roots[k]) for key, k in _positive_lines(self, _cleared(self.rank, x, "point"))]

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

    `Chamber(basis, rays, witness)` holds the values given and no frame.  A
    chamber the kernel finds (`_chamber`) holds its table and root
    positions, and builds its frame, rays and witness when they are first read.
    """

    def __init__(self, basis: tuple, rays: tuple, witness: Vector):
        self.__dict__.update(basis=basis, rays=rays, witness=witness, frame=None)

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
        _, i, parent = self._crossing
        return _witness_across(parent, i)

    @cached_property
    def frame(self) -> IntegerFrame:
        """The one place a found chamber's frame is built: carried across the
        crossing that found it when its parent's frame is built, else
        eliminated."""
        coeffs, i, parent = self._crossing
        frame = vars(parent).get("frame")
        return _frame_at(self._table, self._index) if frame is None else _carry_frame(frame, i, coeffs, self._index)

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
    full check, the wall scan, a witness).  `integral` says whether D
    divides every entry of num, that is, whether every root has integer
    coordinates in the basis; num / D is then the object's root set R^a.
    `_frame_at` builds a frame by elimination, `_carry_frame` across a wall.
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
    return tuple(sorted(map(table.primitive.__getitem__, index)))


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


def _carry_frame(frame: IntegerFrame, i: int, coeffs: Sequence[int], index: tuple, column=None) -> IntegerFrame:
    """The frame at `index`, whose integer basis is T . B for the simple
    reflection T of `cartan` with m = coeffs (coeffs[i] is unused).

    As T^2 = I and det T = -1, the neighbor's A' = A . T with the same D: only
    column i of A and of num changes (`_carried_column`, or `column` for num).
    num' = num . T is integral exactly when num is, so the flag carries over.
    """
    cols, num_cols = frame.cols, frame.num_cols
    return IntegerFrame(
        frame.table,
        index,
        cols[:i] + (_carried_column(cols, i, coeffs),) + cols[i + 1:],
        frame.det,
        num_cols[:i] + (column or _carried_column(num_cols, i, coeffs),) + num_cols[i + 1:],
        frame.integral,
    )


def _frame_rays(frame: IntegerFrame) -> tuple:
    """The chamber's rays, scale * A[:, j] / D: the basis dual to its roots."""
    scale, det = frame.table.scale, frame.det
    return tuple(tuple(Rat(scale * a, det) for a in col) for col in frame.cols)


def _held(table: RootSystemTable, chamber: Chamber) -> Chamber:
    """The chamber as the kernel holds it in `table`: itself when `_chamber`
    built it for `table`, else rebuilt from its basis and checked, the one
    check of a chamber from outside: its basis must be independent roots of
    the table (InvalidTable, SingularBasis), every root sign-coherent on it
    (NotSimplicial), and a witness it holds strictly inside it
    (InvalidTable); it keeps that witness, or the crossing that builds one,
    and a chamber with neither gets the interior point of its rays."""
    if vars(chamber).get("_table") is table:
        return chamber
    if len(chamber.basis) != table.rank:
        raise InvalidTable(f"chamber basis of length {len(chamber.basis)} for a table of rank {table.rank}")
    index = tuple(table.int_index.get(tuple(c * table.scale for c in b)) for b in chamber.basis)
    if None in index:
        raise InvalidTable(f"basis element {fmt_covector(chamber.basis[index.index(None)])} is not a root of the table")
    frame = _frame_at(table, index)
    _verify_chamber_basis(frame)
    witness, crossing = vars(chamber).get("witness"), vars(chamber).get("_crossing")
    if witness is not None:
        xs, _ = clear_denominators(witness)
        if len(xs) != table.rank or any(_dot(table.int_roots[k], xs) <= 0 for k in index):
            key = fmt_covector(_key_at(table, index))
            raise InvalidTable(f"witness {fmt_covector(witness)} is not inside the claimed chamber {key}")
    elif crossing is None:
        witness = interior_point(_frame_rays(frame))
    return _chamber(table, index, frame, witness, crossing)


def _chamber(table: RootSystemTable, index: tuple, frame=None, witness=None, crossing=None) -> Chamber:
    """The chamber on the table's roots at positions `index`: the one
    constructor of the chambers the kernel finds.  It holds `frame` and
    `witness` when they are given; else `Chamber.frame` builds the frame,
    and `_witness_across` the witness, on first read, across `crossing`,
    (coeffs, wall, parent) of the crossing that found it.  Its rays are
    built from its frame on first read."""
    chamber = object.__new__(Chamber)
    basis = tuple(map(table.roots.__getitem__, index))
    chamber.__dict__.update(basis=basis, _table=table, _index=index, _crossing=crossing)
    if frame is not None:
        chamber.__dict__["frame"] = frame
    if witness is not None:
        chamber.__dict__["witness"] = witness
    return chamber


def _root_set(frame: IntegerFrame) -> frozenset:
    """R^a: every root's coordinates in an integral frame's basis."""
    return frozenset(zip(*(map(frame.det.__rfloordiv__, col) for col in frame.num_cols)))


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
    """Coordinates of a covector in the chamber's basis, exactly; the
    chamber is held (`_held`) first."""
    frame = _held(table, chamber).frame
    _, ints, m = _cleared(table.rank, root, "covector")
    den = m * frame.det
    return tuple(Rat(table.scale * _dot(ints, col), den) for col in frame.cols)


def chamber_from_point(table: RootSystemTable, x) -> Chamber:
    """The chamber containing x; x must be generic and inside the cone."""
    table.require_reduced()
    return _chamber_at(table, _cleared(table.rank, x, "point"))


def _chamber_at(table: RootSystemTable, point: tuple) -> Chamber:
    """`chamber_from_point` on a reduced table at a cleared point (x, xs, m)."""
    x, xs, _ = point
    if table.int_gamma is not None and _dot(table.int_gamma, xs) <= 0:
        raise OutsideCone(f"gamma({fmt_covector(x)}) <= 0")
    positives = _positive_lines(table, point)  # raises OnHyperplane when not generic
    index = _extreme_basis(table, positives)
    return _chamber(table, index, _frame_at(table, index), x)


def walls_and_root_basis(table: RootSystemTable, x) -> tuple:
    """The indexed root basis (irredundant positive constraints) at a generic x."""
    table.require_reduced()
    return tuple(table.roots[k] for k in _extreme_basis(table, _positive_lines(table, _cleared(table.rank, x, "point"))))


def _positive_lines(table: RootSystemTable, point: tuple) -> list:
    """(line key, index of the line's root positive at x) per line, by key."""
    x, xs, _ = point
    out = []
    for key, (k, *_) in sorted(table.line_positions.items()):
        s = _dot(table.int_roots[k], xs)
        if s == 0:
            raise OnHyperplane(table.roots[k], x)
        out.append((key, k if s > 0 else table.negation[k]))
    return out


def _cone_rays(reps: Sequence[tuple], rank: int) -> tuple:
    """The extreme rays (primitive int tuples) of the cone {reps >= 0} and
    their zero sets, the lines (positions) each lies on, by double
    description (Fukuda and Prodon, "Double description method revisited",
    1996): one elimination of [reps^T | I] gives the dual rays of the first
    `rank` independent lines, and each further line keeps the rays on its
    nonnegative side and joins each adjacent pair on opposite sides, a
    positive combination on exactly the lines both lie on and the new one.
    Two rays are adjacent when they share >= rank-2 zero lines and no third
    ray vanishes on all of those.  Lines that do not span leave the kernel
    line, if the kernel is one, and no ray otherwise."""
    n = len(reps)
    reduced, d, pivots = int_row_reduce(
        [[rep[t] for rep in reps] + [int(j == t) for j in range(rank)] for t in range(rank)]
    )
    if pivots[-1] >= n:
        kernel = [row[n:] for row, p in zip(reduced, pivots) if p >= n]
        return ([int_primitive(kernel[0])], [frozenset(range(n))]) if len(kernel) == 1 else ([], [])
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
    return rays, zeros


def _extreme_basis(table: RootSystemTable, positives: Sequence[tuple]) -> tuple:
    """Facet-defining representatives among positive constraints of a simplicial cone.

    `positives` holds (line key, root index) pairs, one per line.  The cone
    they cut out must have exactly `rank` independent extreme rays
    (`_cone_rays`); wall m is then the one line in the zero sets of all the
    others, which span its facet, and ray m is positive on it.  In rank 1
    every root is a multiple of every other, so the one line is the wall.
    Returns root indices."""
    rank = table.rank
    if len(positives) < rank:
        raise NotSimplicial(f"only {len(positives)} lines in rank {rank}")
    if rank == 1:
        return (positives[0][1],)
    rays, zeros = _cone_rays([table.int_roots[k] for _, k in positives], rank)
    if len(rays) != rank or int_det(rays) == 0:
        raise NotSimplicial(f"chamber has {len(rays)} extreme rays, expected {rank}")
    basis = []
    for m in range(rank):
        (line,) = frozenset.intersection(*zeros[:m], *zeros[m + 1:])
        basis.append(positives[line][1])
    basis.sort(key=table.primitive.__getitem__)
    return tuple(basis)


def _rays_in_cone(table: RootSystemTable, chamber: Chamber) -> list:
    """For each ray of a held chamber, whether it lies inside the open cone
    gamma > 0: the sign of the integer gamma at the frame's adjugate columns,
    which are positive multiples of the rays."""
    return [_dot(table.int_gamma, col) > 0 for col in chamber.frame.cols]


def wall_is_crossable(table: RootSystemTable, chamber: Chamber, i: int) -> bool:
    """Whether the facet on wall i (one of 0..r-1) meets the open cone."""
    held = _held(table, chamber)
    _wall_index(table.rank, i)
    if not isinstance(table.cone, Affine):
        return True
    inside = _rays_in_cone(table, held)
    return any(inside[:i] + inside[i + 1:])


def adjacent_chamber(table: RootSystemTable, chamber: Chamber, i: int) -> Chamber:
    """The chamber across wall i, with compatible indexing, by the wall step."""
    return _adjacent(table, chamber, i)[0]


def _adjacent(table: RootSystemTable, chamber: Chamber, i: int) -> tuple:
    """`adjacent_chamber` with the coefficients of its crossing: (neighbor,
    the wall step's `_wall_coefficients` or CoefficientWitness), which
    checks the neighbor against the held chamber."""
    parent = _held(table, chamber)
    table.require_reduced()
    if not wall_is_crossable(table, parent, i):
        raise WallOnBoundary(f"wall {i} of chamber {fmt_covector(parent.key)} does not meet the cone")
    index, across, coeffs = _wall_step(table, parent.frame, i)
    return _chamber(table, index, across, crossing=(None, i, parent)), coeffs


def _transition(root_set: frozenset, i: int) -> tuple | None:
    """The change of object across wall i of the object R^a: (coeffs, T(R^a))
    for the T of `cartan` with m = coeffs, coeffs[j] the number of steps of the
    e_i-string e_j, e_j + e_i, ... in R^a (-2 at i), or None when T(R^a) is not
    sign-coherent.  The chamber on T . B then has the facet on wall i in its
    closure, beyond wall i, and one basis element in each plane of a_i and
    a_j: it is the neighbor, with the compatible indexing."""
    rank = len(next(iter(root_set)))
    coeffs = [-2] * rank
    for j in range(rank):
        if j != i:
            string = [int(t == j) for t in range(rank)]
            while tuple(string) in root_set:
                string[i] += 1
            coeffs[j] = string[i] - 1
    cols = tuple(zip(*root_set))
    column = _carried_column(cols, i, coeffs)
    if not _column_is_coherent(cols, i, column):
        return None
    return tuple(coeffs), frozenset(zip(*cols[:i], column, *cols[i + 1:]))


def _object_step(table: RootSystemTable, index: tuple, i: int, coeffs: tuple, memo: dict) -> tuple:
    """The root positions of the neighbor across wall i of the chamber on
    root positions `index`, by an accepted transition: wall i is -a_i and
    wall j is a_j + coeffs[j] * a_i, looked up in the table's integer root
    index, or in `memo` by (position of a_j, position of a_i, coeffs[j])."""
    ints = table.int_roots
    walls = list(index)
    walls[i] = table.negation[index[i]]
    for j, m in enumerate(coeffs):
        if m > 0:
            step = index[j], index[i], m
            k = memo.get(step)
            if k is None:
                k = memo[step] = table.int_index[tuple([b + m * a for a, b in zip(ints[index[i]], ints[index[j]])])]
            walls[j] = k
    return tuple(walls)


def _wall_step(table: RootSystemTable, frame: IntegerFrame, i: int, known=()) -> tuple:
    """The crossing of wall i of a verified frame: (index, across, coeffs),
    the neighbor's root positions, its frame and the crossing's
    `_wall_coefficients` (or CoefficientWitness), or (index, None, None) when
    `index` is in `known`.  The wall scan (`_walls_across`) names the
    neighbor.  A crystallographic crossing has its new column of num
    checked, so a refused crossing builds no frame, and carries the frame
    with that column; any other is eliminated and checked in full."""
    index = _walls_across(table, frame, i)
    if index in known:
        return index, None, None
    coeffs = _wall_coefficients(frame, i, index)
    if isinstance(coeffs, CoefficientWitness):
        across = _frame_at(table, index)
        _verify_chamber_basis(across)
        return index, across, coeffs
    cols = frame.num_cols
    column = _carried_column(cols, i, coeffs)
    if not _column_is_coherent(cols, i, column):
        _check_rows(table, index, zip(*cols[:i], column, *cols[i + 1:]), frame.det)
    return index, _carry_frame(frame, i, coeffs, index, column), coeffs


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


def _half_step(values: Iterable[tuple]) -> tuple:
    """The push rule: the step p / q along d from z, half the least |g(z)| / |g(d)|
    over the integer pairs (g(z), g(d)) vanishing at neither, or (1, 1) if none
    is left.  z + (p / q) d is on no hyperplane of a guard not zero at both."""
    eps = None
    for gz, gd in values:
        p, q = abs(gz), abs(gd)
        if p and q and (eps is None or p * eps[1] < eps[0] * q):
            eps = (p, q)
    return (eps[0], 2 * eps[1]) if eps is not None else (1, 1)


def _witness_across(chamber: Chamber, i: int) -> Vector:
    """An interior point of the neighbor across wall i of `chamber`, found
    exactly from the chamber's frame: the `_half_step` push from the facet
    point (the sum of the rays other than ray i) along minus ray i, whose
    values at root k are the row sum of num without entry i, and entry i.
    In rank 1 it is the chamber's own witness point negated.
    """
    frame = chamber.frame
    if len(frame.index) == 1:
        return vneg(chamber.witness)
    sp, sq = _half_step((sum(row) - row[i], row[i]) for row in frame.num)
    ray_i = frame.cols[i]
    others = [col for j, col in enumerate(frame.cols) if j != i]
    den = sq * frame.det
    scale = frame.table.scale
    return tuple(
        Rat(scale * (sq * sum(col[m] for col in others) - sp * ray_i[m]), den)
        for m in range(len(ray_i))
    )


def _verify_chamber_basis(frame: IntegerFrame) -> None:
    """Every root must have sign-coherent coordinates in the frame's basis.

    Together with the basis elements being table roots this pins the claimed
    simplicial cone to an actual chamber of the table's arrangement.  No
    root's coordinates all vanish: its row of num is int_root . A with A
    invertible, and the table has no zero root.
    """
    _check_rows(frame.table, frame.index, frame.num, frame.det)


def _check_rows(table: RootSystemTable, index: tuple, rows: Iterable[tuple], det: int) -> None:
    """NotSimplicial for the first root whose row of num is not coherent."""
    for k, row in enumerate(rows):
        if min(row) < 0 < max(row):
            raise NotSimplicial(
                f"root {fmt_covector(table.roots[k])} separates the claimed chamber "
                f"{fmt_covector(_key_at(table, index))}: coords {fmt_covector(tuple(Rat(n, det) for n in row))}"
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
    """The generalized Cartan matrix read off from all wall crossings at a chamber,
    each coefficient row from the wall step that finds the neighbor.

    Raises NotCrystallographicAt with the offending relation when a transition
    coefficient is non-integral or the j-slot coefficient is not 1.
    """
    held = _held(table, chamber)
    table.require_reduced()
    neighbors, coeff_rows = [], []
    for i in range(held.rank):
        neighbor, coeffs = _adjacent(table, held, i)
        if isinstance(coeffs, CoefficientWitness):
            raise NotCrystallographicAt(held.key, coeffs)
        neighbors.append(neighbor)
        coeff_rows.append(coeffs)
    matrix = GeneralizedCartanMatrix.from_rows(tuple(-c for c in row) for row in coeff_rows)
    return ChamberCartanData(chamber, matrix, tuple(neighbors), tuple(coeff_rows))


# ---------------------------------------------------------------------------
# Chamber BFS with certification


class ChamberAtlas(Record):
    """A survey's chambers by id, n for the n-th found (the seed is 0); its
    lists grow per chamber.  Readers work by id, and reports name chambers
    by key, `order[n]`."""

    order: list  # chamber keys by id
    chambers: list  # Chamber by id
    id_of: dict  # chamber key -> id
    edges: list  # edges[n * rank + i]: the id across wall i of chamber n, or -1 if not crossed
    objects: list  # R^a by id, where expanded or found by an object step, else None
    transitions: dict  # (R^a, i) -> (coeffs, R^a') of `_transition`, or None when refused
    true_chambers: set  # ids that chamber_is_true accepts
    certified: set  # ids of true chambers all of whose neighbors are true
    # The ids analyses read: the certified set, except on a bare truncation,
    # where nothing is certified and every visited chamber is read.
    checked: set
    budget_exceeded: bool


def chamber_is_true(table: RootSystemTable, chamber: Chamber) -> bool | None:
    """Whether the chamber is a chamber of the system the table describes.

    Spherical: always.  A table with `certified_keys` (a realization): exactly
    when the chamber's key is certified.  Affine: when all its rays lie
    strictly inside the cone.  None for a bare truncation, which cannot tell.
    """
    held = _held(table, chamber)
    if isinstance(table.cone, Spherical):
        return True
    if table.certified_keys is not None:
        return held.key in table.certified_keys
    if isinstance(table.cone, Affine):
        return all(_rays_in_cone(table, held))
    return None


def chamber_bfs(table: RootSystemTable, seed: Chamber, budget: int) -> ChamberAtlas:
    """Breadth-first chamber exploration from a seed chamber.

    The seed is held like any chamber (`_held`); the crossing that finds a
    chamber checks it.  A chamber on an integral frame of a table that is
    not affine has an object, its interned root set R^a: the image of the
    transition that found it, else read from its frame when it is expanded.  It
    crosses by object steps (`_object_step`) with the transitions of its
    object, each found once (`_transition`) together with its reverse, as T
    is an involution.  Other crossings, and refused transitions, take the
    wall step (`_wall_step`), which builds the frame.  Every chamber found
    is built by `_chamber`.  A known chamber is found by its root positions,
    the compatible indexing; a new one takes the next id and builds its key
    (`_key_at`), which no chamber may have: `id_of`, key -> id, is the one
    dict of the survey keyed by chamber keys.  Only chambers not rejected
    by `chamber_is_true` (not asked on a spherical table) are expanded:
    inside the cone of an affine table, inside the certified region of a
    realized truncation (its border is visited but not crossed); an affine
    chamber's verdict and walls read one `_rays_in_cone`.  Crossings
    into non-simplicial frontier regions of bare truncations are recorded as
    missing edges.  A realized truncation's certified set is its true set; a
    bare truncation has none.
    """
    seed = _held(table, seed)
    table.require_reduced()
    rank = table.rank
    spherical, affine = isinstance(table.cone, Spherical), isinstance(table.cone, Affine)
    order, chambers, objects = [seed.key], [seed], [None]
    id_of, found = {seed.key: 0}, {seed._index: 0}
    edges = [-1] * rank
    inside = []  # affine: by id, whether each ray of the chamber lies inside the cone

    def is_true(chamber):  # `chamber_is_true`; an affine chamber's ray test is kept for its walls
        if affine:
            inside.append(_rays_in_cone(table, chamber))
        return all(inside[-1]) if affine else chamber_is_true(table, chamber)

    verdict = None if spherical else [is_true(seed)]
    interned, transitions, memo = {}, {}, {}  # memo: of `_object_step`
    budget_exceeded = False
    for n, chamber in enumerate(chambers):  # the queue: `chambers` grows as it is read
        if len(order) > budget:
            budget_exceeded = True
            break
        if not spherical and verdict[n] is False:
            continue
        obj = objects[n]
        if obj is None and not affine and chamber.frame.integral:
            root_set = _root_set(chamber.frame)
            obj = objects[n] = interned.setdefault(root_set, root_set)
        row = n * rank
        for i in range(rank):
            if edges[row + i] >= 0 or (affine and not any(inside[n][:i] + inside[n][i + 1:])):
                continue
            if obj is not None and (obj, i) not in transitions:
                step = _transition(obj, i)
                if step is not None:
                    coeffs, image = step
                    step = coeffs, interned.setdefault(image, image)
                    transitions[(step[1], i)] = coeffs, obj
                transitions[(obj, i)] = step
            step = transitions.get((obj, i))
            if step is not None:
                coeffs, image = step
                index, frame = _object_step(table, chamber._index, i, coeffs, memo), None
            else:
                coeffs = image = None
                try:
                    index, frame, _ = _wall_step(table, chamber.frame, i, found)
                except NotSimplicial:
                    if spherical:
                        raise
                    continue
            m = found.get(index)
            if m is None:
                m = len(order)
                nkey = _key_at(table, index)
                if id_of.setdefault(nkey, m) != m:
                    # Never where every transition is accepted, which `_chamber_count` relies on.
                    raise NotSimplicial(f"chamber {fmt_covector(nkey)} reached with conflicting compatible indexings")
                neighbor = _chamber(table, index, frame, crossing=(coeffs, i, chamber))
                found[index], neighbor.__dict__["key"] = m, nkey
                order.append(nkey)
                chambers.append(neighbor)
                objects.append(image)
                edges += [-1] * rank
                if not spherical:
                    verdict.append(is_true(neighbor))
            edges[row + i] = m
            edges[m * rank + i] = n
    true_chambers = set(range(len(order))) if spherical else {n for n, v in enumerate(verdict) if v}
    if not isinstance(table.cone, Truncated):
        if len(true_chambers) == len(order) and -1 not in edges:
            certified = set(true_chambers)
        else:
            certified = {n for n in true_chambers if true_chambers.issuperset(edges[n * rank:(n + 1) * rank])}
        checked = set(certified)
    elif table.certified_keys is not None:
        certified, checked = set(true_chambers), set(true_chambers)
    else:
        certified, checked = set(), set(range(len(order)))
    return ChamberAtlas(
        order, chambers, id_of, edges, objects, transitions, true_chambers, certified, checked, budget_exceeded
    )


def _chamber_count(table: RootSystemTable, seed: Chamber, budget: int, passes=None) -> int | None:
    """The number of chambers a survey from the held `seed` would find, when
    that survey could only report a pass; else None, and the survey runs.

    The count needs a spherical table, an integral frame at the seed the
    kernel built (`default_seed_chamber`) and every transition accepted.
    Each chamber is then an object, so the arrangement is crystallographic,
    and its chambers correspond to the morphisms of its Weyl groupoid that
    start at the seed's object a.  Each Hom(a, b) is an Aut(a)-torsor, so
    N = #objects x |Aut(a)|.  A BFS by `_transition` finds the objects.
    None as well when an object fails `passes`, or N > budget, when
    `chamber_bfs` would exceed its budget.  The survey's raise on a chamber
    reached with two indexings cannot fire here: around each codimension-2
    face the compatible indexing comes back to itself, and in a simplicial
    arrangement those loops generate every loop of chambers.

    |Aut(a)| is counted down a flag of parabolic subgroupoids, as
    |W| = |W / W_J| x |W_J| for a Weyl group.  Let Aut_J(a) be the loops at a
    that cross only walls in J.  As crossing wall i keeps every ray but ray
    i, they are the chambers of object a that hold the seed's rays outside
    J.  For J = {0..k}, a BFS by the walls in J carries into each object b
    along its spanning tree the matrix P_b of v -> v . T (the T of
    `cartan`) from R^a to R^b, and its inverse Q_b; every other
    transition, from b across wall i to c, gives the generator P_b . T . Q_c
    of Aut_J(a).  A loop P moves the seed's ray k, e_k in the coordinates of
    the seed's rays, to P e_k, ray k of the loop's last chamber.  That
    chamber holds rays k+1..r-1, and it holds ray k too exactly when the
    loop is in Aut_{J - {k}}(a): the stabilizer.  So |Aut_J(a)| is the size
    of the orbit of e_k under the generators times |Aut_{J - {k}}(a)|, and
    |Aut(a)| is the product of the r orbit sizes, k = r-1 down to 0.  Past
    budget // #objects, N > budget."""
    if not isinstance(table.cone, Spherical):
        return None
    if not seed.frame.integral:
        return None
    base = _root_set(seed.frame)
    steps: dict = {}  # (object, i) -> (coeffs, image) of `_transition`, with its reverse
    queue, seen = [base], {base}
    for obj in queue:
        if passes is not None and not passes(obj):
            return None
        for i in range(table.rank):
            if (obj, i) in steps:
                continue
            step = _transition(obj, i)
            if step is None:
                return None
            coeffs, image = step
            steps[(obj, i)], steps[(image, i)] = step, (coeffs, obj)
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if len(queue) > budget:
                    return None
    bound, order = budget // len(queue), 1
    identity = standard_dual_basis(table.rank)
    for k in reversed(range(table.rank)):
        carried = {base: (identity, identity)}  # object b -> (P_b by columns, Q_b by rows)
        tree, taken, generators = [base], set(), set()  # generators by rows
        for obj in tree:
            p, q = carried[obj]
            for i in range(k + 1):
                if (obj, i) in taken:
                    continue
                coeffs, image = steps[(obj, i)]
                taken.add((image, i))
                moved = p[:i] + (_carried_column(p, i, coeffs),) + p[i + 1:]
                known = carried.get(image)
                if known is None:
                    carried[image] = moved, _reflected_rows(q, i, coeffs)
                    tree.append(image)
                    continue
                generator = tuple(_combine(row, known[1]) for row in zip(*moved))
                if generator != identity:
                    generators.add(generator)
        orbit = [identity[k]]
        on_orbit = set(orbit)
        for x in orbit:
            for generator in generators:
                moved = tuple([sum(map(mul, row, x)) for row in generator])
                if moved not in on_orbit:
                    on_orbit.add(moved)
                    orbit.append(moved)
                    if order * len(orbit) > bound:
                        return None
        order *= len(orbit)
    return len(queue) * order


def interior_point(rays: Sequence) -> Vector:
    """The point sum_i (1 + (i+1)/(r+1)) * rays[i] of the open cone on r rays;
    the distinct weights break symmetry."""
    r = len(rays)
    return combination([ONE + Rat(i + 1, r + 1) for i in range(r)], rays)


def _independent_roots(table: RootSystemTable) -> list:
    """The first independent roots in root order, by position: the pivot
    columns of the integer roots, eliminated as columns."""
    return int_row_reduce([list(coordinate) for coordinate in zip(*table.int_roots)])[2]


def default_seed_chamber(table: RootSystemTable) -> Chamber:
    """Deterministic seed: `interior_point` of the dual basis of the first
    independent root subset.

    If that point is non-generic or outside the cone, deterministic fallbacks
    (geometric weights, both signs) are tried.
    """
    if table.seed_hint is not None:
        return chamber_from_point(table, table.seed_hint)
    r = table.rank
    subset = _independent_roots(table)
    if len(subset) < r:
        raise InvalidTable("table does not span; chamber geometry is degenerate")
    duals = dual_basis([table.roots[k] for k in subset])
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
    """A check's verdict and its first witnesses.  `chambers_visited` is the
    number of chambers the survey found, or, for a passing check counted from
    its objects (`_chamber_count`), the number it would find; `certified` and
    `skipped` are the survey's certified and unchecked chambers."""

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


def _survey(table: RootSystemTable, budget: int, seed: Chamber | None = None) -> ChamberAtlas:
    """The chamber atlas an analysis reads: BFS from `seed`, by default the
    default seed chamber, with BudgetExceeded when the budget runs out."""
    atlas = chamber_bfs(table, default_seed_chamber(table) if seed is None else seed, budget)
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
    """The report of `chamber_witnesses(n)` over the ids n of the checked
    chambers in BFS order, keeping the first max_witnesses witnesses; even
    max_witnesses <= 0 keeps the first one, so a failure is never a pass."""
    found = (witness for n in sorted(atlas.checked) for witness in chamber_witnesses(n))
    witnesses = list(itertools.islice(found, max(max_witnesses, 1)))
    skipped = len(atlas.order) - len(atlas.checked)
    return CheckReport(check, not witnesses, tuple(witnesses), len(atlas.order), len(atlas.certified), skipped, False)


def _crystallographic_report(table: RootSystemTable, atlas: ChamberAtlas, max_witnesses: int) -> CheckReport:
    """The crystallographic check on an atlas already surveyed.  The survey
    verified every chamber's signs, so a chamber with an object, or with an
    integral frame, has no defect, and a defect is one of integrality, which
    a root and its negation share.  Each defective line gives one witness,
    by its positive root, where the first of its two roots comes in scan
    order."""

    def witnesses(n):
        if atlas.objects[n] is not None:
            return
        chamber = atlas.chambers[n]
        frame = chamber.frame
        if frame.integral:
            return
        kinds = dict(_root_defects(frame))
        scanned = set()
        for k in _scan_order(frame, list(kinds)):
            scanned.add(k)
            if table.negation[k] in scanned:
                continue
            root, coords = table.roots[k], frame.coords(k)
            if all(c <= 0 for c in coords):
                root, coords = vneg(root), vneg(coords)
            yield IntegralityWitness(atlas.order[n], chamber.basis, root, coords, kinds[k])

    return _report("crystallographic", table, atlas, witnesses, max_witnesses)


def check_crystallographic(table: RootSystemTable, budget: int = 10_000, max_witnesses: int = 64) -> CheckReport:
    """Integral, sign-coherent coordinates of every root at every certified chamber.

    A spherical table that passes has its chambers counted from its objects
    (`_chamber_count`), not surveyed; any other table is surveyed from the
    same seed."""
    seed = default_seed_chamber(table)
    count = _chamber_count(table, seed, budget)
    if count is not None:
        return CheckReport("crystallographic", True, (), count, count, 0, False)
    return _crystallographic_report(table, _survey(table, budget, seed), max_witnesses)


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
    """Every positive root is a basis element or a sum of two positive roots.

    An object is tested once, on R^a; a chamber of an object that fails, or
    without an object, finds its witnesses through its frame.  A spherical
    table whose every object passes has its chambers counted from its
    objects (`_chamber_count`), not surveyed; any other table is surveyed
    from the same seed."""
    seed = default_seed_chamber(table)
    lonely = cache(lambda root_set: _lonely_roots(tuple(root_set), 1))
    count = _chamber_count(table, seed, budget, lambda root_set: not lonely(root_set))
    if count is not None:
        return CheckReport("additive", True, (), count, count, 0, False)
    atlas = _survey(table, budget, seed)

    def witnesses(n):
        obj, chamber = atlas.objects[n], atlas.chambers[n]
        if obj is not None and not lonely(obj):
            return
        frame = chamber.frame
        for k in _scan_order(frame, _lonely_roots(frame.num, frame.det)):
            yield AdditiveWitness(atlas.order[n], chamber.basis, table.roots[k], frame.coords(k))

    return _report("additive", table, atlas, witnesses, max_witnesses)


def _lonely_roots(vectors: Sequence[tuple], unit: int) -> list:
    """The positions of the positive roots that are neither basis elements
    nor sums of two positive roots, from `vectors`, the coordinates of every
    root in a verified chamber basis times `unit` > 0 (basis element j is
    unit * e_j): beta - alpha is a positive root for no positive alpha,
    trying the basis elements first."""
    position = {v: k for k, v in enumerate(vectors)}
    rank = len(vectors[0])
    # A coherent vector has the sign of its sum.
    positive = [sum(v) > 0 for v in vectors]
    basis = [position[tuple(unit * (t == j) for t in range(rank))] for j in range(rank)]
    tries = [*basis, *(k for k, p in enumerate(positive) if p and k not in basis)]

    def is_sum(beta: tuple) -> bool:
        diffs = (position.get(tuple(map(sub, beta, vectors[a]))) for a in tries)
        return any(m is not None and positive[m] for m in diffs)

    return [k for k in tries[rank:] if not is_sum(vectors[k])]


# ---------------------------------------------------------------------------
# Cartan-graph extraction


class ExtractionResult(Record):
    graph: CartanGraph
    root_sets: dict  # chamber key -> frozenset of integer coordinate vectors
    chambers: dict  # chamber key -> Chamber
    atlas: ChamberAtlas


def extract_cartan_graph(table: RootSystemTable, budget: int = 10_000) -> ExtractionResult:
    """Chambers as objects, wall crossings as edges, Cartan matrix per chamber.

    The objects are the atlas's checked chambers: the certified ones (for a
    realized table, the realization's certified region), or every visited
    chamber of a bare truncation; all of the atlas, as it is, when every
    chamber is checked.  R^a decides every crossing of a chamber of object
    R^a, so its matrix is read once per object; a chamber without an object
    reads its frame.
    """
    return _extract(table, _survey(table, budget))


def _extract(table: RootSystemTable, atlas: ChamberAtlas) -> ExtractionResult:
    """`extract_cartan_graph` of a surveyed atlas, by id: (C1) and (C2) are checked
    once on its edges, object by object to name the first failure, and the graph
    reads its matrices and edges through the key -> id dict of its objects."""
    rank, order, chambers, edges = table.rank, atlas.order, atlas.chambers, atlas.edges
    ids = sorted(atlas.checked)
    matrices = [None] * len(order)  # by id, None off the graph
    root_sets, by_object = [], {}
    for n in ids:
        root_set = atlas.objects[n]
        if root_set is not None:
            if root_set not in by_object:
                by_object[root_set] = _matrix_from_atlas(table, atlas, n)
            matrices[n] = by_object[root_set]
            root_sets.append(root_set)
            continue
        matrices[n] = _matrix_from_atlas(table, atlas, n)
        chamber = chambers[n]
        frame = chamber.frame
        # A surveyed chamber's roots are sign-coherent, so the first defect,
        # if any, is one of integrality, which an integral frame has not.
        defect = None if frame.integral else next(_root_defects(frame), None)
        if defect is not None:
            k, kind = defect
            raise NotCrystallographicAt(
                order[n], IntegralityWitness(order[n], chamber.basis, table.roots[k], frame.coords(k), kind)
            )
        root_sets.append(_root_set(frame))
    if not ids:
        raise BudgetExceeded("no certified chamber to extract", partial=atlas)
    kept = 0  # edges between objects
    for a in ids:
        matrix, row = matrices[a], a * rank
        for i in range(rank):
            b = edges[row + i]
            if b < 0 or matrices[b] is None:
                continue
            kept += 1
            back = edges[b * rank + i]
            if back != a or (matrices[b] is not matrix and matrices[b].rows[i] != matrix.rows[i]):
                back = order[back] if back >= 0 and matrices[back] is not None else None
                _check_edge(order[a], i, order[b], back, matrix, matrices[b])
    keys = [order[n] for n in ids]
    position = atlas.id_of if len(ids) == len(order) else dict(zip(keys, ids))

    def rho(i, key):
        n = position.get(key)
        b = -1 if n is None else edges[n * rank + i]
        return None if b < 0 or matrices[b] is None else order[b]

    graph = CartanGraph(
        rank, keys[0], lambda key: matrices[position[key]], rho, objects=tuple(keys), truncated=kept != rank * len(ids)
    )
    return ExtractionResult(graph, dict(zip(keys, root_sets)), dict(zip(keys, map(chambers.__getitem__, ids))), atlas)


def _matrix_from_atlas(table: RootSystemTable, atlas: ChamberAtlas, n: int) -> GeneralizedCartanMatrix:
    """Cartan matrix at chamber n from crossings already discovered by the BFS."""
    return GeneralizedCartanMatrix.from_rows(
        [-c for c in _crossing_coefficients(table, atlas, n, i)] for i in range(table.rank)
    )


def _crossing_coefficients(table: RootSystemTable, atlas: ChamberAtlas, n: int, i: int) -> tuple:
    """The coefficients of the atlas's crossing of wall i at chamber n: its
    object's transition, else `_wall_coefficients` on its frame and the
    neighbor's root positions."""
    m = atlas.edges[n * table.rank + i]
    if m < 0:
        raise BudgetExceeded(f"wall {i} of chamber {fmt_covector(atlas.order[n])} was not crossed", partial=atlas)
    step = atlas.transitions.get((atlas.objects[n], i))
    if step is not None:
        return step[0]
    coeffs = _wall_coefficients(atlas.chambers[n].frame, i, atlas.chambers[m]._index)
    if isinstance(coeffs, CoefficientWitness):
        raise NotCrystallographicAt(atlas.order[n], coeffs)
    return coeffs


# ---------------------------------------------------------------------------
# Distance, galleries, radical, sphericity


def separating_keys(table: RootSystemTable, a: Chamber, b: Chamber) -> set:
    """The line keys of the roots on different sides of the two held chambers:
    a root's side of a held chamber is the sign of its (coherent) row of num."""
    rows = zip(_held(table, a).frame.num, _held(table, b).frame.num)
    return {line_key(p) for p, (u, v) in zip(table.primitive, rows) if (sum(u) > 0) != (sum(v) > 0)}


def distance_and_gallery(table: RootSystemTable, start: Chamber, goal: Chamber) -> tuple[int, Gallery]:
    """Separating-hyperplane count and a greedy minimal gallery realizing it.

    Start and goal are held (`_held`).  Each step crosses a wall negative
    on the goal.  Adjacent chambers are separated only by the line of
    their common wall, so each crossing lowers the count by one:
    the gallery has `total` steps.  A chamber that meets the open cone
    (every one after the start, found across a crossable wall) and is not
    the goal has such a wall that is crossable, where the segment from a
    generic point of it to a goal witness in the cone leaves it.  So
    Unreachable is raised only on an affine table, for a start chamber or
    a goal witness outside the cone.
    """
    start, goal = _held(table, start), _held(table, goal)
    table.require_reduced()
    total = len(separating_keys(table, start, goal))
    side = goal.frame.num
    chambers, crossings, cur = [start], [], start
    while cur.key != goal.key:
        for i, k in enumerate(cur._index):
            if sum(side[k]) < 0 and wall_is_crossable(table, cur, i):
                break
        else:
            raise Unreachable(f"no crossable separating wall at {fmt_covector(cur.key)}")
        cur = adjacent_chamber(table, cur, i)
        chambers.append(cur)
        crossings.append(i)
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
    """Whether the roots span, that is, the radical is zero."""
    return len(_independent_roots(table)) == table.rank


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
        raise InvalidTable(f"k must be between 0 and {table.rank}")
    if isinstance(table.cone, Spherical):
        return CheckReport("k-spherical", True, (), 0, 0, 0, False)
    atlas = _survey(table, budget)
    witnesses = []
    for n in sorted(atlas.true_chambers):
        inside = _rays_in_cone(table, atlas.chambers[n])
        for face in itertools.combinations(range(table.rank), k):
            if not any(v for j, v in enumerate(inside) if j not in face):
                witnesses.append(KSphericalWitness(atlas.order[n], face))
    return CheckReport("k-spherical", not witnesses, tuple(witnesses), len(atlas.order), len(atlas.certified), 0, False)


# ---------------------------------------------------------------------------
# Combinatorial equivalence (verification of a supplied g only)


class EquivalenceReport(Record):
    equivalent: bool
    reason: str | None


def verify_combinatorial_equivalence(
    table_a: RootSystemTable, table_b: RootSystemTable, g: Sequence[Sequence]
) -> EquivalenceReport:
    """Check that the linear map g sends table_a's data onto table_b's exactly."""
    g_inv = dual_basis([_cleared(table_a.rank, row, "row of g")[0] for row in g])  # the columns of g^-1
    image = {tuple(vdot(alpha, col) for col in g_inv) for alpha in table_a.roots}
    if image != set(table_b.roots):
        return EquivalenceReport(False, "g does not map the root set onto the target root set")
    ca, cb = table_a.cone, table_b.cone
    if type(ca) is not type(cb):
        return EquivalenceReport(False, "cone types differ")
    if isinstance(ca, Affine):
        gamma_image = tuple(vdot(ca.gamma, col) for col in g_inv)
        if primitive_ray(gamma_image) != primitive_ray(cb.gamma):
            return EquivalenceReport(False, "g does not map the cone onto the target cone")
    return EquivalenceReport(True, None)
