"""Independent oracles used by the tests.

Everything here is deliberately written against plain fractions.Fraction with
its own elimination / enumeration code, so results cross-check the library
through a different computational path.  The exceptions are former
statements of library rules kept as differential references:
`reference_wall_coefficients` (the wall-crossing rule),
`reference_extreme_basis` with `reference_kernel_line` (the seed rule),
`reference_lonely_roots` (the additive rule), `reference_walls_across`
(the wall scan) and `reference_primitive_ray` (the primitive-ray rule, when
it still returned Fractions).  `reference_record` builds the dataclass that a
record class stands in for.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction as F


def _F(c) -> F:
    """A fresh Fraction read from the string form of c, so the oracle takes no
    arithmetic object from the library."""
    return F(str(c))


def gauss_solve(basis, target):
    """Solve sum(l_i * basis_i) = target by plain fraction elimination."""
    r = len(target)
    rows = [[_F(basis[j][k]) for j in range(len(basis))] + [_F(target[k])] for k in range(r)]
    n_cols = len(basis)
    piv = 0
    pivots = []
    for col in range(n_cols):
        pivot_row = next((i for i in range(piv, r) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[piv], rows[pivot_row] = rows[pivot_row], rows[piv]
        pv = rows[piv][col]
        rows[piv] = [a / pv for a in rows[piv]]
        for i in range(r):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        pivots.append(col)
        piv += 1
    if pivots != list(range(n_cols)):
        return None
    for i in range(piv, r):
        if rows[i][n_cols] != 0:
            return None
    return tuple(rows[i][n_cols] for i in range(n_cols))


def fm_feasible_strict(rows) -> bool:
    """Feasibility of the homogeneous strict system {x : row . x > 0 for all rows}.

    Fourier-Motzkin elimination; all constraints strict, so combining a positive
    and a negative coefficient row stays strict.
    """
    system = [tuple(_F(c) for c in row) for row in rows]
    n = len(system[0]) if system else 0
    for var in range(n - 1, 0, -1):
        pos, neg, zero = [], [], []
        for row in system:
            if row[var] > 0:
                pos.append(row)
            elif row[var] < 0:
                neg.append(row)
            else:
                zero.append(row)
        new_system = list({r[:var] for r in zero})
        for p in pos:
            for q in neg:
                combo = tuple(p[k] * (-q[var]) + q[k] * p[var] for k in range(var))
                new_system.append(combo)
        # Deduplicate up to positive scaling to keep the system small.
        seen = set()
        deduped = []
        for row in new_system:
            nz = next((c for c in row if c != 0), None)
            if nz is None:
                continue  # 0 > 0 after combination: infeasible row only if strict...
            scale = abs(nz)
            key = tuple(c / scale for c in row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        # A derived all-zero row means the strict combination 0 > 0: infeasible.
        if any(all(c == 0 for c in row) for row in new_system):
            return False
        system = deduped
        if not system:
            return True
    signs = {1 if row[0] > 0 else -1 if row[0] < 0 else 0 for row in system}
    if 0 in signs:
        return False  # 0 > 0
    return signs in ({1}, {-1})


def realizable_sign_vectors(roots) -> set:
    """All sign vectors (over one representative per +- pair) realized by points.

    Brute force: every candidate in {+1,-1}^lines is tested by exact
    Fourier-Motzkin feasibility.  Exponential, for small tables only.
    """
    reps = []
    seen = set()
    for root in roots:
        key = _line_key(root)
        if key not in seen:
            seen.add(key)
            reps.append(key)
    out = set()
    for signs in itertools.product((1, -1), repeat=len(reps)):
        rows = [tuple(s * c for c in rep) for s, rep in zip(signs, reps)]
        if fm_feasible_strict(rows):
            out.add(tuple(zip(reps, signs)))
    return out


def _line_key(root):
    root = tuple(_F(c) for c in root)
    nz = next(c for c in root if c != 0)
    if nz < 0:
        root = tuple(-c for c in root)
    from math import gcd

    denom = 1
    for c in root:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in root]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(F(v // g) for v in ints)


def brute_real_roots_standard(gcm_rows, depth: int) -> set:
    """Real roots at the base of a standard graph by brute-force word products.

    Enumerates every index word of length <= depth, multiplies the (constant)
    reflection matrices, and collects all images of the standard basis.
    """
    rank = len(gcm_rows)

    def refl_matrix(i):
        return tuple(
            tuple((1 if k == j else 0) - (gcm_rows[i][j] if k == i else 0) for j in range(rank))
            for k in range(rank)
        )

    mats = [refl_matrix(i) for i in range(rank)]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(rank)) for j in range(rank))
            for i in range(rank)
        )

    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    roots = set()

    def collect(m):
        for j in range(rank):
            roots.add(tuple(m[k][j] for k in range(rank)))

    frontier = {ident}
    collect(ident)
    for _ in range(depth):
        new_frontier = set()
        for m in frontier:
            for i in range(rank):
                nm = mul(mats[i], m)
                new_frontier.add(nm)
                collect(nm)
        frontier = new_frontier
    return roots


def irredundant_constraints(positives, witness) -> set:
    """Facet-defining members of a strict constraint set, by drop-one feasibility.

    A constraint a is a facet iff the system {a(x) = 0 (as two opposite weak
    rows via perturbation), others > 0} is feasible; implemented by asking
    whether dropping the constraint changes feasibility of its reversal.
    """
    out = set()
    reps = [tuple(_F(c) for c in p) for p in positives]
    for k, cand in enumerate(reps):
        others = [r for t, r in enumerate(reps) if t != k]
        # cand is redundant iff others > 0 forces cand > 0, i.e. the system
        # {others > 0, -cand > 0 or cand = 0 boundary} ... facet test: the
        # system {others > 0} together with {-cand > 0} is feasible exactly
        # when cand's hyperplane cuts the relaxed cone, i.e. cand is a facet.
        rows = others + [tuple(-c for c in cand)]
        if fm_feasible_strict(rows):
            out.add(_line_key(cand))
    return out


def _rank(vectors) -> int:
    """Rank of some Fraction vectors by plain row elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def zaslavsky_chamber_count(lines) -> int:
    """Number of chambers of the central arrangement of the hyperplanes with
    the given normals, by Zaslavsky's theorem: the sum of |mu(V, X)| over the
    flats X of the intersection lattice.

    A flat is stored as the set of hyperplanes containing it, built rank by
    rank as the closure of a flat one rank lower and one more hyperplane; mu
    is the lattice's Moebius function from the whole space V.
    """
    normals = [tuple(_F(c) for c in line) for line in lines]

    def closure(flat) -> frozenset:
        vectors = [normals[i] for i in flat]
        r = _rank(vectors)
        return frozenset(j for j in range(len(normals)) if _rank(vectors + [normals[j]]) == r)

    layers = [{frozenset()}]
    while True:
        above = set()
        for flat in layers[-1]:
            # Each flat covering `flat` is the closure of any one of its
            # hyperplanes outside `flat`, so one closure per cover suffices.
            covered = set(flat)
            for j in range(len(normals)):
                if j not in covered:
                    cover = closure(flat | {j})
                    above.add(cover)
                    covered |= cover
        if not above:
            break
        layers.append(above)
    mu = {}
    for layer in layers:
        for flat in layer:
            mu[flat] = -sum(m for lower, m in mu.items() if lower < flat) if flat else 1
    return sum(abs(m) for m in mu.values())


def reference_wall_coefficients(table, chamber, neighbor, i):
    """The wall-crossing rule as the library stated it before it was written
    once: c_j with neighbor.basis[j] = c_j * a_i + a_j for j != i and -2 at
    i, or the fields (i, j, root, c, d) of the first relation
    beta_j = c * a_i + d * a_j that is not crystallographic.

    It reads the library's integer frames of both chambers, and it also
    rejects a new wall off the plane of a_i and a_j and a negative c, two
    branches the library dropped as unreachable.
    """
    from weylgpd.arrangement import _frame

    frame = _frame(table, chamber)
    det = frame.det
    out = []
    for j, k in enumerate(_frame(table, neighbor).index):
        if j == i:
            out.append(-2)
            continue
        row = frame.num[k]
        c, d = row[i], row[j]
        off_support = any(v for t, v in enumerate(row) if t != i and t != j)
        if off_support or d != det or c % det or c < 0:
            return i, j, table.roots[k], F(c, det), F(d, det)
        out.append(c // det)
    return tuple(out)


def reference_kernel_line(rows):
    """Primitive generator of the kernel of r-1 integer rows in Z^r, or None
    when the kernel is not a line; the library's former seed helper, kept
    with `reference_extreme_basis` as a differential reference.

    One elimination: the kernel is a line exactly when one column has no
    pivot.  Its generator is d on that column and -row[free] on each pivot
    column, oriented with its last nonzero entry positive.
    """
    from math import gcd

    from weylgpd.exactlin import int_row_reduce

    reduced, d, pivots = int_row_reduce(list(rows))
    r = len(rows) + 1
    if len(pivots) != r - 1:
        return None
    free = next(c for c in range(r) if c not in pivots)
    gen = [0] * r
    gen[free] = d
    for row, p in zip(reduced, pivots):
        gen[p] = -row[free]
    g = gcd(*gen)
    if next(v for v in reversed(gen) if v) < 0:
        g = -g
    return tuple(v // g for v in gen)


def reference_extreme_basis(table, positives):
    """The seed rule as the library stated it before double description:
    the extreme rays are the oriented kernel lines of the (rank-1)-subsets of
    the positive lines, one elimination per subset.  `positives` holds
    (line key, root index) pairs; returns root indices or raises the
    library's NotSimplicial with the same texts."""
    from weylgpd.errors import NotSimplicial
    from weylgpd.exactlin import int_det

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rank = table.rank
    if len(positives) < rank:
        raise NotSimplicial(f"only {len(positives)} lines in rank {rank}")
    if rank == 1:
        if len(positives) != 1:
            raise NotSimplicial("rank-1 tables have a single hyperplane line")
        return (positives[0][1],)
    keys = [key for key, _ in positives]
    reps = [table.int_roots[k] for _, k in positives]
    rays = []
    seen = set()
    for subset in itertools.combinations(keys, rank - 1):
        gen = reference_kernel_line(subset)
        if gen is None:
            continue
        values = [dot(rep, gen) for rep in reps]
        if all(v >= 0 for v in values):
            ray = gen
        elif all(v <= 0 for v in values):
            ray = tuple(-c for c in gen)
        else:
            continue
        if ray not in seen:
            seen.add(ray)
            rays.append(ray)
    if len(rays) != rank or int_det(rays) == 0:
        raise NotSimplicial(f"chamber has {len(rays)} extreme rays, expected {rank}")
    basis = []
    for m in range(rank):
        others = rays[:m] + rays[m + 1:]
        wall = next(
            (k for key, (_, k) in zip(keys, positives) if all(dot(key, d) == 0 for d in others)),
            None,
        )
        if wall is None:
            raise NotSimplicial("a facet of the chamber lies on no table hyperplane")
        if dot(table.int_roots[wall], rays[m]) <= 0:
            raise NotSimplicial("wall orientation inconsistent with chamber rays")
        basis.append(wall)
    basis.sort(key=table.primitive.__getitem__)
    return tuple(basis)


def reference_lonely_roots(table, chamber):
    """The positions of the roots positive at the chamber's witness point
    that are neither basis elements nor sums of two positive roots, by the
    library's former additive rule: the set of all pairwise sums of positive
    roots, built for the chamber."""
    point = [_F(c) for c in chamber.witness]
    positives = [k for k, root in enumerate(table.int_roots) if sum(a * x for a, x in zip(root, point)) > 0]
    ints = [table.int_roots[k] for k in positives]
    sums = {tuple(a + b for a, b in zip(u, v)) for u, v in itertools.combinations_with_replacement(ints, 2)}
    basis = {table.index[b] for b in chamber.basis}
    return [k for k in positives if k not in basis and table.int_roots[k] not in sums]


def reference_walls_across(table, frame, i):
    """The wall scan as the library stated it before it started each plane
    at the basis element itself: the root positions of the neighbor's basis
    across wall i, scanning every root's row of the frame's numerators for
    the roots in the plane of a_i and a_j, or the library's NotSimplicial
    when a plane holds none."""
    from weylgpd.errors import NotSimplicial

    r = len(frame.index)
    best = {}
    for k, row in enumerate(frame.num):
        if row.count(0) - (row[i] == 0) != r - 2:
            continue
        j = next(t for t, v in enumerate(row) if v and t != i)
        c, d = row[i], row[j]
        if d <= 0:
            continue
        got = best.get(j)
        if got is None or c * got[1] > got[0] * d:
            best[j] = (c, d, k)
    missing = [j for j in range(r) if j != i and j not in best]
    if missing:
        raise NotSimplicial(f"no wall found in the plane of indices {i},{missing[0]}")
    return tuple(table.negation[frame.index[i]] if j == i else best[j][2] for j in range(r))


def reference_primitive_ray(alpha):
    """The primitive-ray rule as the library stated it before it returned
    ints: the positive multiple of alpha with coprime integer coordinates,
    as Fractions."""
    values = [_F(c) for c in alpha]
    if all(c == 0 for c in values):
        raise ValueError("the zero covector has no primitive ray")
    m = math.lcm(*(c.denominator for c in values))
    ints = [int(c * m) for c in values]
    g = math.gcd(*ints)
    return tuple(F(v // g) for v in ints)


def reference_record(cls):
    """The dataclass twin of a record class, by `dataclasses.make_dataclass`:
    the same name, the fields and defaults read from the class body, and the
    record's frozen and eq flags (assignable records are not frozen; a record
    with identity equality has eq=False)."""
    body = vars(cls)
    spec = [
        (name, object, body[name]) if name in body else (name, object)
        for name in body.get("__annotations__", {})
    ]
    frozen = cls.__setattr__ is not object.__setattr__
    eq = cls.__eq__ is not object.__eq__
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=frozen, eq=eq)
