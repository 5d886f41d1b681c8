"""Independent oracles used by the tests.

Everything here is deliberately written against plain fractions.Fraction with
its own elimination / enumeration code, so results cross-check the library
through a different computational path.  The exceptions are former
statements of library rules kept as differential references:
`reference_wall_coefficients` (the wall-crossing rule),
`reference_extreme_basis` with `reference_kernel_line` (the seed rule),
`reference_lonely_roots` (the additive rule), `reference_walls_across`
(the wall scan), `reference_wall_step` (the crossing kernel before objects:
root strings, else the wall scan), `reference_primitive_ray` (the
primitive-ray rule, when it still returned Fractions), `reference_table`
(the table constructor, when it read every root as Fractions first),
`reference_affine_functional` (the affine functional of a realization by
one elimination over every ray), `reference_explicit_check` (the (C1)/(C2)
check of an explicit Cartan graph, object by object),
`reference_extraction` (Cartan-graph extraction from an atlas, filtering
and scanning every edge), `reference_keyed_extraction` with
`reference_explicit_graph` (extraction on chamber keys through the explicit
graph constructor, read from `keyed_atlas`, the atlas by key) and
`reflection_matrix` with `int_mat_mul` (the simple reflection as a full
matrix, and matrix products), `solve_in_span` (the span solver of
`exactlin`, by its fraction-free elimination) and `reference_restrict`,
`reference_double_restriction`, `reference_reduce` and `reference_localize`
(restriction, reduction and localization read in Fractions, line keys by
`primitive_normalize` of every root).
`reference_record` builds the dataclass that a record class stands in for.
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


def reflection_matrix(C, i: int) -> tuple:
    """Matrix of sigma_i with columns the images of the standard basis, for
    a GeneralizedCartanMatrix C: alpha_j |-> alpha_j - c_ij alpha_i."""
    n = C.rank
    return tuple(
        tuple((1 if k == j else 0) - (C.rows[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )


def solve_in_span(spanning, target):
    """Coefficients expressing target over a (not necessarily square)
    independent family, or None when target lies outside the span: the
    library's fraction-free elimination of [spanning | target], denominators
    cleared row by row."""
    from weylgpd.exactlin import clear_denominators, int_row_reduce

    m = len(spanning)
    if m == 0:
        return () if all(c == 0 for c in target) else None
    # Row k of [spanning | target] is coordinate k of the system, denominators cleared.
    aug = [clear_denominators([s[k] for s in spanning] + [target[k]])[0] for k in range(len(target))]
    reduced, den, pivots = int_row_reduce(aug)
    if pivots and pivots[-1] == m:
        return None  # inconsistent
    coeffs = [F(0)] * m
    for i, p in enumerate(pivots):
        coeffs[p] = F(reduced[i][m], den)
    return tuple(coeffs)


def reference_restrict(table, alpha0):
    """`subarr.restrict` by Fraction dot products: each root's image on the
    lattice basis of ker(alpha0), for every root whose `primitive_normalize`
    is not alpha0's, reduced by `reference_reduce`."""
    from weylgpd._rational import fmt_covector
    from weylgpd.arrangement import Affine, RootSystemTable, Spherical, Truncated
    from weylgpd.errors import RootNotInSystem, Unsupported
    from weylgpd.exactlin import integer_kernel_basis, primitive_normalize, vdot, vec
    from weylgpd.subarr import Restriction

    alpha0 = vec(alpha0)
    if not table.contains(alpha0):
        raise RootNotInSystem(f"{fmt_covector(alpha0)} is not in the table")
    key = primitive_normalize(alpha0)
    lattice = tuple(tuple(F(c) for c in b) for b in integer_kernel_basis(key))
    intrinsic_gamma = None
    if isinstance(table.cone, Affine):
        intrinsic_gamma = tuple(vdot(table.cone.gamma, b) for b in lattice)
        if all(c == 0 for c in intrinsic_gamma):
            raise Unsupported("the cone functional vanishes on the hyperplane")
    images = (tuple(vdot(root, b) for b in lattice) for root in table.roots if primitive_normalize(root) != key)
    gamma_line = primitive_normalize(intrinsic_gamma) if intrinsic_gamma is not None else None
    kept, dropped = [], []
    for image in dict.fromkeys(images):
        (dropped if primitive_normalize(image) == gamma_line else kept).append(image)
    if isinstance(table.cone, Spherical):
        cone = Spherical()
    elif isinstance(table.cone, Affine):
        cone = Affine(intrinsic_gamma)
    else:
        cone = Truncated(table.cone.depth)
    sub = RootSystemTable(len(lattice), kept, cone=cone)
    return Restriction(table, alpha0, lattice, sub, reference_reduce(sub), tuple(sorted(dropped)))


def reference_double_restriction(table, root_a, root_b):
    """`subarr.double_restriction` on `reference_restrict`, the lattice maps
    composed in Fractions."""
    from weylgpd._rational import fmt_covector
    from weylgpd.errors import RootNotInSystem
    from weylgpd.exactlin import combination, vec
    from weylgpd.subarr import Restriction

    first = reference_restrict(table, root_a)
    image_b = first.intrinsic_of(root_b)
    if not first.table.contains(image_b):
        raise RootNotInSystem(f"{fmt_covector(vec(root_b))} does not survive the first restriction")
    second = reference_restrict(first.table, image_b)
    composed = tuple(combination(inner, first.lattice_basis) for inner in second.lattice_basis)
    return Restriction(table, vec(root_a), composed, second.table, second.reduced_table, second.dropped)


def reference_reduce(table):
    """`subarr.reduce` by Fraction multiples: each element of a line over
    the line key, at the key's first nonzero coordinate; NotReducible on the
    first line, by key, with a multiple that is no integral multiple of the
    least positive one."""
    from weylgpd.arrangement import RootSystemTable
    from weylgpd.errors import NotReducible

    kept = []
    for key, elems in sorted(table.lines.items()):
        j = next(j for j, b in enumerate(key) if b != 0)
        lambdas = [F(e[j]) / key[j] for e in elems]
        lam_min = min(lam for lam in lambdas if lam > 0)
        if any((lam / lam_min).denominator != 1 for lam in lambdas):
            raise NotReducible(key, elems)
        kept += [tuple(lam_min * k for k in key), tuple(-lam_min * k for k in key)]
    return RootSystemTable(table.rank, kept, cone=table.cone, seed_hint=table.seed_hint)


def reference_localize(table, x):
    """`subarr.localize` by Fraction dot products: the roots vanishing at x
    and `nullspace_and_pivots` of their Fraction rows."""
    from weylgpd.arrangement import RootSystemTable, Spherical
    from weylgpd.exactlin import nullspace_and_pivots, vdot, vec
    from weylgpd.subarr import Localization

    x = vec(x)
    roots = tuple(r for r in table.roots if vdot(r, x) == 0)
    if not roots:
        return Localization(x, (), (), 0, (), None)
    support, pivots = nullspace_and_pivots(roots)
    intrinsic = RootSystemTable(len(pivots), [tuple(r[c] for c in pivots) for r in roots], cone=Spherical())
    return Localization(x, roots, tuple(support), len(pivots), tuple(pivots), intrinsic)


def int_mat_mul(a, b):
    """The product of integer matrices given by rows."""
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)) for i in range(n))


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
    from weylgpd.arrangement import _held

    frame = _held(table, chamber).frame
    det = frame.det
    out = []
    for j, k in enumerate(_held(table, neighbor).frame.index):
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
    basis = {table.int_index[tuple(c * table.scale for c in b)] for b in chamber.basis}
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


def reference_wall_step(table, frame, i):
    """The crossing of wall i of a verified frame as the library stated it
    before it crossed by objects: (key, index, across) for the neighbor's
    chamber key, root positions and checked frame.

    On an integral frame wall j is guessed as the last root of the
    a_i-string a_j, a_j + a_i, ... in the table, with its step count as the
    coefficient, and the guess is accepted when the carried column passes
    the sign check.  Otherwise the wall scan names the neighbor, whose frame
    is carried when the crossing is crystallographic, else eliminated, and
    then checked.  It reads the library's frames, key rule and checks."""
    from weylgpd.arrangement import (
        CoefficientWitness,
        _carried_column,
        _carry_frame,
        _column_is_coherent,
        _frame_at,
        _key_at,
        _verify_chamber_basis,
        _wall_coefficients,
        _walls_across,
    )

    if frame.integral:
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
                beta = tuple(a + b for a, b in zip(beta, alpha))
                if beta not in position:
                    break
                k, m = position[beta], m + 1
            index.append(k)
            coeffs.append(m)
        index, coeffs = tuple(index), tuple(coeffs)
        column = _carried_column(frame.num_cols, i, coeffs)
        if _column_is_coherent(frame.num_cols, i, column):
            return _key_at(table, index), index, _carry_frame(frame, i, coeffs, index)
    index = _walls_across(table, frame, i)
    coeffs = _wall_coefficients(frame, i, index)
    if isinstance(coeffs, CoefficientWitness):
        across = _frame_at(table, index)
    else:
        across = _carry_frame(frame, i, coeffs, index)
    _verify_chamber_basis(across)
    return _key_at(table, index), index, across


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


def reference_table(rank, roots, reduced=None) -> dict:
    """The table constructor as the library stated it before it built the
    integer data first: every root read by `vec`, the Fraction roots sorted
    and indexed, and the integer data derived from them.  Returns the
    derived fields by name, or raises what the constructor raised, with
    the same text."""
    from weylgpd._rational import fmt_covector
    from weylgpd.errors import InvalidTable
    from weylgpd.exactlin import denominator_lcm, int_primitive, is_zero, line_key, vec, vneg

    rank = int(rank)
    roots = tuple(sorted({vec(r) for r in roots}))
    for r in roots:
        if len(r) != rank:
            raise InvalidTable(f"root {fmt_covector(r)} does not have rank {rank}")
        if is_zero(r):
            raise InvalidTable("0 is not a root")
    index = {r: k for k, r in enumerate(roots)}
    for r in roots:
        if vneg(r) not in index:
            raise InvalidTable(f"table is not negation-closed: missing {fmt_covector(vneg(r))}")
    negation = tuple(index[vneg(r)] for r in roots)
    scale = denominator_lcm(c for r in roots for c in r)
    int_roots = tuple(tuple(c.numerator * (scale // c.denominator) for c in r) for r in roots)
    primitive = tuple(int_primitive(r) for r in int_roots)
    lines = {}
    for r, p in zip(roots, primitive):
        lines.setdefault(line_key(p), []).append(r)
    lines = {k: tuple(v) for k, v in lines.items()}
    derived_reduced = all(len(v) == 2 for v in lines.values())
    if reduced is not None and bool(reduced) != derived_reduced:
        raise InvalidTable(
            f"reduced={reduced} claimed but table is {'reduced' if derived_reduced else 'not reduced'}"
        )
    return {
        "roots": roots,
        "int_roots": int_roots,
        "int_index": {r: k for k, r in enumerate(int_roots)},
        "negation": negation,
        "primitive": primitive,
        "lines": lines,
        "line_positions": {k: tuple(index[r] for r in v) for k, v in lines.items()},
        "scale": scale,
        "reduced": derived_reduced,
    }


def reference_affine_functional(rank, rays):
    """The affine functional of a realization as the library derived it
    before it solved on one chamber: one elimination for h over every
    distinct primitive ray of the chambers `rays` (a ray tuple each), None
    when that system has no solution or there are at most `rank` rays."""
    from weylgpd.exactlin import primitive_ray

    points = {primitive_ray(ray) for chamber in rays for ray in chamber}
    if len(points) <= rank:
        return None
    rows = sorted(points)
    return solve_in_span(tuple(zip(*rows)), (F(1),) * len(rows))


def reference_explicit_check(matrices, edges) -> None:
    """The (C1) rho_i^2 = id and (C2) row-i agreement check of
    `CartanGraph.explicit` as the library made it on every graph: object by
    object in `matrices` order and wall by wall, raising on the first
    violation."""
    from weylgpd.cartan import GcmViolation, fmt_object
    from weylgpd.errors import InvalidCartanMatrix, NotSimplyConnected

    rank = next(iter(matrices.values())).rank
    for a, Ca in matrices.items():
        for i in range(rank):
            b = edges.get((a, i))
            if b is None:
                continue
            back = edges.get((b, i))
            if back != a:
                raise NotSimplyConnected(f"(C1) fails: rho_{i}^2({fmt_object(a)}) = {fmt_object(back)}")
            if Ca.rows[i] != matrices[b].rows[i]:
                raise InvalidCartanMatrix(
                    [GcmViolation("C2", (i, 0), f"row {i} differs across edge {fmt_object(a)} -- {fmt_object(b)}")]
                )


def keyed_atlas(atlas):
    """The survey's atlas by chamber key, as the library kept it before it
    numbered its chambers: `seed_key`, `order`, `chambers` (key -> Chamber),
    `edges` ((key, i) -> key, in the order of the ids), `objects` (key ->
    R^a, for the chambers that have one), `transitions`, and the true,
    certified and checked sets of keys."""
    from types import SimpleNamespace

    order = atlas.order
    rank = len(atlas.edges) // len(order)
    return SimpleNamespace(
        seed_key=order[0],
        order=order,
        chambers=dict(zip(order, atlas.chambers)),
        edges={(order[p // rank], p % rank): order[b] for p, b in enumerate(atlas.edges) if b >= 0},
        objects={key: obj for key, obj in zip(order, atlas.objects) if obj is not None},
        transitions=atlas.transitions,
        true_chambers={order[n] for n in atlas.true_chambers},
        certified={order[n] for n in atlas.certified},
        checked={order[n] for n in atlas.checked},
        budget_exceeded=atlas.budget_exceeded,
    )


def reference_keyed_crossing(atlas, key, i) -> tuple:
    """`_crossing_coefficients` on a keyed atlas (`keyed_atlas`)."""
    from weylgpd._rational import fmt_covector
    from weylgpd.arrangement import CoefficientWitness, _wall_coefficients
    from weylgpd.errors import BudgetExceeded, NotCrystallographicAt

    nkey = atlas.edges.get((key, i))
    if nkey is None:
        raise BudgetExceeded(f"wall {i} of chamber {fmt_covector(key)} was not crossed", partial=atlas)
    step = atlas.transitions.get((atlas.objects.get(key), i))
    if step is not None:
        return step[0]
    coeffs = _wall_coefficients(atlas.chambers[key].frame, i, atlas.chambers[nkey]._index)
    if isinstance(coeffs, CoefficientWitness):
        raise NotCrystallographicAt(key, coeffs)
    return coeffs


def reference_keyed_matrix(table, atlas, key):
    """`_matrix_from_atlas` on a keyed atlas."""
    from weylgpd.cartan import GeneralizedCartanMatrix

    return GeneralizedCartanMatrix.from_rows(
        [-c for c in reference_keyed_crossing(atlas, key, i)] for i in range(table.rank)
    )


def reference_explicit_graph(matrices, edges, base, truncated=False):
    """`CartanGraph.explicit` as extraction called it on chamber keys: the
    (C1)/(C2) check in one pass when every edge joins objects, else object
    by object to name the first failure, and the graph of the two dicts."""
    from weylgpd.cartan import CartanGraph, GcmViolation, fmt_object
    from weylgpd.errors import InvalidCartanMatrix, NotSimplyConnected

    rank = matrices[base].rank
    edge_map = dict(edges)
    get, labels = matrices.get, range(rank)
    if not all(
        None is not (Ca := get(a)) and None is not (Cb := get(b)) and i in labels and edge_map.get((b, i)) == a
        and (Ca is Cb or Ca.rows[i] == Cb.rows[i])
        for (a, i), b in edge_map.items()
    ):
        for a, Ca in matrices.items():
            for i in range(rank):
                b = edge_map.get((a, i))
                if b is None:
                    continue
                back = edge_map.get((b, i))
                if back != a:
                    raise NotSimplyConnected(f"(C1) fails: rho_{i}^2({fmt_object(a)}) = {fmt_object(back)}")
                if Ca.rows[i] != matrices[b].rows[i]:
                    violation = f"row {i} differs across edge {fmt_object(a)} -- {fmt_object(b)}"
                    raise InvalidCartanMatrix([GcmViolation("C2", (i, 0), violation)])

    def rho(i, obj):
        return edge_map.get((obj, i))

    return CartanGraph(rank, base, matrices.__getitem__, rho, objects=tuple(matrices), truncated=truncated)


def reference_keyed_extraction(table, atlas) -> tuple:
    """Extraction as the library made it on chamber keys, read from the
    keyed view of an atlas: (graph, root sets, chambers), each matrix read
    once per object, the edges filtered when some chamber is not checked,
    and the graph built by `reference_explicit_graph`.  It raises as the
    library's extraction does."""
    from weylgpd.arrangement import IntegralityWitness, _root_defects, _root_set
    from weylgpd.errors import BudgetExceeded, NotCrystallographicAt

    atlas = keyed_atlas(atlas)
    checked, chambers, edges = atlas.checked, atlas.chambers, atlas.edges
    if len(checked) < len(atlas.order):
        chambers = {key: chambers[key] for key in atlas.order if key in checked}
        edges = {(a, i): b for (a, i), b in edges.items() if a in checked and b in checked}
    matrices, root_sets, by_object = {}, {}, {}
    for key, chamber in chambers.items():
        root_set = atlas.objects.get(key)
        if root_set is not None:
            if root_set not in by_object:
                by_object[root_set] = reference_keyed_matrix(table, atlas, key)
            matrices[key], root_sets[key] = by_object[root_set], root_set
            continue
        matrices[key] = reference_keyed_matrix(table, atlas, key)
        frame = chamber.frame
        defect = None if frame.integral else next(_root_defects(frame), None)
        if defect is not None:
            k, kind = defect
            raise NotCrystallographicAt(
                key, IntegralityWitness(key, chamber.basis, table.roots[k], frame.coords(k), kind)
            )
        root_sets[key] = _root_set(frame)
    truncated = len(edges) != table.rank * len(matrices)
    if not matrices:
        raise BudgetExceeded("no certified chamber to extract", partial=atlas)
    base = atlas.seed_key if atlas.seed_key in matrices else next(iter(matrices))
    return reference_explicit_graph(matrices, edges, base, truncated=truncated), root_sets, chambers


def reference_extraction(table, atlas) -> tuple:
    """Cartan-graph extraction from a surveyed atlas as the library made it
    before it reused the atlas's chambers and edges: (chambers, matrices,
    edges, truncated, root sets), from the checked chambers in BFS order,
    each matrix read from the keyed view of the atlas, a filter of every
    atlas edge, a scan of every (object, wall) for a missing edge, and
    `reference_explicit_check`.  It raises as the library's extraction does."""
    from weylgpd.arrangement import IntegralityWitness, _root_defects, _root_set
    from weylgpd.errors import BudgetExceeded, NotCrystallographicAt

    atlas = keyed_atlas(atlas)
    checked = atlas.checked
    chambers, matrices, root_sets = {}, {}, {}
    for key in atlas.order:
        if key not in checked:
            continue
        chamber = chambers[key] = atlas.chambers[key]
        matrices[key] = reference_keyed_matrix(table, atlas, key)
        root_set = atlas.objects.get(key)
        if root_set is None:
            frame = chamber.frame
            defect = None if frame.integral else next(_root_defects(frame), None)
            if defect is not None:
                k, kind = defect
                raise NotCrystallographicAt(
                    key, IntegralityWitness(key, chamber.basis, table.roots[k], frame.coords(k), kind)
                )
            root_set = _root_set(frame)
        root_sets[key] = root_set
    edges = {(a, i): b for (a, i), b in atlas.edges.items() if a in checked and b in checked}
    truncated = any((key, i) not in edges for key in matrices for i in range(table.rank))
    if not matrices:
        raise BudgetExceeded("no certified chamber to extract", partial=atlas)
    reference_explicit_check(matrices, edges)
    return chambers, matrices, edges, truncated, root_sets


def reference_record(cls):
    """The dataclass twin of a record class, by `dataclasses.make_dataclass`:
    the same name, the fields and defaults read from the class body, frozen
    as every record is, and the record's eq flag (a record with identity
    equality has eq=False)."""
    body = vars(cls)
    spec = [
        (name, object, body[name]) if name in body else (name, object)
        for name in body.get("__annotations__", {})
    ]
    eq = cls.__eq__ is not object.__eq__
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, eq=eq)
