"""Exact rational linear algebra over Q^r.

Covectors (elements of the dual space) and vectors are both plain tuples of
rationals; which one a tuple means is determined by how it is used.  All
operations are pure and exact, so every downstream predicate is decidable.

There is one elimination, on integers: `int_row_reduce`, Bareiss's
fraction-free Gauss-Jordan.  `int_det` reads its determinant, `int_adjugate`
is it applied to [M | I], and every rational solver (`rank`,
`solve_coordinates`, `dual_basis`, `nullspace`) clears each row's
denominators, calls it (directly or through `int_adjugate`), and reads its
Fraction answers off the integer result.  Primitive rays are int tuples,
built by one rule, `int_primitive`.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

from ._rational import ONE, ZERO, Rat, fmt_covector, rat
from .errors import InvalidTable, SingularBasis, ZeroCovector

Covector = tuple  # length-r tuple of Rat
Vector = tuple  # length-r tuple of Rat
IntVec = tuple  # length-n tuple of int
Matrix = tuple  # tuple of row tuples of Rat


def vec(entries: Iterable) -> tuple:
    """Build a rational tuple from ints, strings, or rationals."""
    return tuple(rat(e) for e in entries)


def _cleared(rank: int | None, x, what: str) -> tuple:
    """The one door of a point or covector x from outside, named `what`: (x, xs, m),
    x read by `vec`, of length `rank` (any if None), and xs = m * x on integers."""
    try:
        v = vec(x)
    except (TypeError, ValueError):
        raise InvalidTable(f"{what} {x!r} is not a vector of rationals") from None
    if rank is not None and len(v) != rank:
        raise InvalidTable(f"{what} {fmt_covector(v)} does not have rank {rank}")
    xs, m = clear_denominators(v)
    return v, xs, m


def vneg(u: tuple) -> tuple:
    return tuple(-a for a in u)


def vdot(alpha: tuple, x: tuple):
    """Evaluate the covector alpha at the vector x (or any exact dot product)."""
    total = ZERO
    for a, b in zip(alpha, x, strict=True):
        total += a * b
    return total


def combination(coeffs: Sequence, vectors: Sequence[tuple]) -> tuple:
    """The vector sum_i coeffs[i] * vectors[i], exactly."""
    return tuple(sum(map(mul, coeffs, column), ZERO) for column in zip(*vectors))


def is_zero(u: tuple) -> bool:
    return all(a == 0 for a in u)


def sign_at(alpha: Covector, x: Vector) -> int:
    """Sign of alpha(x): +1, 0, or -1, exactly; x must have alpha's rank."""
    alpha = _cleared(None, alpha, "covector")[0]
    value = vdot(alpha, _cleared(len(alpha), x, "point")[0])
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def int_row_reduce(rows: list[Sequence[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Bareiss's integer-preserving elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968): every
    division is exact, so all entries stay plain ints.  A column with no pivot
    is skipped.  Returns (rows, d, pivot columns): the first len(pivots) rows
    hold d * the reduced row echelon form, the rest are zero, and d is the
    determinant when the matrix is square and invertible.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    sign = 1
    k = 0
    for col in range(n_cols):
        p = next((t for t in range(k, n_rows) if rows[t][col]), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pv = pivot_row[col]
        for t in range(n_rows):
            if t != k:
                f = rows[t][col]
                rows[t] = [(pv * a - f * b) // prev for a, b in zip(rows[t], pivot_row)]
        prev = pv
        pivots.append(col)
        k += 1
        if k == n_rows:
            break
    if sign < 0:
        rows[:] = [[-a for a in row] for row in rows]
    return rows, sign * prev, pivots


def int_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[Matrix | None, int]:
    """Adjugate and determinant of a square integer matrix, fraction-free.

    int_row_reduce of [M | I]: the left block ends as det * I and the right
    block as the adjugate.  Returns (adj, det) with M . adj = det * I, and
    (None, 0) when M is singular.
    """
    n = len(matrix)
    rows, det, pivots = int_row_reduce(
        [[int(a) for a in row] + [int(j == i) for j in range(n)] for i, row in enumerate(matrix)]
    )
    if pivots != list(range(n)):
        return None, 0
    return tuple(tuple(row[n:]) for row in rows), det


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: int_row_reduce's d when
    every column has a pivot, else 0."""
    _, d, pivots = int_row_reduce(list(matrix))
    return d if len(pivots) == len(matrix) else 0


def denominator_lcm(values: Iterable) -> int:
    """Least common multiple of the denominators of some rationals (1 for none)."""
    out = 1
    for a in values:
        out = out * a.denominator // gcd(out, a.denominator)
    return out


def clear_denominators(x: Iterable) -> tuple[IntVec, int]:
    """(m * x, m) for m the least common denominator of the rationals x: the
    least positive multiple of x with integer coordinates, as plain ints."""
    x = tuple(x)
    m = denominator_lcm(x)
    return tuple(c.numerator * (m // c.denominator) for c in x), m


def rank(vectors: Sequence[tuple]) -> int:
    if not vectors:
        return 0
    return len(int_row_reduce([clear_denominators(v)[0] for v in vectors])[2])


def solve_coordinates(basis: Sequence[Covector], target: Covector) -> tuple:
    """Coefficients lam with target = sum(lam_i * basis_i), exact.

    Raises SingularBasis when the claimed basis is dependent.
    """
    target = _cleared(None, target, "covector")[0]
    r = len(target)
    if len(basis) != r:
        raise SingularBasis(f"need {r} basis covectors, got {len(basis)}")
    # target(C_j) = lam_j for the dual basis C.
    return tuple(vdot(target, c) for c in dual_basis(basis))


def dual_basis(basis: Sequence[Covector]) -> list[Vector]:
    """Vectors C with basis_i(C_j) = delta_ij; raises SingularBasis if dependent."""
    # Rows scaled by their denominators m_i: B^-1 = (M B)^-1 M, column j scaled by m_j.
    cleared = [_cleared(len(basis), b, "covector")[1:] for b in basis]
    adj, det = int_adjugate([row for row, _ in cleared])
    if adj is None:
        raise SingularBasis("matrix is singular")
    return [tuple(Rat(row[j] * m, det) for row in adj) for j, (_, m) in enumerate(cleared)]


def nullspace(rows: Sequence[tuple]) -> list[tuple]:
    """Basis of {x : row . x = 0 for every row}."""
    return nullspace_and_pivots(rows)[0]


def nullspace_and_pivots(rows: Sequence[tuple]) -> tuple[list[tuple], list[int]]:
    """The nullspace basis, and the pivot columns of the same elimination: the
    coordinates on those columns complement the nullspace."""
    if not rows:
        raise ValueError("nullspace needs the ambient dimension; pass at least one row")
    n = len(rows[0])
    reduced, den, pivots = int_row_reduce([clear_denominators(r)[0] for r in rows])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * n
        x[f] = ONE
        for i, p in enumerate(pivots):
            x[p] = Rat(-reduced[i][f], den)
        basis.append(tuple(x))
    return basis, pivots


def primitive_normalize(alpha: Covector) -> IntVec:
    """Hyperplane key: the positive multiple with coprime integer coordinates and
    first nonzero coordinate positive.  Identifies alpha up to sign and scale."""
    return line_key(primitive_ray(alpha))


def line_key(alpha: tuple) -> tuple:
    """The one of +-alpha, a nonzero tuple, whose first nonzero coordinate is
    positive: the orientation of line keys."""
    return alpha if next(c for c in alpha if c) > 0 else vneg(alpha)


def primitive_ray(alpha: Covector) -> IntVec:
    """Orientation-preserving primitive form: the positive multiple of alpha with
    coprime integer coordinates, as ints.  An int covector (a chamber basis
    of the graph side) goes straight to `int_primitive`."""
    if all(type(c) is int for c in alpha):
        return int_primitive(alpha)
    return int_primitive(clear_denominators(alpha)[0])


def int_primitive(ints: IntVec) -> IntVec:
    """The primitive integer ray of a nonzero integer covector: its entries
    divided by their gcd."""
    g = gcd(*ints)
    if g == 0:
        raise ZeroCovector("cannot normalize the zero covector")
    return tuple(v // g for v in ints)


def integer_kernel_basis(alpha: Sequence[int]) -> list[tuple]:
    """Unimodular basis of {x in Z^n : alpha . x = 0} for a primitive integer
    alpha, as int tuples.

    Built by column operations bringing alpha to (g, 0, ..., 0); deterministic.
    """
    n = len(alpha)
    a = [int(x) for x in alpha]
    # Columns of u span Z^n; we keep alpha . col invariantly tracked in g.
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col(j):
        return [u[i][j] for i in range(n)]

    def set_col(j, c):
        for i in range(n):
            u[i][j] = c[i]

    g = a[0]
    for k in range(1, n):
        ak = a[k]
        if ak == 0:
            continue
        if g == 0:
            # Swap roles: move column k into position 0.
            c0, ck = col(0), col(k)
            set_col(0, ck)
            set_col(k, [-x for x in c0])
            g = ak
            continue
        gg, s, t = _xgcd(g, ak)
        c0, ck = col(0), col(k)
        new0 = [s * x + t * y for x, y in zip(c0, ck)]
        newk = [(-ak // gg) * x + (g // gg) * y for x, y in zip(c0, ck)]
        set_col(0, new0)
        set_col(k, newk)
        g = gg
    if g == 0:
        raise ZeroCovector("kernel basis of the zero covector is the whole lattice")
    return [tuple(u[i][j] for i in range(n)) for j in range(1, n)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
