"""Generalized Cartan matrices, Cartan graphs, and real-root generation.

A Cartan graph is a set of objects with involutions rho_i and one generalized
Cartan matrix per object; its reflections sigma_i act on Z^I by
sigma_i(alpha_j) = alpha_j + m_j * alpha_i, m_j = -c_ij: row j of the integer
involution T that also crosses the walls of `arrangement`, written once here
by its two actions, x . T (`_carried_column`) and T . M (`_reflected_rows`).
Real roots at an object are the images of the standard basis under composed
reflections ending there.  The graph side is integral: bases, real roots,
morphism matrices and the standard graph's object ids (chamber keys) are
int tuples.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ._rational import fmt_covector
from ._record import Record
from .errors import (
    BudgetExceeded,
    InvalidCartanMatrix,
    InvalidTable,
    NonSquare,
    NotSimplyConnected,
)
from .exactlin import _cleared, int_det, primitive_ray

IntVec = tuple  # tuple of ints
ObjectId = Hashable


def fmt_object(obj: ObjectId) -> str:
    """An object id for messages: ids that are chamber keys (the standard
    graph's) print through fmt_covector, any other id through str."""
    return fmt_covector(obj) if isinstance(obj, tuple) else str(obj)


def _wall_index(rank: int, i) -> int:
    """The one check of a wall index from outside: an int (not a bool) in 0..rank-1."""
    if type(i) is not int or not 0 <= i < rank:
        raise InvalidTable(f"wall {i!r} is outside 0..{rank - 1}")
    return i


def _held_object(objects, obj, holder: str) -> ObjectId:
    """The one check of an object id from outside: obj, if `objects` of `holder` holds it."""
    try:
        if obj in objects:
            return obj
    except TypeError:  # an unhashable id is no object
        pass
    raise InvalidTable(f"{fmt_object(obj)} is not an object of the {holder}")


# ---------------------------------------------------------------------------
# Generalized Cartan matrices


class GcmViolation(Record):
    axiom: str  # "M1" or "M2"
    position: tuple[int, int]
    message: str

    def __str__(self) -> str:
        return f"({self.axiom}) at {self.position}: {self.message}"


class ValidationReport(Record):
    violations: tuple[GcmViolation, ...]

    def __init__(self, violations: tuple[GcmViolation, ...]):
        object.__setattr__(self, "violations", violations)

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_gcm(rows: Sequence[Sequence[int]]) -> ValidationReport:
    """Check the diagonal-2, nonpositive-off-diagonal, and symmetric-zero axioms."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NonSquare(f"expected a {n}x{n} matrix")
    bad: list[GcmViolation] = []
    for i in range(n):
        if rows[i][i] != 2:
            bad.append(GcmViolation("M1", (i, i), f"diagonal entry {rows[i][i]} != 2"))
        for j in range(n):
            if i != j and rows[i][j] > 0:
                bad.append(GcmViolation("M1", (i, j), f"off-diagonal entry {rows[i][j]} > 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                bad.append(
                    GcmViolation("M2", (i, j), f"entries {rows[i][j]}/{rows[j][i]} break zero symmetry")
                )
    return ValidationReport(tuple(bad))


def _integer_entry(x) -> int:
    """An integer read from input (a matrix entry, a table rank, a truncation
    depth, an edge label) as an int.  Integer strings are read; a number that
    is not an integer (2.5, infinity, NaN) or a boolean is refused, never
    truncated or read as 1/0."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not an integer")
    try:
        n = int(x)
    except (OverflowError, ValueError):
        n = None
    if n is None or (n != x and not isinstance(x, str)):
        raise ValueError(f"{x!r} is not an integer")
    return n


class GeneralizedCartanMatrix(Record):
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "GeneralizedCartanMatrix":
        """The matrix of `rows`; raises ValueError on an entry that is not an integer."""
        frozen = tuple(tuple(_integer_entry(x) for x in row) for row in rows)
        report = validate_gcm(frozen)
        if not report.valid:
            raise InvalidCartanMatrix(report.violations)
        return cls(frozen)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def restrict(self, indices: Sequence[int]) -> "GeneralizedCartanMatrix":
        indices = [_wall_index(self.rank, i) for i in indices]
        return GeneralizedCartanMatrix(
            tuple(tuple(self.rows[i][j] for j in indices) for i in indices)
        )


def reflect(C: GeneralizedCartanMatrix, i: int, v: IntVec) -> IntVec:
    """sigma_i applied to v in Z^I: alpha_j |-> alpha_j - c_ij alpha_i, extended linearly."""
    v, vs, m = _cleared(C.rank, v, "vector")
    return _reflected(C, _wall_index(C.rank, i), (vs if m == 1 else v,)).pop()


def _reflected(C: GeneralizedCartanMatrix, i: int, vectors) -> set:
    """{sigma_i(v) for v in vectors}, by one right action on their columns."""
    if not vectors:
        return set()
    cols = tuple(zip(*vectors))
    return set(zip(*cols[:i], _carried_column(cols, i, [-c for c in C.rows[i]]), *cols[i + 1:]))


def _combine(weights: Sequence[int], vectors: Sequence[tuple]) -> tuple:
    """sum_j weights[j] * vectors[j] on integers, skipping zero weights (one is nonzero)."""
    acc = None
    for w, v in zip(weights, vectors):
        if w:
            acc = [w * x for x in v] if acc is None else [s + w * x for s, x in zip(acc, v)]
    return tuple(acc)


def _carried_column(columns: tuple, i: int, coeffs: Sequence[int]) -> tuple:
    """T on the right, m = coeffs (coeffs[i] is unused): column i of M . T for
    M given by columns, sum_{j != i} coeffs[j] * x_j - x_i; the rest is M's."""
    return _combine([*coeffs[:i], -1, *coeffs[i + 1:]], columns)


def _reflected_rows(rows: tuple, i: int, coeffs: Sequence[int]) -> tuple:
    """T on the left, m = coeffs: T . M for M given by rows, row i negated and
    coeffs[j] times row i added to row j."""
    pivot = rows[i]
    return tuple(
        tuple(-x for x in pivot) if j == i else tuple(x + c * y for x, y in zip(row, pivot)) if c else row
        for j, (row, c) in enumerate(zip(rows, coeffs))
    )


# ---------------------------------------------------------------------------
# Cartan graphs


def standard_dual_basis(rank: int) -> tuple:
    """The standard basis of Z^I as int rows: the base object's covectors, the
    simple roots, and the rows of the identity matrix."""
    return tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))


def canonical_basis_key(basis: Sequence) -> tuple:
    """Order-free identity of a chamber, the one chamber-key rule: the sorted
    primitive integer rays of its basis."""
    return tuple(sorted(primitive_ray(b) for b in basis))


def _check_edge(a: ObjectId, i: int, b: ObjectId, back, matrix_a, matrix_b) -> None:
    """The (C1)/(C2) check of an edge rho_i(a) = b of a finite graph, where
    rho_i(b) = back: (C1) back is a, and (C2) the two matrices agree in row i."""
    if back != a:
        raise NotSimplyConnected(f"(C1) fails: rho_{i}^2({fmt_object(a)}) = {fmt_object(back)}")
    if matrix_a is not matrix_b and matrix_a.rows[i] != matrix_b.rows[i]:
        violation = f"row {i} differs across edge {fmt_object(a)} -- {fmt_object(b)}"
        raise InvalidCartanMatrix([GcmViolation("C2", (i, 0), violation)])


class CartanGraph:
    """Objects with involutions rho_i and a generalized Cartan matrix per object.

    Explicit graphs carry finite tables (edges may be partial when the graph is a
    truncation).  Lazy graphs generate objects on demand; the provided standard
    construction keys objects by the geometric basis they realize, which makes
    object identity decidable and loop words act trivially by construction.
    """

    def __init__(
        self,
        rank: int,
        base: ObjectId,
        matrix_of: Callable[[ObjectId], GeneralizedCartanMatrix],
        rho: Callable[[int, ObjectId], ObjectId | None],
        objects: tuple[ObjectId, ...] | None = None,
        truncated: bool = False,
        holds=None,
    ):
        self.rank = rank
        self.base = base
        self._matrix_of = matrix_of
        self._rho = rho
        self.objects = objects
        self.truncated = truncated
        self._holds = frozenset(objects) if holds is None and objects is not None else holds

    @property
    def is_explicit(self) -> bool:
        return self.objects is not None

    def _held(self, obj: ObjectId) -> ObjectId:
        """The one check of an object from outside, against `holds` (default `objects`), if any."""
        return obj if self._holds is None else _held_object(self._holds, obj, "graph")

    def matrix(self, obj: ObjectId) -> GeneralizedCartanMatrix:
        return self._matrix_of(self._held(obj))

    def rho(self, i: int, obj: ObjectId) -> ObjectId | None:
        """The i-neighbor, or None when that edge is outside a truncated table."""
        return self._rho(_wall_index(self.rank, i), self._held(obj))

    # -- constructors ------------------------------------------------------

    @classmethod
    def explicit(
        cls,
        matrices: Mapping[ObjectId, GeneralizedCartanMatrix],
        edges: Mapping[tuple[ObjectId, int], ObjectId],
        base: ObjectId,
        truncated: bool = False,
    ) -> "CartanGraph":
        """The finite graph of `matrices` and `edges`, checked for (C1)
        rho_i^2 = id and (C2) row-i agreement on every present edge, object by
        object in `matrices` order, so the first failure met is the one named."""
        rank = matrices[_held_object(matrices, base, "graph")].rank
        edge_map = dict(edges)
        for a, Ca in matrices.items():
            for i in range(rank):
                b = edge_map.get((a, i))
                if b is not None:
                    _check_edge(a, i, b, edge_map.get((b, i)), Ca, matrices[b])

        def rho(i, obj):
            return edge_map.get((obj, i))

        return cls(rank, base, matrices.__getitem__, rho, objects=tuple(matrices), truncated=truncated)

    @classmethod
    def standard(cls, gcm: GeneralizedCartanMatrix) -> "CartanGraph":
        """Lazy graph with one matrix everywhere, objects keyed by realized basis.
        Word w reaches the basis (w(alpha_j))_j, keyed by the set w(Pi) as real roots are
        primitive.  Equal keys mean w_2^-1 w_1 permutes Pi, so it sends every simple root
        to a positive root, and w_1 = w_2 (Kac, *Infinite-dimensional Lie algebras*, Lemma
        3.11): one basis per key."""
        rank = gcm.rank
        base_basis = standard_dual_basis(rank)
        base = canonical_basis_key(base_basis)
        bases: dict[ObjectId, tuple] = {base: base_basis}

        def rho(i, obj):
            new_basis = _reflected_rows(bases[obj], i, [-c for c in gcm.rows[i]])
            key = canonical_basis_key(new_basis)
            bases.setdefault(key, new_basis)
            return key

        return cls(rank, base, lambda _: gcm, rho, holds=bases)

    # -- traversal ---------------------------------------------------------

    def ball(self, start: ObjectId, depth: int) -> tuple[dict[ObjectId, int], dict, bool]:
        """Objects within graph distance `depth` of start.

        Returns (distances, edges, closed) where edges maps (obj, i) -> neighbor
        for every edge with both ends visited, in the order the edges are
        found, and closed means every edge of every visited object is known
        and stays in the visited set.  A missing edge (rho is None, as in a
        truncated graph) is frontier: the region past it is unknown.
        """
        dist = {self._held(start): 0}
        edges: dict[tuple[ObjectId, int], ObjectId] = {}
        queue = deque([start])
        frontier_open = False
        while queue:
            a = queue.popleft()
            d = dist[a]
            for i in range(self.rank):
                b = self._rho(i, a)
                if b in dist:
                    edges[(a, i)] = b
                    continue
                if b is None or d + 1 > depth:
                    frontier_open = True
                    continue
                dist[b] = d + 1
                edges[(a, i)] = b
                queue.append(b)
        return dist, edges, not frontier_open


# ---------------------------------------------------------------------------
# Real roots


class RealRootSet(Record):
    """Per-object truncated real-root sets from a breadth-first closure."""

    base: ObjectId
    depth: int
    roots: Mapping[ObjectId, frozenset]
    complete: bool
    last_layer: Mapping[ObjectId, frozenset]  # roots first seen in the final round
    distances: Mapping[ObjectId, int]

    def at(self, obj: ObjectId) -> frozenset:
        return self.roots[_held_object(self.roots, obj, "real-root set")]

    def interior_objects(self) -> set:
        """Objects whose whole neighborhood was generated."""
        if self.complete:
            return set(self.roots)
        return {obj for obj, d in self.distances.items() if d < self.depth}


def generate_real_roots(graph: CartanGraph, start: ObjectId, depth: int) -> RealRootSet:
    """Breadth-first closure of the standard basis under edge reflections.

    Round t adds the images of round t-1 across every visited edge, so after
    `depth` rounds each object holds the images of all words of length <= depth
    ending there.  `complete` is set when the visited region is closed and one
    extra round adds nothing anywhere.
    """
    if depth < 0:
        raise InvalidTable("depth must be >= 0")
    dist, edges, closed = graph.ball(start, depth)
    basis = standard_dual_basis(graph.rank)
    sets: dict[ObjectId, set] = {obj: set(basis) for obj in dist}
    fresh: dict[ObjectId, set] = {obj: set(basis) for obj in dist}

    def one_round() -> dict[ObjectId, set]:
        added: dict[ObjectId, set] = {obj: set() for obj in dist}
        for (a, i), b in edges.items():
            added[b] |= _reflected(graph._matrix_of(a), i, fresh[a]) - sets[b]
        return added

    last: dict[ObjectId, set] = {obj: set() for obj in dist}
    for _ in range(depth):
        added = one_round()
        for obj, news in added.items():
            sets[obj] |= news
        fresh = last = added
        if not any(added.values()):
            break

    extra = one_round() if any(fresh.values()) else {obj: set() for obj in dist}
    complete = closed and not any(extra.values())
    return RealRootSet(
        base=start,
        depth=depth,
        roots={obj: frozenset(s) for obj, s in sets.items()},
        complete=complete,
        last_layer={obj: frozenset(s) for obj, s in last.items()},
        distances=dict(dist),
    )


# ---------------------------------------------------------------------------
# m_ij and axiom verification


class Infinite(Record):
    """Heuristic infinity marker: the i,j-cone kept growing at the last layer."""

    depth: int


def _cone_roots(roots: Iterable, i: int, j: int) -> set:
    out = set()
    for v in roots:
        if all(x >= 0 for x in v) and all(x == 0 for k, x in enumerate(v) if k not in (i, j)):
            if any(x > 0 for x in v):
                out.add(v)
    return out


def m_ij(rrs: RealRootSet, obj: ObjectId, i: int, j: int):
    """|R^a cap (N0 a_i + N0 a_j)| on the truncation; Infinite when still growing."""
    roots = rrs.at(obj)
    _index_pair(len(next(iter(roots))), i, j)  # every object holds the simple roots
    cone = _cone_roots(roots, i, j)
    if rrs.complete:
        return len(cone)
    if _cone_roots(rrs.last_layer.get(obj, ()), i, j):
        return Infinite(rrs.depth)
    return len(cone)


def m_ij_certified(
    graph: CartanGraph, obj: ObjectId, i: int, j: int, budget: int
) -> tuple[int | Infinite, bool]:
    """m_ij computed on the rank-2 residue closure; certified iff it stabilizes."""
    _index_pair(graph.rank, i, j)
    sub = _residue_view(graph, obj, (i, j))
    rrs = generate_real_roots(sub, obj, budget)
    if rrs.complete:
        return len(_cone_roots(rrs.at(obj), 0, 1)), True
    return Infinite(budget), False


def _index_pair(rank: int, i, j) -> None:
    """The check of m_ij's indices: two distinct walls."""
    if _wall_index(rank, i) == _wall_index(rank, j):
        raise InvalidTable("m_ij needs distinct indices")


def _residue_view(graph: CartanGraph, base: ObjectId, indices: Sequence[int]) -> CartanGraph:
    """Lazy J-residue: same objects, edges restricted to J, matrices restricted."""
    idx = tuple(_wall_index(graph.rank, i) for i in indices)

    def matrix_of(obj):
        return graph._matrix_of(obj).restrict(idx)

    def rho(k, obj):
        return graph._rho(idx[k], obj)

    return CartanGraph(len(idx), base, matrix_of, rho, truncated=graph.truncated, holds=graph._holds)


def residue(graph: CartanGraph, base: ObjectId, indices: Sequence[int], budget: int) -> CartanGraph:
    """Explicit J-residue containing `base`, generated by closure within budget."""
    if not indices:
        raise InvalidTable("the index subset must be nonempty")
    view = _residue_view(graph, base, indices)
    dist, edges, closed = view.ball(base, budget)
    matrices = {obj: view.matrix(obj) for obj in dist}
    explicit = CartanGraph.explicit(matrices, edges, base, truncated=not closed)
    if not closed:
        raise BudgetExceeded("residue closure did not stabilize", partial=explicit)
    return explicit


class AxiomFinding(Record):
    axiom: str  # "R1".."R4"
    obj: ObjectId
    status: str  # "pass" | "fail" | "insufficient_depth"
    witness: object = None


class AxiomReport(Record):
    findings: tuple[AxiomFinding, ...]
    complete: bool
    skipped_frontier: tuple = ()  # objects excluded from R2/R3 (incomplete data)

    def status(self, axiom: str) -> str:
        """Aggregate: "fail" dominates, then "insufficient_depth", else "pass"."""
        statuses = [f.status for f in self.findings if f.axiom == axiom]
        if "fail" in statuses:
            return "fail"
        if "insufficient_depth" in statuses:
            return "insufficient_depth"
        return "pass"

    @property
    def all_pass(self) -> bool:
        return all(f.status == "pass" for f in self.findings)

    def failures(self) -> list[AxiomFinding]:
        return [f for f in self.findings if f.status == "fail"]


def check_root_system_axioms(
    graph: CartanGraph,
    roots: RealRootSet | Mapping[ObjectId, Iterable],
    depth: int,
) -> AxiomReport:
    """Verify (R1)-(R4) per visited object on the given (possibly truncated) sets.

    (R4) is asserted only when the rank-2 residue closure certifies m_ij finite;
    otherwise it is reported as insufficient_depth rather than a failure.  A
    certified m_ij closed the {i,j}-residue, so the walk (rho_i rho_j)^m_ij
    never meets a missing edge.
    """
    if isinstance(roots, RealRootSet):
        per_object = {obj: set(s) for obj, s in roots.roots.items()}
        complete = roots.complete
        last_layer = {obj: set(s) for obj, s in roots.last_layer.items()}
        interior = roots.interior_objects()
    else:
        per_object = {obj: set(s) for obj, s in roots.items()}
        complete = True
        last_layer = {obj: set() for obj in per_object}
        interior = set(per_object)
    rank = graph.rank
    budget = max(2 * depth, 16)
    findings: list[AxiomFinding] = []
    skipped = tuple(obj for obj in per_object if obj not in interior)

    for obj, rset in per_object.items():
        # (R1): every root lies in N0^I or -N0^I.
        bad = next(
            (v for v in rset if not (all(x >= 0 for x in v) or all(x <= 0 for x in v)) or all(x == 0 for x in v)),
            None,
        )
        findings.append(
            AxiomFinding("R1", obj, "fail" if bad is not None else "pass", bad)
        )

        # (R2): multiples of alpha_i present are exactly +-alpha_i.  Only interior
        # objects are held to the presence requirement (frontier sets are
        # structurally incomplete).
        r2_status, r2_witness = "pass", None
        for i in range(rank):
            unit = tuple(1 if k == i else 0 for k in range(rank))
            neg = tuple(-x for x in unit)
            for v in rset:
                if v in (unit, neg):
                    continue
                if all(x == 0 for k, x in enumerate(v) if k != i):
                    r2_status, r2_witness = "fail", v
                    break
            if r2_status == "fail":
                break
            if neg not in rset and obj in interior:
                if complete:
                    r2_status, r2_witness = "fail", neg
                else:
                    r2_status, r2_witness = "insufficient_depth", neg
                break
        findings.append(AxiomFinding("R2", obj, r2_status, r2_witness))

        # (R3): sigma_i maps the depth-safe part into the neighbor's set; for
        # complete systems this is full set equality.
        C = graph.matrix(obj)
        r3_status, r3_witness = "pass", None
        if obj in interior:
            for i in range(rank):
                nb = graph.rho(i, obj)
                if nb is None or nb not in per_object:
                    if not complete:
                        r3_status = "insufficient_depth"
                    continue
                safe = rset if complete else rset - last_layer.get(obj, set())
                image = _reflected(C, i, safe)  # of all of rset when complete
                missing = image - per_object[nb]
                if missing:
                    r3_status, r3_witness = "fail", (i, next(iter(missing)))
                    break
                if complete and image != per_object[nb]:
                    r3_status, r3_witness = "fail", (i, "image differs from neighbor set")
                    break
        findings.append(AxiomFinding("R3", obj, r3_status, r3_witness))

        # (R4): (rho_i rho_j)^{m_ij} fixes the object when m_ij is certified finite.
        r4_status, r4_witness = "pass", None
        if obj not in interior:
            findings.append(AxiomFinding("R4", obj, "pass", None))
            continue
        for i in range(rank):
            for j in range(i + 1, rank):
                m, certified = m_ij_certified(graph, obj, i, j, budget)
                if not certified:
                    r4_status, r4_witness = "insufficient_depth", (i, j)
                    continue
                cur = obj
                for _ in range(m):
                    cur = graph.rho(j, graph.rho(i, cur))
                if cur != obj:
                    r4_status, r4_witness = "fail", (i, j, m, cur)
        findings.append(AxiomFinding("R4", obj, r4_status, r4_witness))

    return AxiomReport(tuple(findings), complete, skipped)


# ---------------------------------------------------------------------------
# Morphisms and simple connectedness


class Morphism(Record):
    """A composed reflection word with its integer matrix acting on Z^I."""

    source: ObjectId
    target: ObjectId
    word: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    @classmethod
    def from_word(cls, graph: CartanGraph, start: ObjectId, word: Sequence[int]) -> "Morphism":
        """Cross edges in word order from `start`; matrices compose left to right: sigma_i . M = (M^t . T)^t."""
        cur = graph._held(start)
        mat = standard_dual_basis(graph.rank)
        for i in word:
            nxt = graph.rho(i, cur)
            mat = mat[:i] + (_carried_column(mat, i, [-c for c in graph.matrix(cur).rows[i]]),) + mat[i + 1:]
            if nxt is None:
                raise BudgetExceeded(f"edge {i} missing at {fmt_object(cur)}")
            cur = nxt
        return cls(start, cur, tuple(word), mat)

    def det(self) -> int:
        return int_det(self.matrix)


class SimpleConnectivityReport(Record):
    simply_connected: bool
    complete: bool  # True when every edge of the graph was checked (full certificate)
    word_budget: int
    witness: tuple | None  # (object, word) of a nonidentity loop, if found
    objects_seen: int


def check_simply_connected(graph: CartanGraph, word_budget: int) -> SimpleConnectivityReport:
    """Search for nonidentity loop morphisms.

    Every object reachable from a seed carries the matrix of one witness path;
    each further edge must reproduce the stored matrix at its far end, otherwise
    the discrepancy is a nonidentity loop.  An edge is compared only within
    one seed's walk: a walk cut by the budget leaves objects that a later seed
    reaches with matrices from another base point.  When every edge gets
    checked this certifies simple connectedness outright; if the budget
    truncates the walk, the certificate only covers words up to that length.
    """
    ident = standard_dual_basis(graph.rank)
    seen: dict[ObjectId, tuple] = {}
    parent_word: dict[ObjectId, tuple[int, ...]] = {}
    truncated = False
    seeds: Iterable[ObjectId] = graph.objects if graph.objects is not None else (graph.base,)
    for seed in seeds:
        if seed in seen:
            continue
        seen[seed] = ident
        parent_word[seed] = ()
        walk = {seed}  # the objects this seed's walk reached
        queue = deque([(seed, 0)])
        while queue:
            a, d = queue.popleft()
            if d >= word_budget:
                truncated = True
                continue
            mat_a = seen[a]
            for i in range(graph.rank):
                b = graph.rho(i, a)
                if b is None:
                    continue
                mat_b = mat_a[:i] + (_carried_column(mat_a, i, [-c for c in graph.matrix(a).rows[i]]),) + mat_a[i + 1:]
                if b in walk:
                    if seen[b] != mat_b:
                        word = parent_word[a] + (i,)
                        return SimpleConnectivityReport(False, False, word_budget, (b, word), len(seen))
                elif b not in seen:
                    seen[b] = mat_b
                    parent_word[b] = parent_word[a] + (i,)
                    walk.add(b)
                    queue.append((b, d + 1))
    return SimpleConnectivityReport(True, not truncated, word_budget, None, len(seen))
