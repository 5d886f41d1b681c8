"""Generalized Cartan matrices, Cartan graphs, and real-root generation.

A Cartan graph is a set of objects with involutions rho_i and one generalized
Cartan matrix per object; its reflections sigma_i act on Z^I by
sigma_i(alpha_j) = alpha_j - c_ij * alpha_i.  Real roots at an object are the
images of the standard basis under composed reflections ending there.  The
graph side is integral: bases, real roots, reflection matrices and the
standard graph's object ids (chamber keys) are int tuples.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ._rational import fmt_covector
from ._record import Record
from .errors import (
    BudgetExceeded,
    InvalidCartanMatrix,
    NonSquare,
    NotSimplyConnected,
)
from .exactlin import int_det, primitive_ray

IntVec = tuple  # tuple of ints
ObjectId = Hashable


def fmt_object(obj: ObjectId) -> str:
    """An object id for messages: ids that are chamber keys (the standard
    graph's) print through fmt_covector, any other id through str."""
    return fmt_covector(obj) if isinstance(obj, tuple) else str(obj)


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

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def restrict(self, indices: Sequence[int]) -> "GeneralizedCartanMatrix":
        return GeneralizedCartanMatrix(
            tuple(tuple(self.rows[i][j] for j in indices) for i in indices)
        )


def reflect(C: GeneralizedCartanMatrix, i: int, v: IntVec) -> IntVec:
    """sigma_i applied to v in Z^I: v - v_i' ... extended linearly from
    alpha_j |-> alpha_j - c_ij alpha_i."""
    coeff = sum(C.rows[i][j] * v[j] for j in range(C.rank))
    return tuple(v[j] - coeff if j == i else v[j] for j in range(C.rank))


def reflection_matrix(C: GeneralizedCartanMatrix, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of sigma_i with columns the images of the standard basis."""
    n = C.rank
    return tuple(
        tuple((1 if k == j else 0) - (C.rows[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )


def int_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)) for i in range(n))


# ---------------------------------------------------------------------------
# Cartan graphs


def standard_dual_basis(rank: int) -> tuple:
    """The standard basis of Z^I as int rows: the base object's covectors, the
    simple roots, and the rows of the identity matrix."""
    return tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))


def apply_reflection_to_basis(basis: Sequence, C: GeneralizedCartanMatrix, i: int) -> tuple:
    """Indexed basis of the object across edge i: beta_j' = beta_j - c_ij beta_i."""
    return tuple(
        tuple(basis[j][k] - C.rows[i][j] * basis[i][k] for k in range(len(basis[j])))
        for j in range(len(basis))
    )


def canonical_basis_key(basis: Sequence) -> tuple:
    """Order-free identity of a chamber, the one chamber-key rule: the sorted
    primitive integer rays of its basis."""
    return tuple(sorted(primitive_ray(b) for b in basis))


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
    ):
        self.rank = rank
        self.base = base
        self._matrix_of = matrix_of
        self._rho = rho
        self.objects = objects
        self.truncated = truncated

    @property
    def is_explicit(self) -> bool:
        return self.objects is not None

    def matrix(self, obj: ObjectId) -> GeneralizedCartanMatrix:
        return self._matrix_of(obj)

    def rho(self, i: int, obj: ObjectId) -> ObjectId | None:
        """The i-neighbor, or None when that edge is outside a truncated table."""
        return self._rho(i, obj)

    # -- constructors ------------------------------------------------------

    @classmethod
    def explicit(
        cls,
        matrices: Mapping[ObjectId, GeneralizedCartanMatrix],
        edges: Mapping[tuple[ObjectId, int], ObjectId],
        base: ObjectId,
        truncated: bool = False,
    ) -> "CartanGraph":
        objs = tuple(matrices.keys())
        rank = matrices[base].rank
        edge_map = dict(edges)

        def rho(i, obj):
            return edge_map.get((obj, i))

        graph = cls(rank, base, lambda o: matrices[o], rho, objects=objs, truncated=truncated)
        graph.check_local_axioms()
        return graph

    @classmethod
    def standard(cls, gcm: GeneralizedCartanMatrix) -> "CartanGraph":
        """Lazy graph with one matrix everywhere, objects keyed by realized basis."""
        rank = gcm.rank
        base_basis = standard_dual_basis(rank)
        base = canonical_basis_key(base_basis)
        bases: dict[ObjectId, tuple] = {base: base_basis}

        def rho(i, obj):
            basis = bases[obj]
            new_basis = apply_reflection_to_basis(basis, gcm, i)
            key = canonical_basis_key(new_basis)
            stored = bases.get(key)
            if stored is None:
                bases[key] = new_basis
            elif stored != new_basis:
                raise NotSimplyConnected(
                    f"object {fmt_covector(key)} reached with conflicting indexed bases"
                )
            return key

        return cls(rank, base, lambda _: gcm, rho, objects=None)

    # -- axiom checks ------------------------------------------------------

    def check_local_axioms(self, objects: Iterable[ObjectId] | None = None) -> None:
        """Assert (C1) rho_i^2 = id and (C2) row-i agreement on every present edge."""
        objs = tuple(objects) if objects is not None else (self.objects or ())
        for a in objs:
            Ca = self.matrix(a)
            for i in range(self.rank):
                b = self.rho(i, a)
                if b is None:
                    continue
                back = self.rho(i, b)
                if back != a:
                    raise NotSimplyConnected(f"(C1) fails: rho_{i}^2({fmt_object(a)}) = {fmt_object(back)}")
                Cb = self.matrix(b)
                if Ca.rows[i] != Cb.rows[i]:
                    raise InvalidCartanMatrix(
                        [GcmViolation("C2", (i, 0), f"row {i} differs across edge {fmt_object(a)} -- {fmt_object(b)}")]
                    )

    # -- traversal ---------------------------------------------------------

    def ball(self, start: ObjectId, depth: int) -> tuple[dict[ObjectId, int], dict, bool]:
        """Objects within graph distance `depth` of start.

        Returns (distances, edges, closed) where edges maps (obj, i) -> neighbor
        for every edge with both ends visited, in the order the edges are
        found, and closed means every edge of every visited object is known
        and stays in the visited set.  A missing edge (rho is None, as in a
        truncated graph) is frontier: the region past it is unknown.
        """
        dist = {start: 0}
        edges: dict[tuple[ObjectId, int], ObjectId] = {}
        queue = deque([start])
        frontier_open = False
        while queue:
            a = queue.popleft()
            d = dist[a]
            for i in range(self.rank):
                b = self.rho(i, a)
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
        return self.roots[obj]

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
        raise ValueError("depth must be >= 0")
    dist, edges, closed = graph.ball(start, depth)
    basis = standard_dual_basis(graph.rank)
    sets: dict[ObjectId, set] = {obj: set(basis) for obj in dist}
    fresh: dict[ObjectId, set] = {obj: set(basis) for obj in dist}

    def one_round() -> dict[ObjectId, set]:
        added: dict[ObjectId, set] = {obj: set() for obj in dist}
        for (a, i), b in edges.items():
            Ca = graph.matrix(a)
            news = {reflect(Ca, i, v) for v in fresh[a]}
            added[b] |= news - sets[b]
        return added

    last: dict[ObjectId, set] = {obj: set() for obj in dist}
    for _ in range(depth):
        added = one_round()
        if not any(added.values()):
            fresh = {obj: set() for obj in dist}
            last = added
            break
        for obj, news in added.items():
            sets[obj] |= news
        fresh = added
        last = added

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
    if i == j:
        raise ValueError("m_ij needs distinct indices")
    cone = _cone_roots(rrs.at(obj), i, j)
    if rrs.complete:
        return len(cone)
    if _cone_roots(rrs.last_layer.get(obj, ()), i, j):
        return Infinite(rrs.depth)
    return len(cone)


def m_ij_certified(
    graph: CartanGraph, obj: ObjectId, i: int, j: int, budget: int
) -> tuple[int | Infinite, bool]:
    """m_ij computed on the rank-2 residue closure; certified iff it stabilizes."""
    sub = _residue_view(graph, obj, (i, j))
    rrs = generate_real_roots(sub, obj, budget)
    if rrs.complete:
        return len(_cone_roots(rrs.at(obj), 0, 1)), True
    return Infinite(budget), False


def _residue_view(graph: CartanGraph, base: ObjectId, indices: Sequence[int]) -> CartanGraph:
    """Lazy J-residue: same objects, edges restricted to J, matrices restricted."""
    idx = tuple(indices)

    def matrix_of(obj):
        return graph.matrix(obj).restrict(idx)

    def rho(k, obj):
        return graph.rho(idx[k], obj)

    return CartanGraph(len(idx), base, matrix_of, rho, objects=None, truncated=graph.truncated)


def residue(graph: CartanGraph, base: ObjectId, indices: Sequence[int], budget: int) -> CartanGraph:
    """Explicit J-residue containing `base`, generated by closure within budget."""
    if not indices:
        raise ValueError("the index subset must be nonempty")
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
    otherwise it is reported as insufficient_depth rather than a failure.
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
                image = {reflect(C, i, v) for v in safe}
                missing = image - per_object[nb]
                if missing:
                    r3_status, r3_witness = "fail", (i, next(iter(missing)))
                    break
                if complete and {reflect(C, i, v) for v in rset} != per_object[nb]:
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
                ok = True
                for _ in range(m):
                    cur = graph.rho(i, cur)
                    if cur is None:
                        ok = False
                        break
                    cur = graph.rho(j, cur)
                    if cur is None:
                        ok = False
                        break
                if not ok:
                    if r4_status != "fail":
                        r4_status, r4_witness = "insufficient_depth", (i, j)
                elif cur != obj:
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
        """Cross edges in word order starting at `start`; matrices compose left to right."""
        cur = start
        mat = standard_dual_basis(graph.rank)
        for i in word:
            step = reflection_matrix(graph.matrix(cur), i)
            mat = int_mat_mul(step, mat)
            nxt = graph.rho(i, cur)
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
    the discrepancy is a nonidentity loop.  When every edge gets checked this
    certifies simple connectedness outright; if the budget truncates the walk,
    the certificate only covers words up to that length.
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
                step = reflection_matrix(graph.matrix(a), i)
                mat_b = int_mat_mul(step, mat_a)
                if b in seen:
                    if seen[b] != mat_b:
                        word = parent_word[a] + (i,)
                        return SimpleConnectivityReport(False, False, word_budget, (b, word), len(seen))
                else:
                    seen[b] = mat_b
                    parent_word[b] = parent_word[a] + (i,)
                    queue.append((b, d + 1))
    return SimpleConnectivityReport(True, not truncated, word_budget, None, len(seen))
