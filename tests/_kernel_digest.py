"""Digest of every public chamber-kernel answer on the builtin tables.

For each builtin table it records, per section, a SHA-256 of a canonical JSON
rendering: the chamber atlas (BFS order, bases, rays, witnesses, edges, true
and certified keys), the crystallographic and additive reports, and the
extracted Cartan graph (matrices, edges, root sets).  The `bare_truncation`
section records the same table digest for every truncated table that
`realize` makes from a builtin graph at depths 2 and 3, read back through its
JSON form, which drops the realization's certified keys: a bare truncation.
Four more sections cover the analyses built on the kernel: `realize` of every
builtin graph at depth 8 (object ids in their wire form, `jsonio.key_to_str`,
so the digest does not depend on the number type of an id),
`roundtrip_check` of every builtin graph at depths 1 to 6 (its outcome and
objects compared in clear, beside the hash of the whole report), the
canonical signatures of the six F4 double restrictions, and
`local_to_global_check` on a3 and b3.  The `queries` section records the
queries built on the kernel, per table and per realization (see
`query_digests`).  An analysis that raises is recorded by its exception
type and message, and a set as its sorted list.  `tests/test_kernel.py` recomputes the digest
and compares it with `tests/golden/kernel_digest.json`.

Regenerate the golden file only when an answer is meant to change:

    PYTHONPATH=src python tests/_kernel_digest.py > tests/golden/kernel_digest.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from weylgpd.arrangement import (
    RootSystemTable,
    Truncated,
    chamber_bfs,
    check_additive,
    check_crystallographic,
    default_seed_chamber,
    distance_and_gallery,
    extract_cartan_graph,
    is_nondegenerate,
    separating_keys,
)
from weylgpd.builtins import (
    BUILTIN_GCMS,
    F4_SIMPLE_ROOTS,
    TABLE_NAMES,
    builtin_graph,
    builtin_table,
    f4_table,
)
from weylgpd.errors import WeylgpdError
from weylgpd.exactlin import int_primitive
from weylgpd.jsonio import key_to_str, table_from_json, table_to_json
from weylgpd.realization import (
    adjacency_equivalences_test,
    local_cartan_graph_at,
    locate_point,
    realize,
    roundtrip_check,
)
from weylgpd.subarr import (
    canonical_cycle,
    chamber_with_wall,
    double_restriction,
    fan_edge_sequence,
    local_to_global_check,
    rank2_graph_from_edge_sequence,
    residue_correspondence_check,
    restrict,
)

F4_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
LOCAL_TO_GLOBAL_TABLES = ("a3", "b3")
ROUNDTRIP_DEPTHS = range(1, 7)
BARE_TRUNCATION_DEPTHS = (2, 3)
QUERY_RESTRICTED = ("a3", "b3", "f4")  # their single restrictions, every third line
QUERY_DEPTHS = (1, 3, 8)
QUERY_CYCLE = (1, 2, 2, 2, 1, 4, 1, 2, 2, 2, 1, 4)  # a rank-2 cycle beside the builtin graphs


def _strs(vectors) -> list:
    return [[str(c) for c in v] for v in vectors]


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _guarded(fn):
    try:
        return fn()
    except WeylgpdError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def table_digest(table) -> dict:
    seed = default_seed_chamber(table)
    atlas = chamber_bfs(table, seed, 10_000)
    index, chambers, rank = atlas.id_of, atlas.chambers, table.rank
    atlas_payload = {
        "order": [_strs(key) for key in atlas.order],
        "bases": [_strs(c.basis) for c in chambers],
        "rays": [_strs(c.rays) for c in chambers],
        "witnesses": [[str(x) for x in c.witness] for c in chambers],
        "edges": sorted([p // rank, p % rank, b] for p, b in enumerate(atlas.edges) if b >= 0),
        "true": sorted(atlas.true_chambers),
        "certified": sorted(atlas.certified),
        "budget_exceeded": atlas.budget_exceeded,
    }

    def extraction():
        result = extract_cartan_graph(table)
        graph = result.graph
        objects = sorted(result.chambers, key=index.__getitem__)
        return {
            "objects": [index[k] for k in objects],
            "matrices": [list(map(list, graph.matrix(k).rows)) for k in objects],
            "root_sets": [sorted(map(list, result.root_sets[k])) for k in objects],
            "edges": sorted(
                [index[k], i, index[graph.rho(i, k)]]
                for k in objects
                for i in range(graph.rank)
                if graph.rho(i, k) is not None
            ),
            "base": index[graph.base],
            "truncated": graph.truncated,
        }

    sections = {
        "atlas": atlas_payload,
        "crystallographic": _guarded(lambda: check_crystallographic(table).to_json()),
        "additive": _guarded(lambda: check_additive(table).to_json()),
        "extraction": _guarded(extraction),
    }
    out = {name: _sha(payload) for name, payload in sections.items()}
    out["chambers"] = len(atlas.order)
    return out


def realize_digest(name: str, depth: int = 8) -> str:
    """SHA-256 of everything `realize` returns for a builtin graph."""

    def payload():
        re = realize(builtin_graph(name), depth=depth)
        objects = [key_to_str(obj) for obj in re.order]
        return {
            "order": objects,
            "bases": [_strs(re.bases[obj]) for obj in re.order],
            "rays": [_strs(re.chambers[obj].rays) for obj in re.order],
            "canon": [_strs(re.canon[obj]) for obj in re.order],
            "edges": sorted([key_to_str(a), i, key_to_str(b)] for (a, i), b in re.edges.items()),
            "roots": _strs(re.table.roots),
            "cone": re.table.cone.to_json(),
            "seed_hint": [str(c) for c in re.table.seed_hint],
            "certified": sorted(key_to_str(obj) for obj in re.certified),
            "certified_keys": sorted(_strs(key) for key in re.table.certified_keys),
            "gamma": None if re.gamma is None else [str(c) for c in re.gamma],
            "complete": re.complete,
        }

    return _sha(_guarded(payload))


def bare_truncation_digests() -> dict:
    """`table_digest` of each truncated realization of a builtin graph at
    depths 2 and 3, after a JSON round trip that drops its certified keys."""
    out = {}
    for name in BUILTIN_GCMS:
        for depth in BARE_TRUNCATION_DEPTHS:
            re = realize(builtin_graph(name), depth=depth)
            if isinstance(re.table.cone, Truncated):
                bare = table_from_json(table_to_json(re.table))
                out.setdefault(name, {})[str(depth)] = _guarded(lambda: table_digest(bare))
    return out


def roundtrip_digest(name: str, depth: int) -> dict:
    """Outcome, objects compared and SHA-256 of `roundtrip_check` on a builtin graph."""

    def payload():
        report = roundtrip_check(builtin_graph(name), depth=depth)
        return {
            "equivalent": report.equivalent,
            "objects_compared": report.objects_compared,
            "index_map": report.index_map,
            "mismatches": list(report.mismatches),
        }

    result = _guarded(payload)
    outcome = result.get("error") or ("pass" if result["equivalent"] else "fail")
    return {"outcome": outcome, "objects_compared": result.get("objects_compared"), "sha": _sha(result)}


def f4_signatures() -> dict:
    """Canonical fan signature of each double restriction of F4 by two simple roots."""
    table = f4_table()
    out = {}
    for i, j in F4_PAIRS:
        rst = double_restriction(table, F4_SIMPLE_ROOTS[i - 1], F4_SIMPLE_ROOTS[j - 1])
        out[f"pi_{i}{j}"] = list(canonical_cycle(fan_edge_sequence(rst.reduced_table)))
    return out


def local_to_global_digest(name: str) -> dict:
    result = local_to_global_check(builtin_table(name))
    return {
        "points_checked": result["points_checked"],
        "local_passed": result["local_passed"],
        "global_passed": result["global_passed"],
        "global_report": _sha(result["global_report"].to_json()),
    }


def _key_strs(keys) -> list:
    return sorted(_strs(keys))


def table_query_digest(table) -> str:
    """SHA-256 of the chamber queries on a table: nondegeneracy, the default
    seed of the table without its seed hint (basis and witness),
    `chamber_with_wall` on every root (basis and witness), and, on every
    ninth pair of a sample of the atlas's chambers, `separating_keys` and
    `distance_and_gallery` (count, chamber keys and crossings), and
    `residue_correspondence_check` at the seed's primitive rays and their
    pairwise sums."""
    seedless = RootSystemTable(table.rank, table.roots, cone=table.cone)

    def seed():
        chamber = default_seed_chamber(seedless)
        return {"basis": _strs(chamber.basis), "witness": [str(c) for c in chamber.witness]}

    def with_wall(root):
        chamber = chamber_with_wall(table, root)
        return {"basis": _strs(chamber.basis), "witness": [str(c) for c in chamber.witness]}

    payload = {
        "nondegenerate": is_nondegenerate(table),
        "seed": _guarded(seed),
        "with_wall": [_guarded(lambda: with_wall(root)) for root in table.roots],
    }
    atlas = _guarded(lambda: chamber_bfs(table, default_seed_chamber(table), 10_000))
    if isinstance(atlas, dict):
        payload["atlas"] = atlas
        return _sha(payload)
    sample = atlas.chambers[:: max(1, len(atlas.chambers) // 12)]

    def gallery(a, b):
        total, walk = distance_and_gallery(table, a, b)
        return {"total": total, "keys": [_strs(c.key) for c in walk.chambers], "crossings": list(walk.crossings)}

    pairs = list(itertools.product(sample, repeat=2))[::9]
    payload["separating"] = [_key_strs(separating_keys(table, a, b)) for a, b in pairs]
    payload["galleries"] = [_guarded(lambda: gallery(a, b)) for a, b in pairs]
    rays = [int_primitive(col) for col in atlas.chambers[0].frame.cols]
    points = rays + [tuple(map(sum, zip(p, q))) for p, q in itertools.combinations(rays, 2)]

    def correspondence(x):
        report = residue_correspondence_check(table, x)
        return {
            "equivalent": report.equivalent,
            "objects_compared": report.objects_compared,
            "index_map": list(report.index_map),
            "mismatches": list(report.mismatches),
        }

    payload["residue"] = [_guarded(lambda: correspondence(x)) for x in points]
    return _sha(payload)


def realization_query_digest(graph, depth: int) -> str:
    """SHA-256 of `locate_point` and `local_cartan_graph_at` at every point
    of {-2..2}^r ({-1..1}^4 in rank 4) of a realization, and of
    `adjacency_equivalences_test` on every pair of its first four objects and
    every wall."""
    re = realize(graph, depth=depth)
    span = range(-1, 2) if re.rank == 4 else range(-2, 3)
    points = [x for x in itertools.product(span, repeat=re.rank) if any(x)]

    def located(x):
        result = locate_point(re, x)
        return [result.status, None if result.obj is None else key_to_str(result.obj), result.steps]

    def local(x):
        result = local_cartan_graph_at(re, x)
        sub = result.graph
        return {
            "indices": list(result.indices),
            "roots": _key_strs(result.roots),
            "base": key_to_str(result.base_obj),
            "objects": None if sub is None else sorted(map(key_to_str, sub.objects)),
            "matrices": None if sub is None else sorted(
                [key_to_str(obj), list(map(list, sub.matrix(obj).rows))] for obj in sub.objects
            ),
            "integer_roots": sorted([key_to_str(obj), sorted(map(list, v))] for obj, v in result.integer_roots.items()),
        }

    def adjacency(b, b2, i):
        result = adjacency_equivalences_test(re, b, b2, i)
        return [result.i_adjacent, result.rho_matches, result.sandwich, result.separating_singleton]

    first = re.order[:4]
    payload = {
        "locate": [located(x) for x in points],
        "local": [_guarded(lambda: local(x)) for x in points],
        "adjacency": [
            adjacency(b, b2, i) for b, b2 in itertools.product(first, repeat=2) for i in range(re.rank)
        ],
    }
    return _sha(payload)


def query_digests() -> dict:
    """The `queries` section: `table_query_digest` of each builtin table and
    of every third reduced single restriction of a3, b3 and f4, and
    `realization_query_digest` of each builtin graph and a rank-2 cycle at
    depths 1, 3 and 8."""
    tables = {name: table_query_digest(builtin_table(name)) for name in TABLE_NAMES}
    for name in QUERY_RESTRICTED:
        table = builtin_table(name)
        for key in sorted(table.lines)[::3]:
            restricted = restrict(table, table.lines[key][0]).reduced_table
            tables[f"{name}|{key_to_str(key)}"] = table_query_digest(restricted)
    graphs = {name: builtin_graph(name) for name in BUILTIN_GCMS}
    graphs["cycle"] = rank2_graph_from_edge_sequence(QUERY_CYCLE)
    realizations = {
        name: {str(depth): realization_query_digest(graph, depth) for depth in QUERY_DEPTHS}
        for name, graph in graphs.items()
    }
    return {"tables": tables, "realizations": realizations}


def kernel_digest(names=TABLE_NAMES) -> dict:
    out = {name: table_digest(builtin_table(name)) for name in names}
    out["bare_truncation"] = bare_truncation_digests()
    out["realize"] = {name: realize_digest(name) for name in BUILTIN_GCMS}
    out["roundtrip"] = {
        name: {str(depth): roundtrip_digest(name, depth) for depth in ROUNDTRIP_DEPTHS}
        for name in BUILTIN_GCMS
    }
    out["f4-demo"] = f4_signatures()
    out["local-to-global"] = {name: local_to_global_digest(name) for name in LOCAL_TO_GLOBAL_TABLES}
    out["queries"] = query_digests()
    return out


if __name__ == "__main__":
    json.dump(kernel_digest(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
