"""Digest of every public chamber-kernel answer on the builtin tables.

For each builtin table it records, per section, a SHA-256 of a canonical JSON
rendering: the chamber atlas (BFS order, bases, rays, witnesses, edges, true
and certified keys), the crystallographic and additive reports, and the
extracted Cartan graph (matrices, edges, root sets).  An analysis that raises
is recorded by its exception type and message.  `tests/test_kernel.py`
recomputes the digest and compares it with `tests/golden/kernel_digest.json`.

Regenerate the golden file only when an answer is meant to change:

    PYTHONPATH=src python tests/_kernel_digest.py > tests/golden/kernel_digest.json
"""

from __future__ import annotations

import hashlib
import json
import sys

from weylgpd.arrangement import (
    chamber_bfs,
    check_additive,
    check_crystallographic,
    default_seed_chamber,
    extract_cartan_graph,
)
from weylgpd.builtins import TABLE_NAMES, builtin_table
from weylgpd.errors import WeylgpdError


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
    index = {key: n for n, key in enumerate(atlas.order)}
    chambers = [atlas.chambers[key] for key in atlas.order]
    atlas_payload = {
        "order": [_strs(key) for key in atlas.order],
        "bases": [_strs(c.basis) for c in chambers],
        "rays": [_strs(c.rays) for c in chambers],
        "witnesses": [[str(x) for x in c.witness] for c in chambers],
        "edges": sorted([index[a], i, index[b]] for (a, i), b in atlas.edges.items()),
        "true": sorted(index[k] for k in atlas.true_chambers),
        "certified": sorted(index[k] for k in atlas.certified),
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


def kernel_digest(names=TABLE_NAMES) -> dict:
    return {name: table_digest(builtin_table(name)) for name in names}


if __name__ == "__main__":
    json.dump(kernel_digest(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
