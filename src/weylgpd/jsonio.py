"""JSON serialization of tables, graphs, and realizations.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1).
Object identifiers serialize as strings: coordinates joined by commas,
covectors by semicolons.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ._rational import fmt_covector
from .cartan import CartanGraph, GeneralizedCartanMatrix, _integer_entry
from .errors import InvalidTable, NonSquare, ParseError
from .exactlin import vdot, vec

if TYPE_CHECKING:
    from .arrangement import RootSystemTable
    from .realization import Realization


def covector_to_json(cov) -> list[str]:
    return [str(c) for c in cov]


def key_to_str(key) -> str:
    if isinstance(key, tuple) and key and isinstance(key[0], tuple):
        return ";".join(",".join(str(c) for c in cov) for cov in key)
    return str(key)


def table_to_json(table: RootSystemTable) -> dict:
    return {
        "rank": table.rank,
        "cone": table.cone.to_json(),
        "reduced": table.reduced,
        "roots": [covector_to_json(r) for r in table.roots],
    }


def table_from_json(data: dict) -> RootSystemTable:
    from .arrangement import Affine, RootSystemTable, Spherical, Truncated

    try:
        rank = _integer_entry(data["rank"])
        if rank < 1:
            raise ParseError(f"table rank must be positive, not {rank}")
        cone_data = data.get("cone", "spherical")
        if cone_data == "spherical":
            cone = Spherical()
        elif isinstance(cone_data, dict) and "affine" in cone_data:
            cone = Affine(vec(cone_data["affine"]))
        elif isinstance(cone_data, dict) and "truncated" in cone_data:
            cone = Truncated(_integer_entry(cone_data["truncated"]))
            if cone.depth < 0:
                raise ParseError(f"truncation depth must be >= 0, not {cone.depth}")
        else:
            raise ParseError(f"unknown cone spec {cone_data!r}")
        roots = [vec(r) for r in data["roots"]]
        seed = data.get("seed")
        seed_hint = vec(seed) if seed else None
        reduced = data.get("reduced")
        table = RootSystemTable(rank, roots, cone=cone, reduced=reduced, seed_hint=seed_hint)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidTable) as exc:
        raise ParseError(f"malformed table JSON: {exc}") from exc
    if table.seed_hint is not None:
        _check_seed(table)
    return table


def _check_seed(table: RootSystemTable) -> None:
    """A table's seed starts its chamber surveys, so it must be a generic point
    of the cone: of the table's rank, on no root hyperplane, gamma positive."""
    from .arrangement import Affine

    seed = table.seed_hint
    if len(seed) != table.rank:
        raise ParseError(f"seed {fmt_covector(seed)} does not have rank {table.rank}")
    if isinstance(table.cone, Affine) and vdot(table.cone.gamma, seed) <= 0:
        raise ParseError(
            f"seed {fmt_covector(seed)} is outside the cone of gamma = {fmt_covector(table.cone.gamma)}"
        )
    for line in table.lines:
        if vdot(line, seed) == 0:
            raise ParseError(f"seed {fmt_covector(seed)} lies on the hyperplane of {fmt_covector(line)}")


def graph_to_json(graph: CartanGraph, depth: int | None = None) -> dict:
    if graph.is_explicit:
        objects = list(graph.objects)
        truncated = graph.truncated
    else:
        if depth is None:
            depth = 8
        dist, _, closed = graph.ball(graph.base, depth)
        objects = sorted(dist, key=lambda o: (dist[o], key_to_str(o)))
        truncated = not closed
    ids = {obj: key_to_str(obj) for obj in objects}
    payload: dict[str, Any] = {
        "rank": graph.rank,
        "base": ids[graph.base] if graph.base in ids else key_to_str(graph.base),
        "objects": [
            {"id": ids[obj], "cartan": [list(row) for row in graph.matrix(obj).rows]}
            for obj in objects
        ],
        "edges": [],
    }
    for obj in objects:
        for i in range(graph.rank):
            nxt = graph.rho(i, obj)
            if nxt is not None and nxt in ids:
                payload["edges"].append({"i": i, "from": ids[obj], "to": ids[nxt]})
    if truncated:
        payload["truncated"] = True
    return payload


def graph_from_json(data: dict) -> CartanGraph:
    try:
        matrices = {
            entry["id"]: GeneralizedCartanMatrix.from_rows(entry["cartan"])
            for entry in data["objects"]
        }
        edges = {(e["from"], _integer_entry(e["i"])): e["to"] for e in data["edges"]}
        base = data.get("base") or data["objects"][0]["id"]
        undeclared = [obj for (source, _), target in edges.items() for obj in (source, target) if obj not in matrices]
        if undeclared:
            raise ParseError(f"an edge names the undeclared object {undeclared[0]!r}")
        graph = CartanGraph.explicit(matrices, edges, base, truncated=bool(data.get("truncated")))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, NonSquare) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    if graph.rank < 1:
        raise ParseError("a Cartan graph needs rank >= 1")
    for _, i in edges:
        if not 0 <= i < graph.rank:
            raise ParseError(f"edge label {i} is outside 0..{graph.rank - 1}")
    return graph


def realization_to_json(re: Realization) -> dict:
    return {
        "rank": re.rank,
        "depth": re.depth,
        "complete": re.complete,
        "objects": [
            {
                "id": key_to_str(re.canon[obj]),
                "basis": [covector_to_json(b) for b in re.bases[obj]],
            }
            for obj in re.order
        ],
        "roots": [covector_to_json(r) for r in re.table.roots],
        "certified_interior": sorted(key_to_str(re.canon[obj]) for obj in re.certified),
    }


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
