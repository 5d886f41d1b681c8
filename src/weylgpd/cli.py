"""Command-line interface.

Exit codes: 0 success / property holds, 1 property fails, 2 input error
(an unsupported operation too), 3 budget exhausted.  WEYLGPD_BUDGET sets
the default exploration budget.

Each command imports the modules it runs when it is called, so that a
process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, InvalidCartanMatrix, NonSquare, ParseError, RootNotInSystem, Unsupported
from .errors import WeylgpdError

if TYPE_CHECKING:
    from .arrangement import RootSystemTable
    from .cartan import CartanGraph, GeneralizedCartanMatrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _default_budget() -> int:
    raw = os.environ.get("WEYLGPD_BUDGET", "").strip()
    if not raw:
        return 10_000
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"WEYLGPD_BUDGET must be an integer, not {raw!r}") from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def load_graph(spec: str) -> CartanGraph:
    from . import builtins as builtin_data
    from . import jsonio
    from .cartan import CartanGraph

    if spec in builtin_data.BUILTIN_GCMS:
        return builtin_data.builtin_graph(spec)
    data = _load_json(spec)
    if isinstance(data, list):  # bare matrix: the standard graph
        return CartanGraph.standard(_bare_matrix(data))
    return jsonio.graph_from_json(data)


def _bare_matrix(data: list) -> GeneralizedCartanMatrix:
    """The GCM of a bare matrix JSON; an empty or ragged matrix or a non-integer
    entry is bad input, and a matrix breaking (M1)/(M2) raises InvalidCartanMatrix."""
    from .cartan import GeneralizedCartanMatrix

    if not data:
        raise ParseError("the matrix is empty")
    try:
        return GeneralizedCartanMatrix.from_rows(data)
    except (TypeError, ValueError, NonSquare) as exc:
        raise ParseError(f"malformed matrix JSON: {exc}") from None


def load_table(spec: str, depth: int) -> RootSystemTable:
    from . import builtins as builtin_data
    from . import jsonio

    if spec in builtin_data.TABLE_NAMES:
        return builtin_data.builtin_table(spec, depth)
    return jsonio.table_from_json(_load_json(spec))


def _load_spanning_table(spec: str, depth: int) -> RootSystemTable:
    """A table for a chamber survey: its roots must span, or it has no chambers."""
    from .arrangement import is_nondegenerate

    table = load_table(spec, depth)
    if not is_nondegenerate(table):
        raise ParseError(f"the roots of {spec} do not span Q^{table.rank}; the table has no chambers")
    return table


def _parse_covector(text: str, rank: int) -> tuple:
    """Comma-separated rationals ("1/2,-1,0"), exactly `rank` of them."""
    from .exactlin import vec

    try:
        covector = vec(part.strip() for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"malformed covector {text!r}: {exc}") from None
    if len(covector) != rank:
        raise ParseError(f"{text!r} has {len(covector)} entries; the table has rank {rank}")
    return covector


def _emit(payload, fmt: str, table_lines=None) -> None:
    from .jsonio import dumps

    if fmt == "json":
        print(dumps(payload))
    else:
        for line in table_lines or [dumps(payload)]:
            print(line)


def _pair_table_lines(covectors) -> list[str]:
    """One line per +/- pair of nonzero covectors, the representative with
    first nonzero entry positive, sorted."""
    from ._rational import fmt_covector
    from .exactlin import line_key

    return ["+-" + fmt_covector(rep) for rep in sorted({line_key(cov) for cov in covectors})]


def cmd_validate(args) -> int:
    from . import builtins as builtin_data
    from . import jsonio

    if args.input in builtin_data.BUILTIN_GCMS:
        data = [list(r) for r in builtin_data.BUILTIN_GCMS[args.input]]
    else:
        data = _load_json(args.input)
    if isinstance(data, list):
        try:
            _bare_matrix(data)
            violations = []
        except InvalidCartanMatrix as exc:
            violations = exc.violations
        payload = {
            "kind": "gcm",
            "valid": not violations,
            "violations": [str(v) for v in violations],
        }
        _emit(payload, args.format, [
            f"gcm: {'invalid' if violations else 'valid'}",
            *[f"  {v}" for v in violations],
        ])
        return EXIT_FAIL if violations else EXIT_OK
    if isinstance(data, dict) and "objects" in data:
        graph = jsonio.graph_from_json(data)  # construction enforces (C1)(C2) and (M1)(M2)
        payload = {"kind": "graph", "valid": True, "objects": len(graph.objects)}
        _emit(payload, args.format, [f"graph: valid, {len(graph.objects)} objects"])
        return EXIT_OK
    if isinstance(data, dict) and "roots" in data:
        table = jsonio.table_from_json(data)
        payload = {
            "kind": "table",
            "valid": True,
            "roots": len(table.roots),
            "reduced": table.reduced,
        }
        _emit(payload, args.format, [f"table: valid, {len(table.roots)} roots"])
        return EXIT_OK
    raise ParseError("input is neither a matrix, a graph, nor a table")


def cmd_roots(args) -> int:
    from . import jsonio
    from .cartan import generate_real_roots

    graph = load_graph(args.input)
    rrs = generate_real_roots(graph, graph.base, args.depth)
    payload = {
        "depth": rrs.depth,
        "complete": rrs.complete,
        "objects": [
            {
                "id": jsonio.key_to_str(obj),
                "roots": sorted([list(map(int, v)) for v in roots]),
            }
            for obj, roots in sorted(rrs.roots.items(), key=lambda kv: jsonio.key_to_str(kv[0]))
        ],
    }
    lines = [f"complete: {rrs.complete}"]
    for entry in payload["objects"]:
        lines.append(f"{entry['id']}: {entry['roots']}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_realize(args) -> int:
    from . import jsonio
    from ._rational import fmt_covector
    from .realization import realize

    graph = load_graph(args.input)
    re = realize(graph, depth=args.depth)
    payload = jsonio.realization_to_json(re)
    lines = [f"objects: {len(re.order)}  complete: {re.complete}"]
    for obj in re.order:
        basis = ", ".join(map(fmt_covector, re.bases[obj]))
        lines.append(f"B[{jsonio.key_to_str(re.canon[obj])}] = {{ {basis} }}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    from .arrangement import check_additive, check_crystallographic, check_k_spherical

    table = _load_spanning_table(args.input, args.depth)
    if args.property == "cryst":
        report = check_crystallographic(table, args.budget)
    elif args.property == "additive":
        report = check_additive(table, args.budget)
    else:  # k-spherical, the last of the parser's choices
        if not 0 <= args.k <= table.rank:
            raise ParseError(f"--k must be between 0 and the rank {table.rank}, not {args.k}")
        report = check_k_spherical(table, args.k, args.budget)
    payload = report.to_json()
    lines = [f"{payload['check']}: {payload['status']}"]
    if report.witnesses:
        lines.append(f"witness: {report.first_witness}")
    _emit(payload, args.format, lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_restrict(args) -> int:
    from . import jsonio
    from .subarr import double_restriction, restrict

    table = load_table(args.input, args.depth)
    if not args.root:
        raise ParseError("at least one --root is required")
    roots = [_parse_covector(r, table.rank) for r in args.root]
    if len(roots) > 2:
        raise ParseError("at most two --root arguments are supported")
    try:  # a covector that is not a root, or does not survive the first restriction
        rst = restrict(table, roots[0]) if len(roots) == 1 else double_restriction(table, *roots)
    except RootNotInSystem as exc:
        raise ParseError(str(exc)) from None
    ambient = sorted(rst.ambient_table(reduced=False))
    ambient_reduced = sorted(rst.ambient_table(reduced=True))
    payload = {
        "rank": rst.rank,
        "ambient": [jsonio.covector_to_json(r) for r in ambient],
        "ambient_reduced": [jsonio.covector_to_json(r) for r in ambient_reduced],
        "intrinsic": jsonio.table_to_json(rst.table),
        "intrinsic_reduced": jsonio.table_to_json(rst.reduced_table),
    }
    lines = [f"restricted rank: {rst.rank}", "ambient +- pairs:"]
    lines += ["  " + line for line in _pair_table_lines(ambient)]
    lines.append("reduced +- pairs:")
    lines += ["  " + line for line in _pair_table_lines(ambient_reduced)]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_localize(args) -> int:
    from . import jsonio
    from .subarr import localize

    table = load_table(args.input, args.depth)
    point = _parse_covector(args.point, table.rank)
    loc = localize(table, point)
    payload = {
        "point": jsonio.covector_to_json(point),
        "empty": loc.empty,
        "roots": [jsonio.covector_to_json(r) for r in loc.roots],
        "quotient_rank": loc.quotient_rank,
    }
    lines = [f"localized roots: {len(loc.roots)} (quotient rank {loc.quotient_rank})"]
    lines += ["  " + line for line in _pair_table_lines(loc.roots)]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_extract_graph(args) -> int:
    from . import jsonio
    from .arrangement import extract_cartan_graph

    table = _load_spanning_table(args.input, args.depth)
    result = extract_cartan_graph(table, budget=args.budget)
    payload = jsonio.graph_to_json(result.graph)
    lines = [f"objects: {len(result.graph.objects)}"]
    for obj in result.graph.objects:
        lines.append(f"{jsonio.key_to_str(obj)}: {result.graph.matrix(obj).rows}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    from .realization import roundtrip_check

    graph = load_graph(args.input)
    report = roundtrip_check(graph, depth=args.depth, budget=args.budget)
    payload = {
        "status": report.status,
        "objects_compared": report.objects_compared,
        "mismatches": list(report.mismatches),
    }
    _emit(payload, args.format, [
        f"roundtrip: {report.status} ({report.objects_compared} objects compared)",
        *[f"  {m}" for m in report.mismatches],
    ])
    return EXIT_OK if report.equivalent else EXIT_FAIL


def cmd_identify_rank2(args) -> int:
    from .subarr import identify_rank2

    table = _load_spanning_table(args.input, args.depth)
    result = identify_rank2(table)
    payload = {"label": result.label, "signature": list(result.signature)}
    _emit(payload, args.format, [f"label: {result.label or 'unclassified'}  signature: {result.signature}"])
    return EXIT_OK if result.classified else EXIT_FAIL


def cmd_f4_demo(args) -> int:
    from . import builtins as builtin_data
    from . import jsonio
    from .subarr import double_restriction, identify_rank2

    table = builtin_data.f4_table()
    simple = builtin_data.F4_SIMPLE_ROOTS
    results = {}
    lines = []
    for i, j in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        rst = double_restriction(table, simple[i - 1], simple[j - 1])
        ambient = sorted(rst.ambient_table(reduced=False))
        label = identify_rank2(rst.reduced_table)
        name = f"pi_{i}{j}"
        results[name] = {
            "ambient": [jsonio.covector_to_json(r) for r in ambient],
            "label": label.label,
            "signature": list(label.signature),
        }
        lines.append(f"{name}  ({len(ambient) // 2} pairs)  ->  {label.label or 'unclassified'}")
        lines += ["  " + line for line in _pair_table_lines(ambient)]
    _emit(results, args.format, lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ParseError, so that `main` reports them
    in one `input error:` line; argparse itself prints the usage, then the error."""

    def error(self, message):
        raise ParseError(message)


def _join_option_values(argv: list[str]) -> list[str]:
    """`--root -1,0` as `--root=-1,0`: argparse takes a separate value that
    starts with "-" for an option, and covectors and points may start with one."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--root", "--point"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylgpd",
        description="Cartan graphs, root systems, and exact chamber geometry",
    )
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--depth", type=int, default=8, help="generation depth")
    parser.add_argument(
        "--budget", type=int, help="exploration budget (default: WEYLGPD_BUDGET, else 10000)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a matrix, graph, or table")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roots", help="real roots of a Cartan graph")
    p.add_argument("input")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("realize", help="geometric realization of a Cartan graph")
    p.add_argument("input")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("check", help="check a table property")
    p.add_argument("input")
    p.add_argument("--property", choices=("cryst", "additive", "k-spherical"), required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("restrict", help="restrict a table to root hyperplanes")
    p.add_argument("input")
    p.add_argument("--root", action="append", default=[], help="covector, e.g. '0,1,-1,0'")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("localize", help="parabolic subtable at a point")
    p.add_argument("input")
    p.add_argument("--point", required=True, help="vector, e.g. '1,1,0,0'")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("extract-graph", help="Cartan graph of a table's chambers")
    p.add_argument("input")
    p.set_defaults(func=cmd_extract_graph)

    p = sub.add_parser("roundtrip", help="realize then re-extract and compare")
    p.add_argument("input")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("identify-rank2", help="classify a rank-2 table")
    p.add_argument("input")
    p.set_defaults(func=cmd_identify_rank2)

    p = sub.add_parser("f4-demo", help="all six double restrictions of the f4 table")
    p.set_defaults(func=cmd_f4_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
        source = "WEYLGPD_BUDGET" if args.budget is None else "--budget"
        if args.budget is None:
            args.budget = _default_budget()
        if args.budget < 0:
            raise ParseError(f"{source} must be >= 0, not {args.budget}")
        if args.depth < 0:
            raise ParseError(f"--depth must be >= 0, not {args.depth}")
        return args.func(args)
    except (ParseError, Unsupported) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WeylgpdError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
