"""The benchmark's workloads: seeded inputs, operations and correctness gates.

Every workload is a closed loop with one client and no threads: the next
operation starts when the previous one has returned.  ``setup(seed)`` makes
the inputs of one pass from the seed alone and returns its operations; each
operation's ``run`` does the timed work and its ``check`` returns the list of
ways the answer is wrong (empty when it is right).

Fresh state per run: timed operations never go through the LRU-cached
``builtins.builtin_table``, and never reuse a ``RootSystemTable`` built outside
the timed section, because the table's ``_coords_cache`` would carry over
chamber coordinates.  ``scripts/bench_rational.py`` has that flaw: its repeats
call ``builtin_table("b3")`` and so time a warm cache, not what a user pays.
Tables here are built from generated JSON or from constructors inside ``run``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from weylgpd import arrangement, builtins, jsonio, realization, subarr


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # Returns (problems, chambers visited); an exception from run is passed in.
    check: Callable[[object], tuple[list[str], int]]
    # Set for inputs that violate the CLI contract today (ROADMAP item 4); a
    # failed gate on such an input is counted as a known defect, not hidden.
    known_defect: str | None = None
    argv: tuple | None = None


def _failed(result) -> list[str] | None:
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    return None


# ---------------------------------------------------------------------------
# F4: the 48 roots, generated here rather than taken from weylgpd.builtins.

F4_GCM = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
F4_ROOTS = 48
F4_CHAMBERS = 1152
F4_SIMPLE = ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), ("1/2", "-1/2", "-1/2", "-1/2"))


def f4_roots() -> list[tuple[Fraction, ...]]:
    roots = set()
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0, 0, 0, 0]
            v[i], v[j] = si, sj
            roots.add(tuple(Fraction(c) for c in v))
    for i, s in itertools.product(range(4), (1, -1)):
        v = [0, 0, 0, 0]
        v[i] = s
        roots.add(tuple(Fraction(c) for c in v))
    for signs in itertools.product((1, -1), repeat=4):
        roots.add(tuple(Fraction(s, 2) for s in signs))
    return sorted(roots)


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _permuted_matrices(rows) -> frozenset:
    n = len(rows)
    return frozenset(
        tuple(tuple(rows[p[i]][p[j]] for j in range(n)) for i in range(n))
        for p in itertools.permutations(range(n))
    )


F4_FORMS = _permuted_matrices(F4_GCM)


def generic_point(rng: random.Random, roots) -> tuple[Fraction, ...]:
    """A seeded point on no root hyperplane."""
    while True:
        x = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(4))
        if all(_dot(r, x) != 0 for r in roots):
            return x


def survey_ops(data: dict) -> list[Op]:
    """Build one table from JSON, then check cryst, additivity and extract.

    The three analyses each run their own chamber BFS today; a survey shared
    per table (ROADMAP item 3) shows as fewer BFS calls here.
    """
    state: dict = {}

    def build():
        state["table"] = jsonio.table_from_json(data)
        return state["table"]

    def check_build(table):
        problems = _failed(table)
        if problems:
            return problems, 0
        if len(table.roots) != F4_ROOTS:
            return [f"{len(table.roots)} roots, expected {F4_ROOTS}"], 0
        return [], 0

    def report_check(name):
        def check(report):
            problems = _failed(report)
            if problems:
                return problems, 0
            out = []
            if not report.passed:
                out.append(f"{name} check failed: {report.first_witness}")
            if report.chambers_visited != F4_CHAMBERS:
                out.append(f"{name}: {report.chambers_visited} chambers, expected {F4_CHAMBERS}")
            return out, report.chambers_visited
        return check

    def check_extract(result):
        problems = _failed(result)
        if problems:
            return problems, 0
        graph = result.graph
        out = []
        if len(graph.objects) != F4_CHAMBERS:
            out.append(f"extracted {len(graph.objects)} objects, expected {F4_CHAMBERS}")
        if graph.truncated:
            out.append("extracted graph is truncated")
        bad = [o for o in graph.objects if graph.matrix(o).rows not in F4_FORMS]
        if bad:
            out.append(f"{len(bad)} objects with a Cartan matrix other than the expected one")
        short = [k for k, phi in result.root_sets.items() if len(phi) != F4_ROOTS]
        if short:
            out.append(f"{len(short)} objects with a root set of the wrong size")
        return out, len(result.atlas.order)

    return [
        Op("build-table", build, check_build),
        Op("cryst", lambda: arrangement.check_crystallographic(state["table"]), report_check("crystallographic")),
        Op("additive", lambda: arrangement.check_additive(state["table"]), report_check("additive")),
        Op("extract", lambda: arrangement.extract_cartan_graph(state["table"]), check_extract),
    ]


def setup_f4_survey(seed: int) -> list[Op]:
    rng = random.Random(seed)
    roots = f4_roots()
    point = generic_point(rng, roots)
    data = {
        "rank": 4,
        "cone": "spherical",
        "roots": [[str(c) for c in r] for r in roots],
        "seed": [str(c) for c in point],
    }
    return survey_ops(data)


def f4_gate_canary() -> bool:
    """The f4-survey gates, run on aff-a1-rescaled, must report its failure.

    The rescaled affine table is not crystallographic, so a gate that lets it
    through would let a wrong F4 answer through too.
    """
    data = jsonio.table_to_json(builtins.affine_a1_table(8, rescaled=True))
    ops = survey_ops(data)
    flagged = {}
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:  # the gate must see the failure, whatever it is
            result = exc
        flagged[op.kind] = bool(op.check(result)[0])
    return flagged["cryst"] and flagged["extract"]


# ---------------------------------------------------------------------------
# Rank-2 corpus: quiddity cycles of triangulated polygons (Cuntz-Heckenberger).

RANK2_SIZES = range(3, 13)
RANK2_PER_SIZE = 20


def quiddity(rng: random.Random, n: int) -> tuple[int, ...]:
    """Quiddity cycle of a random triangulated n-gon, by ear insertion from (1,1,1)."""
    q = [1, 1, 1]
    while len(q) < n:
        i = rng.randrange(len(q))
        q[i] += 1
        q[(i + 1) % len(q)] += 1
        q.insert(i + 1, 1)
    return tuple(q)


def rank2_op(q: tuple[int, ...]) -> Op:
    seq = q * 2
    n = len(q)
    depth = 2 * n
    expected = subarr.canonical_cycle(seq)

    def run():
        graph = subarr.rank2_graph_from_edge_sequence(seq)
        re = realization.realize(graph, depth=depth)
        report = realization.roundtrip_check(graph, depth=depth)
        ident = subarr.identify_rank2(re.table)
        return re, report, ident

    def check(result):
        problems = _failed(result)
        if problems:
            return problems, 0
        re, report, ident = result
        out = []
        if not re.complete or len(re.order) != 2 * n:
            out.append(f"q={q}: realization complete={re.complete} with {len(re.order)} chambers, expected {2 * n}")
        if not report.equivalent:
            out.append(f"q={q}: round trip not equivalent: {report.mismatches[:2]}")
        if ident.signature != expected:
            out.append(f"q={q}: signature {ident.signature}, expected {expected}")
        return out, len(re.order)

    return Op(f"rank2-n{n}", run, check)


def setup_rank2_stream(seed: int) -> list[Op]:
    rng = random.Random(seed)
    sizes = [n for n in RANK2_SIZES for _ in range(RANK2_PER_SIZE)]
    rng.shuffle(sizes)
    ops = [rank2_op(quiddity(rng, n)) for n in sizes]
    # Warm-up paid once per process by every user of identify_rank2.
    subarr.rank2_reference_signatures.cache_clear()
    subarr.rank2_reference_signatures()
    return ops


# ---------------------------------------------------------------------------
# CLI batch: one `python -m weylgpd.cli` process per operation.


@dataclass
class CliCase:
    argv: tuple
    code: int
    stdout_has: str = ""
    known_defect: str | None = None


class Interpreter:
    """Fresh `python` processes that import weylgpd from the checkout's source."""

    def __init__(self, src: Path, cwd: Path):
        self.cwd = cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), self.env.get("PYTHONPATH")) if p)

    def run(self, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def start_s(self, code: str, repeats: int = 5) -> float:
        """Median wall time of a fresh interpreter running `code`."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run("-c", code)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class CliBatch:
    """Seeded mix of CLI invocations with a fixed composition per kind.

    The composition is fixed so that every seed runs the same amount of each
    kind of work; the seed picks the parameters (builtins, depths, covectors,
    points, generated rank-2 tables) and the order.  Input files are written
    to the interpreter's working directory.
    """

    def __init__(self, python: Interpreter):
        self.python = python

    def write(self, name: str, payload) -> str:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (self.python.cwd / name).write_text(text, encoding="utf-8")
        return name

    def cases(self, rng: random.Random) -> list[CliCase]:
        refs = subarr.rank2_reference_signatures()
        f4 = f4_roots()
        cases: list[CliCase] = []
        add = cases.append

        rank2 = []
        for k in range(14):
            q = quiddity(rng, rng.randint(3, 9))
            graph = subarr.rank2_graph_from_edge_sequence(q * 2)
            re = realization.realize(graph, depth=4 * len(q))
            table_file = self.write(f"rank2_table_{k}.json", jsonio.table_to_json(re.table))
            graph_file = self.write(f"rank2_graph_{k}.json", jsonio.graph_to_json(graph))
            rank2.append((q, table_file, graph_file))

        finite_sizes = {"a2": 6, "b2": 8, "g2": 12, "a3": 24}
        for _ in range(6):
            name = rng.choice(("a2", "b2", "g2", "a3", "b3", "f4"))
            add(CliCase(("validate", name), 0, "gcm: valid"))
        for q, table_file, graph_file in rng.sample(rank2, 2):
            add(CliCase(("validate", table_file), 0, f"table: valid, {2 * len(q)} roots"))
            add(CliCase(("validate", graph_file), 0, f"graph: valid, {2 * len(q)} objects"))

        for _ in range(6):
            name = rng.choice(("a2", "b2", "g2", "a3", "b3"))
            add(CliCase(("--depth", "16", "roots", name), 0, "complete: True"))
        for _ in range(2):
            add(CliCase(("--depth", str(rng.randint(4, 12)), "roots", "aff-a1"), 0, "complete: False"))

        for _ in range(4):
            name = rng.choice(sorted(finite_sizes))
            add(CliCase(("--depth", "16", "realize", name), 0, f"objects: {finite_sizes[name]}  complete: True"))
        for q, _, graph_file in rng.sample(rank2, 2):
            add(CliCase(("--depth", str(2 * len(q)), "realize", graph_file), 0, f"objects: {2 * len(q)}  complete: True"))
        for _ in range(2):
            add(CliCase(("--depth", str(rng.randint(6, 16)), "realize", "aff-a1"), 0, "complete: False"))

        add(CliCase(("check", "b3", "--property", rng.choice(("cryst", "additive"))), 0, ": pass"))
        for _ in range(4):
            add(CliCase(("--depth", str(rng.randint(3, 8)), "check", "aff-a1", "--property", "cryst"), 0, "crystallographic: pass"))
        for _ in range(3):
            add(CliCase(("--depth", str(rng.randint(3, 8)), "check", "aff-a1", "--property", "additive"), 1, "additive: fail"))
        for _ in range(3):
            add(CliCase(("--depth", str(rng.randint(3, 8)), "check", "aff-a1-rescaled", "--property", "cryst"), 1, "crystallographic: fail"))
        q, table_file, _ = rng.choice(rank2)
        add(CliCase(("check", table_file, "--property", "cryst"), 0, "crystallographic: pass"))

        for _ in range(8):
            root = ",".join(str(c) for c in rng.choice(f4))
            add(CliCase(("restrict", "f4", f"--root={root}"), 0, "restricted rank: 3"))
        for i, j in rng.sample(list(itertools.combinations(range(4), 2)), 2):
            a, b = (",".join(str(c) for c in F4_SIMPLE[k]) for k in (i, j))
            add(CliCase(("restrict", "f4", f"--root={a}", f"--root={b}"), 0, "restricted rank: 2"))

        for _ in range(10):
            point = tuple(rng.randint(-2, 2) for _ in range(4))
            vanishing = sum(1 for r in f4 if _dot(r, point) == 0)
            argv = ("localize", "f4", "--point=" + ",".join(map(str, point)))
            add(CliCase(argv, 0, f"localized roots: {vanishing} "))

        for q, table_file, _ in rng.choices(rank2, k=12):
            signature = subarr.canonical_cycle(q * 2)
            code = 0 if signature in refs else 1
            add(CliCase(("identify-rank2", table_file), code, f"signature: {signature}"))
        for q, table_file, _ in rng.choices(rank2, k=8):
            add(CliCase(("extract-graph", table_file), 0, f"objects: {2 * len(q)}\n"))

        for _ in range(3):
            add(CliCase(("roundtrip", "g2"), 0, "roundtrip: pass"))
        for _ in range(2):
            add(CliCase(("f4-demo",), 0, "pi_34"))

        bad = {
            "bad_json.json": "{not json",
            "bad_graph.json": {"rank": 2, "objects": [{"id": "0", "cartan": [[2, -1], [-1, 2]]}]},
            "bad_table_keys.json": {"rank": 2},
            "bad_table_float.json": {"rank": 2, "roots": [[0.5, 1], [-0.5, -1]]},
            "bad_table_text.json": {"rank": 2, "roots": [["x", "1"], ["-x", "-1"]]},
            "bad_table_list.json": [["1", "0"], ["0", "1"]],
            "bad_kind.json": {"something": 1},
        }
        files = {name: self.write(name, payload) for name, payload in bad.items()}
        for argv in (
            ("validate", files["bad_json.json"]),
            ("validate", "missing-input.json"),
            ("validate", files["bad_kind.json"]),
            ("roots", files["bad_graph.json"]),
            ("check", files["bad_table_keys.json"], "--property", "cryst"),
            ("check", files["bad_table_float.json"], "--property", "cryst"),
            ("validate", files["bad_table_text.json"]),
            ("extract-graph", files["bad_table_list.json"]),
            ("check", "e9", "--property", "cryst"),
            ("restrict", "f4"),
            ("restrict", "f4", "--root", "1,0,0,0", "--root", "0,1,0,0", "--root", "0,0,1,0"),
            ("no-such-command",),
            ("--depth", "deep", "roots", "a2"),
            ("check", "b3", "--property", "nonsense"),
        ):
            add(CliCase(argv, 2))

        # Known crashes (ROADMAP item 4): the contract says exit 2, today they
        # exit 1 with a traceback.  They stay in the mix and show in ok_ratio.
        n = rng.randint(1, 9)
        zero_den = {"rank": 2, "roots": [[f"{n}/0", "1"], [f"-{n}/0", "-1"]]}
        add(CliCase(("validate", self.write("zero_den.json", zero_den)), 2, known_defect="'p/0' in table JSON"))
        add(CliCase(("restrict", "f4", "--root", f"{n}.5,0,0,0"), 2, known_defect="decimal covector"))
        add(CliCase(("localize", "a2", "--point", ",".join(str(rng.randint(1, 9)) for _ in range(3))), 2, known_defect="point of the wrong rank"))

        rng.shuffle(cases)
        return cases

    def op(self, case: CliCase) -> Op:
        def run():
            return self.python.run("-m", "weylgpd.cli", *case.argv)

        def check(proc):
            problems = _failed(proc)
            if problems:
                return problems, 0
            out = []
            if proc.returncode != case.code:
                out.append(f"{' '.join(case.argv)}: exit {proc.returncode}, expected {case.code}")
            if "Traceback" in proc.stderr:
                out.append(f"{' '.join(case.argv)}: traceback on stderr")
            if case.stdout_has and case.stdout_has not in proc.stdout:
                out.append(f"{' '.join(case.argv)}: stdout lacks {case.stdout_has!r}")
            return out, 0

        return Op(case.argv[0] if not case.argv[0].startswith("-") else case.argv[2], run, check,
                  known_defect=case.known_defect, argv=case.argv)


def setup_cli_batch(seed: int, batch: CliBatch) -> list[Op]:
    rng = random.Random(seed)
    subarr.rank2_reference_signatures.cache_clear()
    ops = [batch.op(case) for case in batch.cases(rng)]
    # Compile the CLI modules' bytecode once, as an installed package would.
    batch.python.run("-m", "weylgpd.cli", "--help")
    return ops


def run_cli_in_process(argv: tuple) -> None:
    """weylgpd.cli.main(argv) in this process, with the caches a new process
    would start with; output and failures are discarded (the subprocess run
    of the same argv is the one that is checked)."""
    from weylgpd import cli

    builtins.builtin_table.cache_clear()
    subarr.rank2_reference_signatures.cache_clear()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main(list(argv))
        except (SystemExit, Exception):  # argparse exits and the known crashes
            pass
