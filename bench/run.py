#!/usr/bin/env python3
"""Layered benchmark of weylgpd.

    python3 bench/run.py --workload f4-survey --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; weylgpd is imported from ``src/``.
A run sets up its inputs from the seed (several times, reporting the median
set-up time), then repeats whole passes of the workload's operations until
``--seconds`` have elapsed, at least one pass.  Every answer is checked.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the package's layer entry points are wrapped
from outside (see ``layertrace.py``) and the last line holds the per-layer metrics.
The line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def load_spec() -> tuple[list[str], dict, dict]:
    """Workload names and metric name -> unit, as declared in BENCHMARK.json.

    Per-layer names are "<module>.<function>.<counter>" for traced functions.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(workloads: list[str], argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_weylgpd():
    """Import weylgpd from this checkout's source, never from elsewhere."""
    if not (SRC / "weylgpd" / "__init__.py").is_file():
        sys.exit(f"bench: no weylgpd source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import weylgpd

    if Path(weylgpd.__file__).resolve().parent != (SRC / "weylgpd").resolve():
        sys.exit(f"bench: imported weylgpd from {weylgpd.__file__}, not from {SRC}")
    return weylgpd


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def main(argv=None) -> int:
    workloads, end_to_end, per_layer = load_spec()
    args = parse_args(workloads, argv)
    weylgpd = import_weylgpd()
    import workloads as wl
    from layertrace import Tracer
    from speed import SpeedSampler

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        python = wl.Interpreter(SRC, workdir)
        batch = wl.CliBatch(python)
        setup = {
            "f4-survey": wl.setup_f4_survey,
            "rank2-stream": wl.setup_rank2_stream,
            "cli-batch": lambda seed: wl.setup_cli_batch(seed, batch),
        }[args.workload]
        tracer = Tracer() if args.trace else None
        # In-process work is timed at a reference speed (see speed.py); the
        # CLI processes are timed as they are, since the probe describes this
        # interpreter and not a new process's start-up.  The traced run
        # reports no end-to-end time.
        speed = None if tracer or args.workload == "cli-batch" else SpeedSampler()
        with speed or contextlib.nullcontext():
            # Set-up: a fresh interpreter's `import weylgpd`, input generation
            # and warm-up, repeated so that its median is steady.
            setup_spans = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                python.run("-c", "import weylgpd")
                ops = setup(args.seed)
                setup_spans.append((start, time.perf_counter()))

            canary_ok = True
            if args.workload == "f4-survey":
                canary_ok = wl.f4_gate_canary()
                if not canary_ok:
                    print("bench: the f4-survey gates let aff-a1-rescaled through", file=sys.stderr)

            if tracer:
                tracer.install()
            try:
                records, passes, main_s = measure(ops, args.seconds, tracer is not None)
            finally:
                if tracer:
                    tracer.uninstall()

        attempted = len(records)
        failures = [r for r in records if r.problems and not r.op.known_defect]
        defects = [r for r in records if r.problems and r.op.known_defect]
        for r in failures[:20]:
            print(f"bench: FAILED {r.op.kind}: {'; '.join(r.problems)}", file=sys.stderr)
        for r in defects[: len(ops)]:
            print(f"bench: known defect ({r.op.known_defect}): {'; '.join(r.problems)}", file=sys.stderr)

        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "backend": weylgpd.BACKEND,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "passes": passes,
            "ops": attempted,
            "ops_by_kind": dict(sorted(Counter(r.op.kind for r in records).items())),
            "chambers_visited": sum(r.chambers for r in records),
            "known_defects": len(defects),
            "gate_canary_fired": canary_ok if args.workload == "f4-survey" else None,
        }
        if tracer:
            units = per_layer
            metrics = layer_metrics(tracer, passes, per_layer)
            if args.workload == "cli-batch":
                metrics.update(cli_metrics(python, records, main_s, passes))
            tracer.report_edges(sys.stderr)
        else:
            units = end_to_end
            elapsed = speed.scaled if speed else (lambda start, end: end - start)
            op_ms = per_op_min_ms([elapsed(r.start, r.end) for r in records], len(ops))
            metrics = {
                # As measured: it is mostly a new process's start-up, which
                # the in-process probe does not describe.
                "setup_s": statistics.median(end - start for start, end in setup_spans),
                "wall_s": sum(op_ms) / 1000,
                "op_p50_ms": percentile(op_ms, 50),
                "op_p90_ms": percentile(op_ms, 90),
                "ok_ratio": sum(1 for r in records if not r.problems) / attempted,
                "peak_rss_mb": peak_rss_mb(),
            }
        if speed:
            meta["measured_wall_s"] = sum(per_op_min_ms([r.end - r.start for r in records], len(ops))) / 1000
            meta["host_slowdown"] = speed.slowdown()
        print(json.dumps({"meta": meta}))
        result = {
            "correct": not failures and canary_ok,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


@dataclass
class Record:
    op: object
    start: float
    end: float
    problems: list
    chambers: int
    traceback: bool  # a CLI process wrote a Python traceback


def measure(ops, seconds: float, in_process_cli: bool):
    """Closed loop over whole passes of `ops` until `seconds` have elapsed.

    Returns the records, the number of passes and, when `in_process_cli`,
    the seconds spent running each CLI operation's argv through
    `weylgpd.cli.main` in this process after its subprocess.
    """
    import workloads as wl

    records = []
    main_s = 0.0
    passes = 0
    started = time.perf_counter()
    while True:
        for op in ops:
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a crash is a failed answer, never a skipped one
                result = exc
            end = time.perf_counter()
            problems, chambers = op.check(result)
            traceback = "Traceback" in getattr(result, "stderr", "")
            records.append(Record(op, start, end, problems, chambers, traceback))
            if in_process_cli and op.argv is not None:
                t0 = time.perf_counter()
                wl.run_cli_in_process(op.argv)
                main_s += time.perf_counter() - t0
        passes += 1
        if time.perf_counter() - started >= seconds:
            return records, passes, main_s


def per_op_min_ms(latencies_s: list[float], n_ops: int) -> list[float]:
    """Each operation's fastest latency over the passes, in milliseconds.

    Other tenants of the host slow this process in bursts that last seconds;
    that load only ever adds time, and a later pass often meets a quieter
    moment for the same operation.
    """
    return [min(latencies_s[i::n_ops]) * 1000 for i in range(n_ops)]


def cli_metrics(python, records, main_s: float, passes: int) -> dict:
    return {
        "cli.process_s": sum(r.end - r.start for r in records) / passes,
        "cli.import_s": python.start_s("import weylgpd") - python.start_s("pass"),
        "cli.main_s": main_s / passes,
        "cli.tracebacks": sum(r.traceback for r in records) / passes,
    }


def layer_metrics(tracer, passes: int, names) -> dict:
    """Per-pass values of the traced counters, zero where a layer was not used."""
    metrics = {}
    for name in names:
        func, _, counter = name.rpartition(".")
        if counter == "calls":
            metrics[name] = tracer.calls.get(func, 0) / passes
        elif counter == "self_s":
            metrics[name] = tracer.self_s.get(func, 0.0) / passes
        elif counter == "chambers":
            metrics[name] = tracer.chambers / passes
        else:
            metrics[name] = 0
    metrics["trace.overhead_s"] = tracer.total_calls() * tracer.per_call_overhead_s() / passes
    return metrics


if __name__ == "__main__":
    sys.exit(main())
