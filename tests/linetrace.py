"""Opt-in line tracer: the function-body lines of src/weylgpd that a test run never executes.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Runs pytest in this process (on the tests directory when no argument is
given) under a `sys.settrace` hook that records each line executed in
src/weylgpd.  It then prints every line of a function body (a function,
lambda or comprehension, nested or in a class; not the `def` line) that
never ran, as `path:line: source`, and their count.  It exits with 1 when
any such line is left, and with pytest's status otherwise.  Processes that
the tests start, such as the CLI subprocesses, are not traced.  Tracing
makes the run about three times slower.  Standard library only; the file
name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "weylgpd"


def body_lines(code, in_function: bool = False) -> set:
    """The lines of the function bodies in `code` and the code nested in it."""
    lines = set()
    is_function = bool(code.co_flags & inspect.CO_NEWLOCALS)
    if is_function or in_function:
        lines = {line for _, _, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= body_lines(const, is_function or in_function)
    return lines


def main(argv: list) -> int:
    sources = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in sources.items():
        text = path.read_text()
        lines = body_lines(compile(text, name, "exec"))
        unrun = sorted(lines - executed[name])
        total += len(lines)
        missed += len(unrun)
        source = text.splitlines()
        for line in unrun:
            print(f"{path.relative_to(TESTS.parent)}:{line}: {source[line - 1].strip()}")
    print(f"unexecuted function-body lines: {missed} of {total}")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
