"""Statement and branch trace of ``src/admmkit`` under the tier-1 tests.

Runs tier-1 in this process with a line tracer on every thread, the repeat
pool's workers included, and fails (exit 1) if a test fails, if a statement
of ``src/admmkit`` never ran, or if an ``if`` was not both entered and
skipped. Nothing is excused: code that tier-1 cannot reach goes.

A statement is a line that the compiled code attributes instructions to. An
``if``'s outcomes are read from the arcs between consecutive line events of
one frame, kept apart for each code object: it was entered when an arc leaves
its test for its body, and skipped when one leaves its test for anywhere
else, the frame's return included. Only the arcs of the code object that runs
the ``if`` itself count, the one whose lines hold both its test and its body;
a comprehension, generator expression or lambda in the test has a code object
of its own, whose return is no skip. Arcs that follow an exception are no
outcome. So an ``if`` must keep its body off its test's lines.

Under CPython 3.11 a tracer keeps frame locals alive, so the memory tests
measure their peaks with it suspended (``untraced_memory`` in ``tests/conftest.py``).

Usage, from any directory:

    python tools/branch_trace.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "admmkit"
PREFIX = str(PACKAGE) + os.sep
EXIT = 0  # arc target of a frame's return; line numbers start at 1
RAISED = -1  # arc source after an exception event


def arc_tracer(arcs: dict[str, dict[object, set[tuple[int, int]]]]):
    """A trace function that adds to ``arcs[file name][code object]`` the
    (line, next line) arcs of every frame running code of ``src/admmkit``."""
    names = {}  # code object -> its file name, None outside the package

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            name = names[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            name = names[code] = os.path.basename(path) if path.startswith(PREFIX) else None
        if name is None:
            return None
        seen = arcs.setdefault(name, {}).setdefault(code, set())
        prev = code.co_firstlineno

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                seen.add((prev, frame.f_lineno))
                prev = frame.f_lineno
            elif event == "return":
                seen.add((prev, EXIT))
            elif event == "exception":
                prev = RAISED
            return local

        return local(frame, event, arg)

    return trace


def statements(code) -> set[int]:
    """Lines that ``code`` and the code objects nested in it attribute instructions to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= statements(const)
    return lines


def findings(path: Path, arcs: dict[object, set[tuple[int, int]]]) -> list[tuple[int, str]]:
    """(line, what) of every statement of ``path`` that never ran and every
    ``if`` not taken both ways, under the arcs of each of its code objects."""
    source = path.read_text()
    ran = {line for seen in arcs.values() for _, line in seen}
    found = [(line, "never ran") for line in statements(compile(source, str(path), "exec"))
             if line not in ran]
    own = {code: {line for _, _, line in code.co_lines()} for code in arcs}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If) or node.lineno not in ran:
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
        exits = {b for code, seen in arcs.items() if node.lineno in own[code] and own[code] & body
                 for a, b in seen if a in test and b not in test}
        if not exits & body:
            found.append((node.lineno, "if never entered"))
        if not exits - body:
            found.append((node.lineno, "if never skipped"))
    return found


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    arcs = {}
    trace = arc_tracer(arcs)
    threading.settrace(trace)
    sys.settrace(trace)
    start = time.perf_counter()
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    wall = time.perf_counter() - start

    found = [f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
             for line, what in sorted(findings(path, arcs.get(path.name, {})))]
    print(f"\ntier-1 exit status {int(status)}; traced wall {wall:.1f} s")
    print(f"{len(found)} findings")
    for line in found:
        print(line)
    return 1 if status or found else 0


if __name__ == "__main__":
    sys.exit(main())
