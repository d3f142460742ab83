"""Statements of ``src/facet`` that no in-process test runs.

Usage, from the root of a checkout:

    python3 tests/unreached.py [pytest arguments]

Runs the suite in this process (``pytest -q -p no:cacheprovider tests``
plus any arguments given) under a ``sys.settrace`` tracer that records
every line executed in a module of ``src/facet``.  Then it parses each
module and prints, as ``file:line  text``, every statement none of whose
own lines ran; a compound statement's own lines are its header, up to
its first nested statement.  Docstrings and ``global``/``nonlocal``
declarations run no code and are skipped.  Code run in a child process
(a CLI test that starts ``python -m facet``) is not seen.

Under this tracer the whole suite passes on Python 3.11.  The one test
that a tracer can make fail is
``tests/test_cli.py::TestJsonWriter::test_leaves_no_reference_cycle``:
it asserts that ``gc.collect()`` finds nothing, so a tracer that leaves
frames or its own records in reference cycles fails it, while the
writer it tests is sound.

Exits 1 if some statement is unreached, else 0; pytest's own verdict is
printed but does not change the exit code.  Tracing slows the suite
several times over.  Standard library only (pytest is imported to run
the suite); pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "facet"


def _trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per module file name."""
    seen: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = Path(name).resolve().parent == SRC
            if mine:
                seen.setdefault(name, set())
        return local if mine else None

    import pytest

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file: dict[str, set[int]] = {}
    for name, lines in seen.items():
        by_file.setdefault(Path(name).resolve().name, set()).update(lines)
    return int(code), by_file


_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _nested(node: ast.AST) -> list[ast.AST]:
    """The statements, handlers and cases directly inside ``node``; an
    expression's ``body`` (a lambda's, a conditional's) is no block."""
    return [
        s for field in _BLOCKS
        if isinstance(block := getattr(node, field, None), list)
        for s in block
    ]


def _statements(node: ast.AST):
    """Each statement under ``node`` that runs code, with the lines of its
    own part: its decorators and its header, up to its first nested
    statement.  The body of an ``if __name__ == "__main__":`` runs only
    in a script, never in process, so it is left out."""
    block = _nested(node)
    for stmt in block:
        if isinstance(stmt, ast.stmt) and not (
            isinstance(stmt, (ast.Global, ast.Nonlocal))
            or (stmt is block[0] and _is_docstring(stmt))
        ):
            inner = [s.lineno for s in _nested(stmt)]
            last = min(inner) - 1 if inner else stmt.end_lineno
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            yield stmt, range(first, max(first, last) + 1)
        main_guard = isinstance(stmt, ast.If) and (
            ast.unparse(stmt.test) == "__name__ == '__main__'"
        )
        if not main_guard:
            yield from _statements(stmt)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def main(argv: list[str]) -> int:
    code, ran = _trace_suite(argv)
    print(f"pytest exit code {code}")
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        hit = ran.get(path.name, set())
        for stmt, own in sorted(_statements(ast.parse(text)), key=lambda x: x[0].lineno):
            if hit.isdisjoint(own):
                missed += 1
                print(f"{path.name}:{stmt.lineno}  {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} statements unreached")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
