"""Statement floor: every ``src/`` statement that tier-1 never runs, against a listed few.

    python3 tools/statement_floor.py

Stdlib only, besides pytest and hypothesis, which tier-1 needs; run from anywhere. The
script runs tier-1 (``pytest -q --continue-on-collection-errors`` over ``tests/``, with
this checkout's ``src/`` first on the path) in its own process, traced by
:func:`sys.settrace` and, for the threads the lock tests start, :func:`threading.settrace`.
It then reads each statement of ``src/dukptlab/*.py`` with :mod:`ast` and counts it run
when tier-1 ran a line of its own: any line of a simple statement, the header of a
compound one (decorators to the line before its body), so a statement that shares a
line with one that ran counts as run. A module, class or function docstring is no
statement. The script prints one line per unrun statement and exits 0
only when tier-1 passes and every unrun statement is in ``UNRUN``, with its reason.

A traced line costs far more than an untraced one, so a code object is traced only until
every line it holds has run: after that its calls are not traced at all, and the
1,048,575-issue life walk stays affordable. Hypothesis's deadline is off for the run,
since tracing slows every example; the examples are tier-1's own.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dukptlab"
_UNSEEN = object()

# (module, the statement's source) -> why tier-1 does not run it
UNRUN = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: tier-1 calls cli.main in process, and CI's console-script "
        "step runs python -m dukptlab.cli",
}


class Tracer:
    """The lines run in each file under ``prefix``, as a :func:`sys.settrace` function."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.ran: defaultdict[str, set[int]] = defaultdict(set)
        self._left: dict = {}  # code object -> its lines not yet run; None when not traced

    def __call__(self, frame, event, arg):  # called on each new frame
        code = frame.f_code
        left = self._left.get(code, _UNSEEN)
        if left is _UNSEEN:
            left = self._left[code] = self._lines(code)
        if not left:
            return None
        ran = self.ran[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:  # every line has run: stop tracing this frame
                    return None
            return local

        return local

    def _lines(self, code) -> set[int] | None:
        if not code.co_filename.startswith(self.prefix):
            return None
        lines = {line for _, _, line in code.co_lines() if line}  # a module starts at 0
        if code.co_name != "<module>":
            lines.discard(code.co_firstlineno)  # the def line reports a call, not a line
        return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines a statement runs on its own: a compound statement's header alone."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if not body:
        return range(first, node.end_lineno + 1)
    return range(first, max(node.lineno, body[0].lineno - 1) + 1)


def _docstrings(tree: ast.Module) -> set[ast.stmt]:
    return {node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, source)`` of each statement in ``path`` none of whose own lines ran."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, str(path))
    skip = _docstrings(tree)
    return sorted((node.lineno, ast.get_source_segment(text, node).splitlines()[0])
                  for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in skip
                  and ran.isdisjoint(_own_lines(node)))


class _NoDeadline:
    """A pytest plugin that registers the run's hypothesis profile, before hypothesis's own
    plugin loads it (importing hypothesis any earlier would skip its assertion rewriting)."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_configure(self, config) -> None:
        from hypothesis import settings

        settings.register_profile("statement-floor", deadline=None)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # the life walk's module last, so the code it runs a million times is untraced by then
    modules = sorted(Path("tests").glob("test_*.py"),
                     key=lambda path: path.name == "test_acceptance.py")
    tracer = Tracer(str(PACKAGE) + os.sep)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--hypothesis-profile=statement-floor", *map(str, modules)],
                             plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"tier-1 failed (pytest exit status {int(status)}); no floor is read")
        return 1
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, source in unrun(path, tracer.ran[str(path)]):
            found.add((path.name, source))
            listed = "listed" if (path.name, source) in UNRUN else "NOT LISTED"
            print(f"{path.relative_to(ROOT)}:{line}: {source}  ({listed})")
    for name, source in UNRUN.keys() - found:
        print(f"src/dukptlab/{name}: {source}  (listed, but run or gone: drop it from UNRUN)")
    print(f"{len(found - UNRUN.keys())} unrun statement(s) outside the list of {len(UNRUN)}")
    return 0 if found == UNRUN.keys() else 1


if __name__ == "__main__":
    sys.exit(main())
