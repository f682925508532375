"""The statements of src/bszego that the tier-1 tests never execute.

    python tools/line_trace.py [PYTEST ARGS ...]

Runs pytest in this process (by default on ``tests``, quietly, with no
cache written) under a ``sys.settrace`` line tracer that records the lines
run in ``src/bszego/*.py``, then prints one line per AST statement of those
modules of which no line ran, as ``src/bszego/module.py:line  source``, and
their count.  pytest's own output goes to stderr, so stdout holds only the
list.  Standard library only, beyond pytest: the ``coverage`` package is not
a dependency.  A statement spans its lines, from its first decorator to its
last line, and counts as run when any of them ran; docstrings, which run no
code, are left out.  So a compound statement such as an ``if`` counts as run
when its test or anything inside it ran, and a body that never ran lists
each of its statements.

The list is a gate.  ALLOWED names, by module and by the stripped text of
its first line (line numbers drift), the statements that may go unrun;
the list marks them "(allowed)".  The exit status is pytest's when that is
non-zero, else 1 when a statement outside ALLOWED never ran or an entry
of ALLOWED names no unrun statement (a stale entry), else 0.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "bszego")
# the entry point's own exit: tests call main() in process, or run the
# module in a subprocess, which the tracer does not see
ALLOWED = frozenset({("cli.py", "sys.exit(main())")})


def statements(source):
    """(first line, last line) of every statement of a module's source,
    docstrings left out."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return sorted((min([node.lineno] + [d.lineno for d in
                                        getattr(node, "decorator_list", [])]),
                   node.end_lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and id(node) not in docstrings)


def unexecuted(source, ran):
    """The first lines of the statements of ``source`` of which no line is
    in the set ``ran``."""
    return [first for first, last in statements(source)
            if not any(line in ran for line in range(first, last + 1))]


@contextlib.contextmanager
def trace(paths):
    """Record, for each file of ``paths`` (absolute), the set of its lines
    that run inside the block: {path: set of line numbers}."""
    ran = {path: set() for path in paths}
    known = {}                   # co_filename -> its line recorder, or None

    def recorder(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            lines = ran.get(os.path.realpath(name))
            known[name] = None if lines is None else recorder(lines)
        return known[name]

    previous = sys.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield ran
    finally:
        sys.settrace(previous)
        threading.settrace(previous)


def report(paths, ran, allowed):
    """Print the unrun statements of the files ``paths`` given the lines
    ``ran`` of each ({path: set}), their count and the stale entries of
    ``allowed``; return 1 if one of them is outside ``allowed`` or one
    entry is stale, else 0."""
    unrun = []
    for path in paths:
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        for line in unexecuted(source, ran[path]):
            key = (os.path.basename(path), text[line - 1].strip())
            unrun.append(key)
            note = "  (allowed)" if key in allowed else ""
            print(f"{os.path.relpath(path, ROOT)}:{line}  {key[1]}{note}")
    outside = [key for key in unrun if key not in allowed]
    stale = allowed - set(unrun)
    for module, statement in sorted(stale):
        print(f"stale allowed entry: {module}  {statement}")
    print(f"{len(unrun)} statements of src/bszego never executed, "
          f"{len(outside)} of them not allowed; {len(stale)} stale entries")
    return int(bool(outside or stale))


def main(argv):
    import pytest

    paths = sorted(os.path.realpath(os.path.join(SRC, name))
                   for name in os.listdir(SRC) if name.endswith(".py"))
    args = argv or [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"]
    with contextlib.redirect_stdout(sys.stderr), trace(paths) as ran:
        status = int(pytest.main(args))
    gate = report(paths, ran, ALLOWED)
    return status or gate


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
