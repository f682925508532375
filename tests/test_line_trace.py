"""tools/line_trace.py's statement spans and tracer on a small module."""

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_trace.py"
_spec = importlib.util.spec_from_file_location("line_trace", TOOL)
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

SOURCE = '''"""A module docstring runs no code."""
import functools


@functools.lru_cache
def f(x):
    """Nor does a function's."""
    if x:
        return (1 +
                x)
    return 2


class C:
    """Nor a class's."""
    y = f(1)
'''


def test_statements_span_their_decorators_and_skip_docstrings():
    assert line_trace.statements(SOURCE) == [
        (2, 2), (5, 11), (8, 10), (9, 10), (11, 11), (14, 16), (16, 16)]


def test_unexecuted_statements_of_a_traced_module(tmp_path):
    # f runs once, with a true x: only "return 2" never runs
    path = os.path.realpath(tmp_path / "toy.py")
    with line_trace.trace([path]) as ran:
        exec(compile(SOURCE, path, "exec"), {})
    assert line_trace.unexecuted(SOURCE, ran[path]) == [11]
    # a statement that ran on any of its lines counts as run, and so does
    # the def around it
    assert line_trace.unexecuted(SOURCE, {1, 10}) == [2, 11, 14, 16]


def test_the_gate_fails_on_an_unrun_statement_or_a_stale_entry(tmp_path, capsys):
    # f runs with a true x, so "return 2" never runs: outside the allowed
    # entries it fails the gate, allowed it passes, and an allowed entry that
    # names no unrun statement is stale and fails it again
    path = tmp_path / "toy.py"
    path.write_text(SOURCE)
    path = os.path.realpath(path)
    with line_trace.trace([path]) as ran:
        exec(compile(SOURCE, path, "exec"), {})
    unrun = ("toy.py", "return 2")
    assert line_trace.report([path], ran, frozenset()) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 statements of src/bszego never executed, 1 of them not allowed; "
        "0 stale entries")
    assert line_trace.report([path], ran, frozenset({unrun})) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(":11  return 2  (allowed)")
    for stale in (("toy.py", "y = f(1)"), ("cli.py", "sys.exit(main())")):
        assert line_trace.report([path], ran, frozenset({unrun, stale})) == 1
        assert f"stale allowed entry: {stale[0]}  {stale[1]}" in capsys.readouterr().out


def test_each_allowed_entry_is_a_statement_of_its_module():
    for module, statement in line_trace.ALLOWED:
        source = (Path(line_trace.SRC) / module).read_text()
        text = source.splitlines()
        assert statement in {text[first - 1].strip()
                             for first, _ in line_trace.statements(source)}
