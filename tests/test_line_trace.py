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
