"""The README's library sketch runs against the current API, its flag
table lists the parser's flags, and results are immutable as it says."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import bszego as B
from test_options import cli_flags

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library sketch'"
    exec(compile(block.group(1), str(README), "exec"), {})


def flag_table():
    """(subcommand, flag) for each flag the README's flag table names: the
    subcommands in a row's first cell, the flags in its second."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Optional flags follow the subcommand", 1)[1]
    rows = re.findall(r"^\|(.*?)\|(.*?)\|$", section.split("\n\n")[1], re.M)
    assert rows, "no table after 'Optional flags follow the subcommand'"
    return [(name, flag) for names, flags in rows
            for name in re.findall(r"`([a-z]+)`", names)
            for flag in re.findall(r"`(--[a-z-]+)", flags)]


def test_flag_table_matches_the_parser():
    # a flag added to or dropped from a subcommand is a README edit too
    assert sorted(set(flag_table())) == sorted(cli_flags())


def _array_fields(obj, name):
    """(name, array) of each array field of a dataclass result and of the
    dataclasses it holds; every field on the way refuses a new value."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, value)
        if isinstance(value, np.ndarray):
            yield f"{name}.{field.name}", value
        elif dataclasses.is_dataclass(value):
            yield from _array_fields(value, f"{name}.{field.name}")


def test_result_arrays_refuse_assignment(p_2zw, table_2zw):
    # "All values are immutable after construction": no array a result
    # carries can be written in place
    table = table_2zw.window(1, 1)
    space = B.MomentSpace(table, 1, 1)
    pencil = B.BiPoly([[0, -1], [1, 0]])
    results = {"DetRep": B.build_detrep(pencil),
               "GeometryReport": B.check_gdv_geometry(pencil),
               "ShiftOperators": B.build_operators(space),
               "ArSolution": B.solve_ar(table, 1, 1),
               "SosCertificate": B.certificate_closed_face(p_2zw),
               "BiPoly": p_2zw, "MomentTable": table,
               "SubspaceBasis": space.basis("E1", 0, 1)}
    arrays = dict(pair for name, result in results.items()
                  for pair in _array_fields(result, name))
    assert {"DetRep.u", "ShiftOperators.a_mat", "ShiftOperators.b_mat",
            "ShiftOperators.t_mat", "ShiftOperators.e1.coeffs",
            "ArSolution.coefficients.coeffs", "SosCertificate.a",
            "SosCertificate.b", "SosCertificate.c", "BiPoly.coeffs",
            "MomentTable.c", "SubspaceBasis.coeffs"} <= set(arrays)
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
