"""The JSON layer: number leaves in coefficient grids, and dumps' layout."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bszego import BiPoly, MomentTable
from bszego.jsonio import (dumps, poly_from_json, poly_to_json,
                           table_from_json, table_to_json)


def test_numpy_float_leaves_load():
    # documents whose leaves are numpy float64, as a caller building them
    # from arrays may write, load as they are, before any round trip
    # through text
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    doc = {"deg": [2, 1], "coeffs": [[[v.real, v.imag] for v in row] for row in c]}
    assert type(doc["coeffs"][0][0][0]) is np.float64
    assert np.array_equal(poly_from_json(doc).coeffs, c)
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = {"jmax": 1, "kmax": 1, "c": [[[v.real, v.imag] for v in row] for row in t]}
    assert type(doc["c"][0][0][0]) is np.float64
    assert np.array_equal(table_from_json(doc).c, MomentTable(1, 1, t).c)


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


leaves = (st.none() | st.booleans() | st.integers()
          | st.integers(-2 ** 70, 2 ** 70)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
          | st.text())
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.lists(leaves, min_size=2, max_size=2), max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], []], "d": [{}]})
@example([[1.0, -0.0], [0.0, True], [None, "x"]])
@example({"s": 'quote " back \\ slash / tab \t nl \n nul \x00 é   😀',
          "%s": "%d", "": [0, -1, 10 ** 30]})
@example([[1, 2], [3]])
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == _reference(doc)


def test_dumps_grids_byte_for_byte():
    rng = np.random.default_rng(4)
    t = MomentTable(3, 2, rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5)))
    doc = {"table": table_to_json(t), "poly": poly_to_json(BiPoly([[2.0, -1.0]])),
           "rows": [(1, 2.5), (3, 4.0)], "flag": False}
    assert dumps(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [
    [[[1.0, -2.5], [0.0, 3.0]], [[4.0, 5.0], [-0.0, 6.0]]],     # 2 x 2 grid
    {"c": [[[0.5, 1.5]]], "deg": [0, 0]},                     # 1 x 1 grid
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],                 # ragged rows
    [[[1.0, 2.0], [3.0]], [[4.0, 5.0], [6.0, 7.0]]],          # ragged pairs
    [[[1.0, 2.0], 3.0], [[4.0, 5.0], 6.0]],                   # pairs and scalars
    [[[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0]],                   # a row of scalars
    [[[1.0, 2.0]], [[3.0, {"x": 4.0}]]],                      # a dict in a pair
    [], [[]], [[], []], [[[]]], [[[], []], [[], []]],         # empty grids
    [[[[1.0, 2.0]], [[3.0, 4.0]]]],                           # one level deeper
])
def test_dumps_lays_out_grids_in_one_step(doc):
    assert dumps(doc) == _reference(doc)


def test_dumps_refuses_a_key_that_is_not_a_string():
    # json.dumps would write the key 1 as "1", which reads back as a string
    with pytest.raises(TypeError, match="keys must be str, not int"):
        dumps({1: 2})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.nan])
def test_dumps_refuses_non_finite(bad):
    for doc in (bad, [1.0, bad], {"c": [[[0.0, bad]]]}, {"x": {"y": [bad, "z"]}}):
        with pytest.raises(ValueError):
            dumps(doc)
        with pytest.raises(ValueError):
            _reference(doc)
