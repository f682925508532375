"""The JSON layer: number leaves in coefficient grids, and dumps' layout."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    # without 'deg' the degree is read from the grid
    assert np.array_equal(poly_from_json({"coeffs": doc["coeffs"]}).coeffs, c)
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = {"jmax": 1, "kmax": 1, "c": [[[v.real, v.imag] for v in row] for row in t]}
    assert type(doc["c"][0][0][0]) is np.float64
    assert np.array_equal(table_from_json(doc).c, MomentTable(1, 1, t).c)


def _listed(doc):
    """The document with every numpy array replaced by its tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _listed(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_listed(value) for value in doc]
    return doc


def _reference(doc):
    return json.dumps(_listed(doc), indent=2, sort_keys=True, allow_nan=False)


leaves = (st.none() | st.booleans() | st.integers()
          | st.integers(-2 ** 70, 2 ** 70)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
          | st.text())
# float arrays as the sos blocks are printed: pairs, grids of pairs, stacks
# of grids, and empty ones
arrays = hnp.arrays(
    np.float64, st.sampled_from([(2,), (3, 2, 2), (2, 1, 3, 2), (0, 2), (3, 0, 2),
                                 (0, 2, 2, 2)]),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308]))
documents = st.recursive(
    leaves | arrays,
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
@example({"A": [{"deg": [1, 0], "coeffs": np.array([[[-0.0, 5e-324]], [[1e308, 2.5]]])}],
          "C": [], "pair": np.array([0.5, -0.0]), "none": np.zeros((3, 0, 2))})
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


def test_documents_keep_their_lists():
    # poly_to_json and table_to_json return plain lists, which the standard
    # library writes and a caller may assign into
    doc = poly_to_json(BiPoly([[2.0, -1.0]]))
    table = table_to_json(MomentTable(0, 0, [[1.0]]))
    assert type(doc["coeffs"]) is list and type(table["c"]) is list
    doc["coeffs"][0][0][0] = 3.0
    assert json.loads(json.dumps(doc)) == {"deg": [0, 1],
                                           "coeffs": [[[3.0, 0.0], [-1.0, 0.0]]]}


def test_dumps_refuses_a_key_that_is_not_a_string():
    # json.dumps would write the key 1 as "1", which reads back as a string
    with pytest.raises(TypeError, match="keys must be str, not int"):
        dumps({1: 2})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.nan])
def test_dumps_refuses_non_finite(bad):
    for doc in (bad, [1.0, bad], {"c": [[[0.0, bad]]]}, {"x": {"y": [bad, "z"]}},
                np.array([1.0, bad]), {"A": [{"coeffs": np.array([[[0.0, bad]]])}]}):
        with pytest.raises(ValueError):
            dumps(doc)
        with pytest.raises(ValueError):
            _reference(doc)
