"""JSON formats for polynomials, moment tables, and trig polynomials.

Polynomial: {"deg": [n, m], "coeffs": [[[re, im], ...], ...]} with row
index = z power, column index = w power.  Univariate polynomials use
m = 0.

Moment / trig table: {"jmax": J, "kmax": K, "c": [[[re, im], ...], ...]}
row-major over j = -J..J then k = -K..K.  ``dumps`` writes a numpy array
of numbers as its ``tolist()`` would be written.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import InvalidInput
from .moments import MomentTable, TrigPoly
from .poly import BiPoly


def _pairs(a):
    """Complex numbers as [re, im] on a last axis: a pair for a number, rows for a grid."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1)


def _unpairs(data, what):
    arr = np.asarray(data, dtype=object)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidInput(f"{what} grid must be rows x cols x [re, im]")
    # numpy would read a JSON string or bool as a number
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, arr.flat))):
        raise InvalidInput(f"{what} grid holds an entry that is not a number")
    try:
        arr = arr.astype(float)
        finite = np.isfinite(arr).all()
    except OverflowError:       # an integer beyond the float range
        finite = False
    if not finite:
        raise InvalidInput(f"{what} grid holds a non-finite number")
    return arr[..., 0] + 1j * arr[..., 1]


def _count(value, what):
    """A nonnegative integer field; a bool, float, string or null is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise InvalidInput(f"{what} must be a nonnegative integer, not {value!r}")
    return int(value)


def poly_to_json(p: BiPoly) -> dict:
    t = p.trimmed()
    n, m = t.deg
    return {"deg": [n, m], "coeffs": _pairs(t.coeffs).tolist()}


def poly_from_json(doc) -> BiPoly:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise InvalidInput("polynomial JSON needs a 'coeffs' field")
    coeffs = _unpairs(doc["coeffs"], "polynomial")
    if "deg" in doc:
        if not isinstance(doc["deg"], list) or len(doc["deg"]) != 2:
            raise InvalidInput(f"'deg' must be a pair [n, m], not {doc['deg']!r}")
        n, m = (_count(d, "each 'deg' entry") for d in doc["deg"])
        if coeffs.shape != (n + 1, m + 1):
            raise InvalidInput(
                f"declared degree {doc['deg']} does not match grid "
                f"{coeffs.shape}")
    return BiPoly(coeffs)


def table_to_json(t: MomentTable) -> dict:
    """Moment table or trig polynomial as JSON."""
    return {"jmax": t.jmax, "kmax": t.kmax, "c": _pairs(t.c).tolist()}


def _centered_from_json(doc, cls, what):
    if not isinstance(doc, dict) or "c" not in doc:
        raise InvalidInput(f"{what} JSON needs a 'c' field")
    c = _unpairs(doc["c"], what)
    jmax = _count(doc.get("jmax", (c.shape[0] - 1) // 2), "'jmax'")
    kmax = _count(doc.get("kmax", (c.shape[1] - 1) // 2), "'kmax'")
    if c.shape != (2 * jmax + 1, 2 * kmax + 1):
        raise InvalidInput(
            f"{what} grid {c.shape} does not match window ({jmax}, {kmax})")
    return cls(jmax, kmax, c)


def table_from_json(doc) -> MomentTable:
    return _centered_from_json(doc, MomentTable, "moment table")


def trig_from_json(doc) -> TrigPoly:
    return _centered_from_json(doc, TrigPoly, "trig polynomial")


# one call of the C encoder writes every leaf; ensure_ascii escapes each
# newline inside a string, so the item separator "\n" splits them apart
_LEAVES = json.JSONEncoder(separators=("\n", ":"), allow_nan=False)
_LEAF_TYPES = frozenset([str, int, float, bool, type(None), np.float64])


def dumps(doc) -> str:
    """Deterministic JSON with full-precision floats, indented by 2.

    Byte for byte ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False)`` for a document whose keys are strings.  The layout
    is written with a %s for each key and leaf, and the C encoder writes
    all of those in one call, in document order.
    """
    leaves = []
    layout = _layout(doc, 0, leaves)
    if not leaves:
        return layout
    return layout % tuple(_LEAVES.encode(leaves)[1:-1].split("\n"))


def _wrap(parts, depth, brackets="[]"):
    """Items at depth + 1, one a line, in brackets at depth."""
    if not parts:
        return brackets
    ind = "\n" + "  " * (depth + 1)
    return (brackets[0] + ind + ("," + ind).join(parts)
            + "\n" + "  " * depth + brackets[1])


@lru_cache(maxsize=64)
def _leaf_block(shape, depth):
    """The layout of nested lists of leaves whose lengths at each level are
    ``shape``."""
    inner = "%s" if len(shape) == 1 else _leaf_block(shape[1:], depth + 1)
    return _wrap([inner] * shape[0], depth)


def _grid_leaves(items):
    """(shape, leaves) of a list of leaves, or of lists of one length whose
    items, joined in order, are such a list in turn (every coefficient
    grid of [re, im] pairs); None for anything else."""
    types = set(map(type, items))
    if _LEAF_TYPES.issuperset(types):
        return (len(items),), items
    lengths = set(map(len, items)) if types == {list} else set()
    if len(lengths) != 1:
        return None
    inner = _grid_leaves(list(chain.from_iterable(items)))
    if inner is None:
        return None
    return (len(items), *lengths, *inner[0][1:]), inner[1]


def _layout(o, depth, leaves):
    """The indented layout of o at depth, appending its keys and leaves.

    A list of leaves, and nested lists of equal lengths at each level
    down to leaves (every coefficient grid of [re, im] pairs), take their
    layout from a cache without a step per row or leaf, as does a numpy
    array (as its ``tolist()``), its leaves from one ``ravel().tolist()``.
    """
    if isinstance(o, np.ndarray) and o.ndim:
        leaves.extend(o.ravel().tolist())
        return _leaf_block(o.shape, depth)
    if isinstance(o, dict):
        parts = []
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaves.append(key)
            parts.append("%s: " + _layout(value, depth + 1, leaves))
        return _wrap(parts, depth, "{}")
    if isinstance(o, (list, tuple)):
        grid = _grid_leaves(o)
        if grid is not None:
            leaves.extend(grid[1])
            return _leaf_block(grid[0], depth)
        return _wrap([_layout(v, depth + 1, leaves) for v in o], depth)
    leaves.append(o)
    return "%s"
