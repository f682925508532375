"""JSON formats for polynomials, moment tables, and trig polynomials.

Polynomial: {"deg": [n, m], "coeffs": [[[re, im], ...], ...]} with row
index = z power, column index = w power.  Univariate polynomials use
m = 0.

Moment / trig table: {"jmax": J, "kmax": K, "c": [[[re, im], ...], ...]}
row-major over j = -J..J then k = -K..K.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput
from .moments import MomentTable, TrigPoly
from .poly import BiPoly


def _pairs(arr):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(arr, dtype=complex)]


def _unpairs(data, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed {what} coefficient grid") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidInput(f"{what} grid must be rows x cols x [re, im]")
    if not np.isfinite(arr).all():
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
    return {"deg": [n, m], "coeffs": _pairs(t.coeffs)}


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
    return {"jmax": t.jmax, "kmax": t.kmax, "c": _pairs(t.c)}


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


def dumps(doc) -> str:
    """Deterministic JSON with full-precision floats, indented by 2."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
