"""Every bound check in the library rejects a nan.

A check written "reject if x > TOL" lets a nan through, because every
comparison with a nan is false; written "reject unless x <= TOL" it does
not.  The scan below finds the first form in each ``if ...: raise`` of
``src/bszego``, as ``test_options.py`` finds options.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from bszego import DegenerateForm, NonPositiveDensity
from bszego.moments import TrigPoly, moments_from_trig
from bszego.reconstruct import factor_trig, reconstruct_p

SRC = Path(__file__).resolve().parents[1] / "src" / "bszego"


def _names_a_tol(node):
    return any((isinstance(n, ast.Name) and n.id.endswith("TOL"))
               or (isinstance(n, ast.Attribute) and n.attr.endswith("TOL"))
               for n in ast.walk(node))


def nan_passing_checks(source, name="<src>"):
    """'file:line' of each x > ..TOL or x >= ..TOL (or ..TOL < x) that
    decides an ``if`` whose body raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If)
                and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        for cmp in ast.walk(node.test):
            if not isinstance(cmp, ast.Compare):
                continue
            sides = [cmp.left, *cmp.comparators]
            for i, op in enumerate(cmp.ops):
                if ((isinstance(op, (ast.Gt, ast.GtE)) and _names_a_tol(sides[i + 1]))
                        or (isinstance(op, (ast.Lt, ast.LtE)) and _names_a_tol(sides[i]))):
                    found.append(f"{name}:{cmp.lineno}")
    return found


def test_scan_finds_the_nan_passing_form():
    source = (
        "if resid > KERNEL_TOL:\n    raise E()\n"
        "if a <= 1 and gap >= c.VANISH_TOL * s:\n    raise E()\n"
        "if MC_TOL < err:\n    raise E()\n"
        "if not resid <= KERNEL_TOL:\n    raise E()\n"
        "if not worst < VANISH_TOL:\n    raise E()\n"
        "ok = resid > KERNEL_TOL\n"
        "if resid > KERNEL_TOL:\n    ok = False\n")
    assert nan_passing_checks(source) == ["<src>:1", "<src>:3", "<src>:5"]


def test_no_check_in_the_library_passes_a_nan():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += nan_passing_checks(path.read_text(), path.name)
    assert found == []


def test_vanishing_kernel_is_degenerate():
    # at scale 1e-26 the kernel polynomial of |2 - z|^2-type data comes out
    # all zero; the kernel check must refuse it, not divide 0 by 0 (tier 1
    # turns the division's RuntimeWarning into an error)
    t = TrigPoly(1, 0, 1e-26 * np.array([[-2.0], [5.0], [-2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateForm, match="kernel polynomial vanishes"):
            factor_trig(t, 1, 0)
        with pytest.raises(DegenerateForm, match="kernel polynomial vanishes"):
            reconstruct_p(moments_from_trig(t, 1, 0), 1, 0)


def test_nan_trig_coefficient_is_refused():
    # the Hermitian check of a trig polynomial is a bound check too
    with pytest.raises(NonPositiveDensity, match="not Hermitian-symmetric"):
        TrigPoly(1, 0, [[0.5], [np.nan], [0.5]])
