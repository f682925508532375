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

from bszego import BiPoly, DegenerateForm, NonPositiveDensity
from bszego import reconstruct
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


def test_vanishing_kernel_is_degenerate(monkeypatch):
    # a kernel polynomial that comes out all zero must be refused, not
    # divided 0 by 0 (tier 1 turns the division's RuntimeWarning into an
    # error); no input is known to reach it, so kernel_poly is patched.
    # factor_trig reaches the kernel only past the stable factor, which
    # 4 - z conj(w) - conj(z) w lacks
    monkeypatch.setattr(reconstruct, "kernel_poly",
                        lambda space: BiPoly(np.zeros((2 * space.nmax + 1,
                                                       space.mmax + 1))))
    t = TrigPoly(1, 0, [[-2.0], [5.0], [-2.0]])
    acausal = TrigPoly(1, 1, [[0, 0, -1.0], [0, 4.0, 0], [-1.0, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateForm, match="kernel polynomial vanishes"):
            factor_trig(acausal, 1, 1)
        with pytest.raises(DegenerateForm, match="kernel polynomial vanishes"):
            reconstruct_p(moments_from_trig(t, 1, 0), 1, 0)


def test_nan_trig_coefficient_is_refused():
    # the Hermitian check of a trig polynomial is a bound check too
    with pytest.raises(NonPositiveDensity, match="not Hermitian-symmetric"):
        TrigPoly(1, 0, [[0.5], [np.nan], [0.5]])
