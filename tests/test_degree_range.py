"""The pipelines at the top of the advertised degree range, (16, 16), and
at one shape with more w than z degree, (4, 8).

Every call goes through ``cli.main``.  The answers are judged by
numpy-only oracles from ``conftest``, which share no sampler with the
library.
"""

import numpy as np
import pytest

from bszego import BiPoly, moments_from_density
from bszego.jsonio import poly_to_json, table_to_json

from conftest import (cli_document, gram_eigenvalue_range, pencil_gap,
                      sos_identity_gap, torus_modulus_gap, trig_abs_squared)


def perturbation(seed, n, m):
    """1 + e(z, w) of degree (n, m) with sum |e_jk| = 0.5, zero-free on the
    closed bidisk."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return a


@pytest.fixture(scope="module")
def p_perturb_16_16():
    return perturbation(1616, 16, 16)


def test_recover_pipelines_at_16_16(tmp_path, p_perturb_16_16):
    table = table_to_json(moments_from_density(BiPoly(p_perturb_16_16), 16, 16))
    nm = ("--n", "16", "--m", "16")
    code, check = cli_document(tmp_path, "check", "--moments", table, *nm)
    assert code == 0 and check["holds"] is True
    # p(z, 0) has no root in the disk, so the interval starts at 0
    assert check["d_min"] <= 0 <= check["d_max"]
    code, p = cli_document(tmp_path, "reconstruct", "--moments", table, *nm)
    assert code == 0 and p["deg"] == [16, 16]
    assert torus_modulus_gap(p, p_perturb_16_16) < 1e-12
    code, ar = cli_document(tmp_path, "ar", "--autocorr", table, *nm)
    assert code == 0 and ar["classification"] == "causal"
    assert torus_modulus_gap(ar["a"], p_perturb_16_16) < 1e-12


def test_full_measure_at_16_16(tmp_path, p_perturb_16_16):
    # the default depth (19, 19) reads the window (32, 19); a measure
    # 1/|p|^2 passes every vanishing test
    table = table_to_json(moments_from_density(BiPoly(p_perturb_16_16), 32, 19))
    code, full = cli_document(tmp_path, "full", "--moments", table,
                              "--n", "16", "--m", "16")
    assert code == 0 and full["verdict"] == "pass"
    assert full["depth"] == [19, 19] and full["positivity_ok"] is True
    assert max(full["e2_conditions"].values()) < 1e-12
    assert max(full["h_conditions"].values()) < 1e-12
    lo, hi = gram_eigenvalue_range(table, 32, 19)
    assert abs(full["min_eigenvalue"] - lo) < 1e-12 * hi


def check_certify(tmp_path, a, seed):
    """``sos`` and ``factor`` on the polynomial grid a, judged by the
    sampled L identity and the torus modulus gap."""
    n, m = a.shape[0] - 1, a.shape[1] - 1
    code, cert = cli_document(tmp_path, "sos", "--poly", poly_to_json(BiPoly(a)))
    # p(z, 0) has no root in the disk: no C block, n1 = n
    assert code == 0 and (len(cert["A"]), cert["n1"], cert["n2"]) == (m, n, 0)
    assert cert["residual"] < 1e-12
    assert sos_identity_gap(cert, a, np.random.default_rng(seed)) < 1e-12
    trig = table_to_json(trig_abs_squared(BiPoly(a)))
    code, p = cli_document(tmp_path, "factor", "--trig", trig,
                           "--n", str(n), "--m", str(m))
    assert code == 0 and p["deg"] == [n, m]
    assert torus_modulus_gap(p, a) < 1e-12


def test_certify_pipelines_at_16_16(tmp_path, p_perturb_16_16):
    check_certify(tmp_path, p_perturb_16_16, 16)


def test_pipelines_with_more_w_than_z_degree(tmp_path):
    a = perturbation(48, 4, 8)
    check_certify(tmp_path, a, 48)
    table = table_to_json(moments_from_density(BiPoly(a), 4, 8))
    code, p = cli_document(tmp_path, "reconstruct", "--moments", table,
                           "--n", "4", "--m", "8")
    assert code == 0 and p["deg"] == [4, 8]
    assert torus_modulus_gap(p, a) < 1e-12


@pytest.mark.parametrize("factors, counts", [
    ([[[0.5], [-1]]], (1, 1, 1)),
    ([[[3, 0], [0, -1]]], (2, 2, 0)),
    ([[[3, 0], [0, -1]], [[2.5, 0], [0, -1]], [[2, 0], [0, -1]]], (4, 4, 0)),
], ids=["(2,1)", "(2,2)", "(4,4)"])
def test_open_face_sos_at_larger_degrees(tmp_path, factors, counts):
    # 2 - z - w, which vanishes at (1, 1) on the torus, times a factor
    # with a zero in the disk (n2 = 1) or times factors (a - zw)
    a = np.array([[2, -1], [-1, 0]], dtype=complex)
    for f in factors:
        a = (BiPoly(a) * BiPoly(f)).coeffs
    code, cert = cli_document(tmp_path, "sos", "--poly", poly_to_json(BiPoly(a)),
                              "--open-face")
    assert code == 0 and (len(cert["A"]), cert["n1"], cert["n2"]) == counts
    assert cert["residual"] < 1e-12
    assert sos_identity_gap(cert, a, np.random.default_rng(len(a))) < 1e-12


def test_gdv_at_16_16(tmp_path):
    # w^16 prod (1 - conj(a_i) z) - prod (z - a_i): the sheets w^16 = B(z)
    # of a Blaschke product whose 16 zeros have moduli spread over
    # [0.1, 0.6] and evenly spaced, seeded phases
    rng = np.random.default_rng(1616)
    step = 2 * np.pi / 16
    zeros = np.linspace(0.1, 0.6, 16) * np.exp(1j * (
        rng.uniform(0, 2 * np.pi) + step * np.arange(16)
        + 0.05 * step * rng.uniform(-1, 1, 16)))
    q = np.polynomial.polynomial.polyfromroots(zeros)
    a = np.zeros((17, 17), dtype=complex)
    a[:, 16] = q[::-1].conj()
    a[:, 0] -= q
    code, doc = cli_document(tmp_path, "gdv", "--poly", poly_to_json(BiPoly(a)))
    assert code == 0 and doc["geometry"]["passed"] is True
    rep = doc["detrep"]
    assert len(rep["U"]) == 32 and rep["n1"] + rep["n2"] == 16
    assert rep["residual"] < 1e-12
    assert pencil_gap(doc, a, np.random.default_rng(7)) < 1e-12
