import cmath
import contextlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from bszego import (BiPoly, CertificateFailed, DegenerateSlice,
                    FitResidualTooLarge, NotGdv, NotSelfReflective,
                    ZeroPolynomial, ZOnlyFactor, build_detrep, check_gdv_geometry,
                    check_self_reflective, derivative_identity_check)
from bszego import cli, detrep, sos
from bszego.detrep import GEOMETRY_GRID
from bszego.jsonio import dumps, poly_to_json

from conftest import blaschke_gdv, cli_document

P_ZW = BiPoly([[0, -1], [1, 0]])          # z - w
P_Z2W = BiPoly([[0, -1], [0, 0], [1, 0]])  # z^2 - w
P_Z2W_BAD = BiPoly([[0, -2], [1, 0]])      # z - 2w


def test_mu_values():
    assert abs(check_self_reflective(P_ZW) - (-1.0)) < 1e-12
    assert abs(check_self_reflective(P_Z2W) - (-1.0)) < 1e-12


def test_mu_rejects_non_reflective():
    with pytest.raises(NotSelfReflective):
        check_self_reflective(P_Z2W_BAD)


def test_mu_rejects_z_only_factor():
    with pytest.raises(ZOnlyFactor):
        check_self_reflective(BiPoly([[0, 0], [0, -1], [0, 0]])
                              + BiPoly([[0], [0], [1]]))  # z^2 - zw = z(z - w)
    z2 = BiPoly([[-2], [1]]) * BiPoly([[-2], [1]])
    with pytest.raises(ZOnlyFactor, match="degree 2"):
        check_self_reflective(z2 * P_ZW)                    # (z - 2)^2 (z - w)


def test_geometry():
    assert check_gdv_geometry(P_ZW).passed
    assert check_gdv_geometry(P_Z2W).passed
    rep = check_gdv_geometry(P_Z2W_BAD)
    assert not rep.passed
    assert abs(rep.worst_deviation - 0.5) < 1e-9   # |w| = 1/2 everywhere


# first point of the geometry grid rotated by 1/(2 GEOMETRY_GRID) of a step
ZETA = np.exp(2j * np.pi * (0.5 / GEOMETRY_GRID) / GEOMETRY_GRID)


@pytest.mark.parametrize("idx", [0, 5])
def test_geometry_degenerate_on_both_grids(idx):
    # 2 + (1 - z)(z - zeta) w, zeta a point of the rotated grid, loses its
    # w-term at z = 1 and at z = zeta
    zeta = np.exp(2j * np.pi * (idx + 0.5 / GEOMETRY_GRID) / GEOMETRY_GRID)
    p = BiPoly([[2, -zeta], [0, 1 + zeta], [0, -1]])
    with pytest.raises(DegenerateSlice, match=re.escape(str(zeta))):
        check_gdv_geometry(p)


def test_geometry_retries_on_rotated_grid():
    # 2 + (1 - z) w loses its w-term at z = 1 only; |w| = 2 / |1 - z| is
    # largest at the rotated grid's first point
    rep = check_gdv_geometry(BiPoly([[2, 1], [0, -1]]))
    assert not rep.passed
    assert rep.worst_z == complex(ZETA)
    assert abs(rep.worst_w * (1 - ZETA) + 2) < 1e-12
    # (w - z/2)(2 + (1 + z) w): two sheets; the root of the second is
    # largest next to z = -1, at point 32 of the rotated grid
    rep = check_gdv_geometry(BiPoly([[0, 1], [-0.5, 0]])
                             * BiPoly([[2, 1], [0, 1]]))
    z32 = np.exp(2j * np.pi * (32 + 0.5 / GEOMETRY_GRID) / GEOMETRY_GRID)
    assert abs(rep.worst_z - z32) < 1e-15
    assert abs(rep.worst_w * (1 + z32) + 2) < 1e-12


def test_gdv_command_checks_once(monkeypatch, tmp_path):
    # Blaschke sheet w = (z - a) / (1 - conj(a) z) with a = 1/2
    path = tmp_path / "blaschke.json"
    path.write_text(dumps(poly_to_json(BiPoly([[0.5, 1], [-1, -0.5]]))))
    calls = {"check_gdv_geometry": 0, "check_self_reflective": 0}
    for name in calls:
        def spy(p, _real=getattr(detrep, name), _name=name):
            calls[_name] += 1
            return _real(p)
        monkeypatch.setattr(detrep, name, spy)
        monkeypatch.setattr(cli, name, spy, raising=False)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["gdv", "--poly", str(path)]) == 0
    doc = json.loads(out.getvalue())
    assert calls == {"check_gdv_geometry": 1, "check_self_reflective": 1}
    assert np.allclose(doc["mu"], [-1.0, 0.0]) and doc["geometry"]["passed"]


def test_derivative_identity():
    for p in (P_ZW, P_Z2W):
        mu = check_self_reflective(p)
        p1 = p * (1.0 / cmath.sqrt(mu))
        ok, resid = derivative_identity_check(p1)
        assert ok and resid < 1e-12
    # an un-normalized polynomial fails the identity
    ok, resid = derivative_identity_check(P_ZW)
    assert not ok
    # the residual is relative to p, so the zero polynomial has none
    with pytest.raises(ZeroPolynomial):
        derivative_identity_check(BiPoly(np.zeros((2, 2))))


def test_detrep_z_minus_w():
    rep = build_detrep(P_ZW)
    assert rep.u.shape == (2, 2)
    assert rep.n1 == 0 and rep.n2 == 1
    assert np.linalg.norm(rep.u.conj().T @ rep.u - np.eye(2)) < 1e-8
    assert rep.residual < 1e-6
    rng = np.random.default_rng(9)
    for _ in range(100):
        z, w = 2.0 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        pv = P_ZW(z, w)
        if abs(pv) < 1e-2:
            continue
        ratio = rep.det_pencil(z, w) / pv
        assert abs(ratio - rep.scale) < 1e-6 * abs(rep.scale)


def test_detrep_z2_minus_w():
    rep = build_detrep(P_Z2W)
    assert rep.u.shape == (3, 3)
    assert rep.n1 == 0 and rep.n2 == 2
    assert np.linalg.norm(rep.u.conj().T @ rep.u - np.eye(3)) < 1e-8
    assert rep.residual < 1e-6


def test_detrep_on_variety_consistency():
    rep = build_detrep(P_Z2W)
    # fresh samples not used in the fit (offset angles)
    for idx in range(50):
        z0 = np.exp(2j * np.pi * (idx + 0.555) / 50)
        w0 = z0 ** 2
        assert abs(rep.det_pencil(z0, w0)) < 1e-7 * abs(rep.scale)


def test_detrep_agler_mccarthy_shape():
    # a genuine distinguished variety has n2 = n, so Delta = diag(w I_m, I_n)
    rep = build_detrep(P_ZW)
    assert (rep.m, rep.n1, rep.n2) == (1, 0, 1)


def test_detrep_symbolic_witness():
    # det(U Delta - Gamma) for the explicit swap matrix reproduces z - w
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    for z, w in [(0.3 + 0.1j, -0.7j), (1.5, 0.2), (-0.4, 1.1j)]:
        delta = np.diag([w, 1.0])
        gamma = np.diag([1.0, z])
        val = np.linalg.det(U @ delta - gamma)
        assert abs(val - (z - w)) < 1e-12


def test_detrep_degree_dropping_derivative():
    # for zw - 1 the reflected w-derivative is a constant; the pencil
    # must still come out with blocks (m, n1, n2) = (1, 1, 0)
    p = BiPoly([[-1, 0], [0, 1]])
    rep = build_detrep(p)
    assert rep.u.shape == (2, 2)
    assert (rep.n1, rep.n2) == (1, 0)
    assert rep.residual < 1e-8
    z, w = 0.3 + 0.2j, 1.7 - 0.4j
    assert abs(rep.det_pencil(z, w) - rep.scale * p(z, w)) < 1e-10


def test_detrep_higher_sheeted():
    p = BiPoly([[-1, 0], [0, 0], [0, 1]])     # z^2 w - 1
    rep = build_detrep(p)
    assert rep.u.shape == (3, 3)
    assert (rep.n1, rep.n2) == (2, 0)
    assert rep.residual < 1e-8


def test_detrep_rejects_non_unimodular_sheets():
    # 2zw - z - w has w-sheets of varying modulus over the circle
    with pytest.raises(NotGdv):
        build_detrep(BiPoly([[0, -1], [-1, 2]]))


def test_detrep_rejects_non_gdv():
    with pytest.raises(NotGdv):
        build_detrep(P_Z2W_BAD)


W_MINUS_Z = BiPoly([[0, 1], [-1, 0]])      # w - z


def test_detrep_sheets_meeting_on_the_circle(monkeypatch):
    # (w - z)(zw - 1) has the sheets w = z and w = 1/z, which meet over
    # z = +-1: the reflected w-derivative vanishes there on the torus, so
    # its closed-face blocks cannot be built.  The pencil is judged by its
    # own fit and coefficient check, never by a sampled certificate check
    def no_verification(*args):
        raise AssertionError("build_detrep verified a certificate")

    monkeypatch.setattr(sos, "verify_certificate", no_verification)
    with pytest.raises(CertificateFailed, match="reflected w-derivative"):
        build_detrep(W_MINUS_Z * BiPoly([[-1, 0], [0, 1]]))


def test_detrep_repeated_factor_exits_3(tmp_path):
    # (w - z)^2: the reflected w-derivative vanishes on the whole sheet
    with pytest.raises(CertificateFailed):
        build_detrep(W_MINUS_Z * W_MINUS_Z)
    code, doc = cli_document(tmp_path, "gdv", "--poly",
                             poly_to_json(W_MINUS_Z * W_MINUS_Z))
    assert (code, doc["error"]) == (3, "CertificateFailed")


def test_detrep_json(tmp_path):
    rep = build_detrep(P_ZW)
    code, doc = cli_document(tmp_path, "gdv", "--poly", poly_to_json(P_ZW))
    assert code == 0
    assert doc["detrep"]["n1"] == rep.n1 == 0 and doc["detrep"]["n2"] == rep.n2 == 1
    U = doc["detrep"]["U"]
    assert len(U) == 2 and len(U[0]) == 2
    assert np.allclose(np.array(U)[..., 0] + 1j * np.array(U)[..., 1], rep.u)


def test_detrep_scale_against_input():
    # the reported scale refers to the ORIGINAL polynomial, including the
    # unimodular normalization factor, at every size of it: the pencil
    # does not scale with p, the reported scale goes as 1 / size
    z, w = 0.37 + 0.21j, -0.55 + 0.4j
    for size in (1e-12, 1.0, 1e12, 1e13, 1e16):
        p = P_ZW * size
        rep = build_detrep(p)
        assert abs(rep.det_pencil(z, w) - rep.scale * p(z, w)) \
            < 1e-8 * abs(rep.scale) * size


BLASCHKE = [BiPoly([[0.5, 1], [-1, -0.5]]),          # Blaschke sheet, a = 1/2
            blaschke_gdv([0.3, -0.4j], 2)]
BLASCHKE_IDS = ["blaschke", "blaschke-2-2"]


def _scalar_det(rep, z0, w0):
    """det(U Delta - Gamma) at one point, as one dense determinant."""
    sizes = (rep.m, rep.n1, rep.n2)
    delta = np.diag(np.repeat([w0, z0, 1.0], sizes))
    gamma = np.diag(np.repeat([1.0, 1.0, z0], sizes))
    return complex(np.linalg.det(rep.u @ delta - gamma))


@pytest.mark.parametrize("p", BLASCHKE, ids=BLASCHKE_IDS)
def test_pencil_coeffs_match_scalar_det(p):
    # the coefficients interpolated on the roots of unity reproduce the
    # determinant away from that grid and away from the variety
    rep = build_detrep(p)
    d = BiPoly(detrep._pencil_coeffs(rep, p.deg))
    rng = np.random.default_rng(5)
    z0, w0 = (rng.uniform(-2, 2, (2, 6)) + 1j * rng.uniform(-2, 2, (2, 6)))
    for z, w in zip(z0, w0):
        ref = _scalar_det(rep, z, w)
        assert abs(ref) > 1e-2
        assert abs(d(z, w) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("p", BLASCHKE, ids=BLASCHKE_IDS)
def test_perturbed_pencil_is_refused(p, monkeypatch):
    # U moved by 1e-4 in a generic direction (not a block-diagonal unitary
    # conjugation, which leaves the determinant unchanged): det(U Delta -
    # Gamma) is no longer a multiple of p, and the coefficient gap shows it
    coeffs = detrep._pencil_coeffs
    e = np.random.default_rng(7).normal(size=(8, 8, 2)) @ [1, 1j]
    unperturbed = build_detrep(p)
    assert unperturbed.residual < 1e-12

    def perturbed(rep, deg):
        k = len(rep.u)
        shift = e[:k, :k] / np.linalg.norm(e[:k, :k])
        return coeffs(replace(rep, u=rep.u + 1e-4 * shift), deg)

    monkeypatch.setattr(detrep, "_pencil_coeffs", perturbed)
    with pytest.raises(FitResidualTooLarge, match=r"scale \* p reaches"):
        build_detrep(p)
