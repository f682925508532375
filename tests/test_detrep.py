import cmath
import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from bszego import (BiPoly, CertificateFailed, FitResidualTooLarge, NotGdv,
                    NotSelfReflective, ZeroPolynomial, ZOnlyFactor, build_detrep,
                    check_gdv_geometry, check_self_reflective,
                    derivative_identity_check)
from bszego import cli, detrep, reflect, sos
from bszego.jsonio import dumps, poly_to_json

from conftest import (blaschke_gdv, cli_document, grid_stack, lurking_isometry_gap,
                      polys_of)

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


def test_zero_polynomial_is_refused_as_input():
    zero = BiPoly(np.zeros((2, 2)))
    for check in (check_self_reflective, check_gdv_geometry, build_detrep):
        with pytest.raises(ZeroPolynomial):
            check(zero)


def test_geometry():
    assert check_gdv_geometry(P_ZW).passed
    assert check_gdv_geometry(P_Z2W).passed
    rep = check_gdv_geometry(P_Z2W_BAD)
    assert not rep.passed
    assert abs(rep.worst_deviation - 0.5) < 1e-9   # |w| = 1/2 everywhere


def _sampler_grid(count=detrep.SAMPLES):
    """The z points of ``check_gdv_geometry``, computed as it does."""
    return np.exp(1j * (2 * np.pi * (np.arange(count) + 0.123) / count))


@pytest.mark.parametrize("k, count", [(0, detrep.SAMPLES), (15, 1156)])
def test_geometry_samples_the_sampler_grid(k, count):
    # 2 + z^k (1 - z) w: |w| = 2 / |1 - z| is largest at the grid point
    # nearest z = 1, the first; degree (1, 1) reads max(SAMPLES, 16) = 128
    # points and degree (16, 1) ceil(4 * 17^2 / 1) = 1156
    c = np.zeros((k + 2, 2))
    c[0, 0], c[k, 1], c[k + 1, 1] = 2.0, 1.0, -1.0
    rep = check_gdv_geometry(BiPoly(c))
    z0 = _sampler_grid(count)[0]
    assert not rep.passed and rep.worst_z == z0
    assert abs(rep.worst_w * z0 ** k * (1 - z0) + 2) < 1e-12 * abs(rep.worst_w)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "round-off"])
@pytest.mark.parametrize("idx", [0, 5])
def test_geometry_leaves_out_a_point_without_w_term(idx, exact):
    # 2 + (zeta - z) w, zeta point idx of the sampler's grid, loses its
    # w-term at zeta, exactly, and 2 + (1 - z / zeta) w to round-off.  The
    # point is left out, and |w| = 2 / |zeta - z| is largest next to it
    zs = _sampler_grid()
    zeta = zs[idx]
    p = BiPoly([[2, zeta], [0, -1]] if exact else [[2, 1], [0, -1 / zeta]])
    rep = check_gdv_geometry(p)
    assert not rep.passed and np.isfinite(rep.worst_deviation)
    assert rep.worst_z in (zs[idx - 1], zs[idx + 1])
    assert abs(p(rep.worst_z, rep.worst_w)) < 1e-12 * abs(rep.worst_w)


def test_geometry_leaves_out_a_point_of_a_two_sheet_curve():
    # (w - z/2)(2 + (zeta - z) w), zeta point 64 of the grid: the second
    # sheet's root is largest next to zeta, never at it
    zs = _sampler_grid()
    p = BiPoly([[0, 1], [-0.5, 0]]) * BiPoly([[2, zs[64]], [0, -1]])
    rep = check_gdv_geometry(p)
    assert rep.worst_z in (zs[63], zs[65])
    assert abs(p(rep.worst_z, rep.worst_w)) < 1e-12 * abs(rep.worst_w) ** 2


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


def test_gdv_solves_the_circle_slices_once(monkeypatch, tmp_path):
    # the geometry check's companion eigenproblems are the only ones: the
    # pencil is built from the certificate's coefficients
    sizes = []

    def spy(p, zs, _real=detrep._w_roots):
        sizes.append(len(zs))
        return _real(p, zs)

    monkeypatch.setattr(detrep, "_w_roots", spy)
    code, doc = cli_document(tmp_path, "gdv", "--poly",
                             poly_to_json(blaschke_gdv([0.3, -0.4j], 2)))
    assert code == 0 and doc["geometry"]["passed"]
    assert sizes == [detrep.SAMPLES]


def test_gdv_without_w_exits_1(tmp_path):
    # 1 + 2z has no w-sheets to lie on the circle
    code, doc = cli_document(tmp_path, "gdv", "--poly", poly_to_json(BiPoly([[1], [2]])))
    assert (code, doc["error"]) == (1, "NotGdv")
    assert "does not depend on w" in doc["message"]


def test_derivative_identity():
    for p in (P_ZW, P_Z2W):
        mu = check_self_reflective(p)
        p1 = p * (1.0 / cmath.sqrt(mu))
        ok, resid = derivative_identity_check(p1)
        assert ok and resid < 1e-12
    # an un-normalized polynomial fails the identity
    ok, resid = derivative_identity_check(P_ZW)
    assert not ok
    # without w both sides are zero: m p = 0 and dp/dw = 0
    assert derivative_identity_check(BiPoly([[1.0], [2.0]])) == (True, 0.0)
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
        ratio = rep._det_pencil(z, w) / pv
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
        assert abs(rep._det_pencil(z0, w0)) < 1e-7 * abs(rep.scale)


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
    assert abs(rep._det_pencil(z, w) - rep.scale * p(z, w)) < 1e-10


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
        assert abs(rep._det_pencil(z, w) - rep.scale * p(z, w)) \
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


def _with_blocks(monkeypatch, change=lambda mats: mats):
    """Route build_detrep's block matrices through ``change``; the list of
    (P, certificate of the blocks it was given) pairs."""
    seen = []

    def spy(P, deg, _real=detrep._blocks_closed_face):
        target, scale, mats = _real(P, deg)
        mats = change(mats)
        seen.append((P, sos._certificate(target, scale, mats, deg)))
        return target, scale, mats

    monkeypatch.setattr(detrep, "_blocks_closed_face", spy)
    return seen


@pytest.mark.parametrize("p", [
    blaschke_gdv([0.3, -0.4j], 2),
    blaschke_gdv([0.5, 0.2 + 0.3j, -0.4j, -0.1 - 0.5j], 4),
    blaschke_gdv([0.1, 0.45j, -0.3, 0.2 - 0.5j, 0.55, -0.25j, 0.4 + 0.1j,
                  -0.6], 4),
    blaschke_gdv([0.1, 0.45j, -0.3, 0.2 - 0.5j, 0.55, -0.25j, 0.4 + 0.1j,
                  -0.6], 8),
    W_MINUS_Z, P_Z2W * -1.0, BiPoly([[-1, 0], [0, 1]]),
    BiPoly([[-1, 0], [0, 0], [0, 1]])],
    ids=["blaschke-2-2", "blaschke-4-4", "blaschke-8-4", "blaschke-8-8",
         "w-z", "w-z^2", "zw-1", "z^2w-1"])
def test_pencil_is_the_lurking_isometry_on_the_curve(p, monkeypatch):
    # U, found on coefficients, maps the block values (w A, z B, C) to
    # (A, B, z C) at points of the curve it never saw: the property the
    # sampled fit enforced
    seen = _with_blocks(monkeypatch)
    rep = build_detrep(p)
    (P, cert), = seen
    assert lurking_isometry_gap(p, rep.u, P, cert) <= 1e-12


@pytest.mark.parametrize("p", BLASCHKE, ids=BLASCHKE_IDS)
def test_perturbed_block_fails_the_fit(p, monkeypatch):
    # one block polynomial scaled by 1 + 1e-3 breaks X^H X = Y^H Y, and no
    # unitary maps X to Y within FIT_TOL
    def perturbed(mats):
        i = next(i for i, x in enumerate(mats) if x.shape[1])
        block = mats[i].copy()
        block[:, 0] *= 1.001
        return (*mats[:i], block, *mats[i + 1:])

    _with_blocks(monkeypatch, perturbed)
    with pytest.raises(FitResidualTooLarge, match="lurking-isometry fit residual"):
        build_detrep(p)


def test_vanishing_pencil_is_refused(monkeypatch):
    # a determinant whose every coefficient is 0 is a multiple of no p
    monkeypatch.setattr(detrep, "_pencil_coeffs",
                        lambda rep, deg: np.zeros((deg[0] + 1, deg[1] + 1), dtype=complex))
    with pytest.raises(FitResidualTooLarge, match="vanishes identically"):
        build_detrep(BLASCHKE[0])


@pytest.mark.parametrize("p", [BLASCHKE[1], blaschke_gdv([0.5, 0.2 + 0.3j, -0.4j, -0.1 - 0.5j], 4),
                               W_MINUS_Z], ids=["blaschke-2-2", "blaschke-4-4", "w-z"])
def test_pencil_svd_sees_the_rows_built_from_the_polynomials(p, monkeypatch):
    # the one SVD of build_detrep factors exactly Y X^H, X and Y stacked,
    # as before, from the certificate's shifted polynomials zero-padded to
    # one grid and flattened z-major
    seen, svds = _with_blocks(monkeypatch), []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: svds.append(a.copy()) or svd(a))
    build_detrep(p)
    (P, cert), = seen
    n, m = P.deg[0], P.deg[1] + 1
    deg = (n, m - 1)
    x = (*(q.shifted(0, 1) for q in polys_of(cert.a)), P,
         *(q.shifted(1, 0) for q in polys_of(cert.b)), *polys_of(cert.c))
    y = (*polys_of(cert.a), reflect(P, deg), *polys_of(cert.b),
         *(q.shifted(1, 0) for q in polys_of(cert.c)))
    x, y = (grid_stack(rows, (n + 1, m)).reshape((n + 1) * m, -1).T for rows in (x, y))
    (got,) = svds
    assert np.array_equal(got, y @ x.conj().T)
