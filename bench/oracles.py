"""Independent checks of CLI answers.

Nothing here imports ``bszego``: polynomials are evaluated with numpy,
moments are recomputed by a 1-D reduction or a finer Riemann sum, and
certificates and pencils are re-evaluated at fresh random points.  ``judge``
returns an outcome, "right", "known" (a failure mode the corpus
documents for that problem) or "wrong", and the accuracy residual, which
is ``None`` for answers that carry none (negative controls, booleans).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

MODULUS_TOL = 1e-6     # |p_hat|^2 against |p|^2, both unit mean on the torus
MOMENT_TOL = 1e-8      # moment error relative to c_00
GDV_UNITARY_TOL = 1e-8
GDV_DET_TOL = 1e-6


def coeffs(doc):
    """Coefficient grid from a polynomial JSON document."""
    arr = np.asarray(doc["coeffs"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def torus_values(a, N=256):
    """p on the N x N torus grid, by an inverse FFT of the padded grid."""
    a = np.asarray(a, dtype=complex)
    emb = np.zeros((N, N), dtype=complex)
    emb[: a.shape[0], : a.shape[1]] = a
    return np.fft.ifft2(emb) * (N * N)


def modulus_gap(a_src, a_hat, N=256):
    """max | |p_hat|^2 / ||p_hat||^2 - |p|^2 / ||p||^2 | on the torus grid."""
    u = np.abs(torus_values(a_src, N)) ** 2
    v = np.abs(torus_values(a_hat, N)) ** 2
    return float(np.max(np.abs(v / v.mean() - u / u.mean())))


def reference_moments(a, jmax, kmax, zw_only=False):
    """Moments of 1/|p|^2 by a 1-D reduction or a 1024^2 Riemann sum.

    For p(z, w) = f(zw) the density depends on zw alone, so c_{j,k}
    vanishes off the diagonal and c_{j,j} is a one-variable Fourier
    coefficient of 1/|f|^2, computed on 2^16 points.
    """
    a = np.asarray(a, dtype=complex)
    out = np.zeros((2 * jmax + 1, 2 * kmax + 1), dtype=complex)
    if zw_only:
        f = np.array([a[d, d] for d in range(min(a.shape))])
        N = 1 << 16
        z = np.exp(2j * np.pi * np.arange(N) / N)
        g = np.fft.fft(1.0 / np.abs(npoly.polyval(z, f)) ** 2) / N
        for j in range(-min(jmax, kmax), min(jmax, kmax) + 1):
            out[j + jmax, j + kmax] = g[j % N]
        return out
    N = 1024
    dens = 1.0 / np.abs(torus_values(a, N)) ** 2
    chat = np.fft.fft2(dens) / (N * N)
    js = np.arange(-jmax, jmax + 1) % N
    ks = np.arange(-kmax, kmax + 1) % N
    return chat[np.ix_(js, ks)]


def _table(doc):
    arr = np.asarray(doc["c"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _reflect(a, n, m):
    """z^n w^m conj(p)(1/z, 1/w) with p padded to degree (n, m)."""
    out = np.zeros((n + 1, m + 1), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    return np.conj(out[::-1, ::-1])


def sos_identity_residual(a, doc, rng, count=2000, radius=1.5):
    """Relative mismatch of the certificate kernel identity at fresh points.

    Points are drawn from the same square |Re|, |Im| <= 1.5 the
    certificate's own residual refers to, on the diagonal (zeta, eta) =
    (z, w) and at independent pairs; the mismatch is divided by the
    largest term of the identity over the sample.
    """
    n, m = doc.get("deg", [a.shape[0] - 1, a.shape[1] - 1])
    refl = _reflect(a, n, m)

    def draw():
        re, im = rng.uniform(-radius, radius, (2, count))
        return re + 1j * im

    z, w = draw(), draw()
    pairs = ((z, w), (draw(), draw()))
    blocks = {name: [coeffs(q) for q in doc[name]] for name in ("A", "B", "C")}
    worst, scale = 0.0, 1.0
    for zeta, eta in pairs:
        def kern(g):
            return npoly.polyval2d(z, w, g) * np.conj(npoly.polyval2d(zeta, eta, g))

        pp, rr = kern(a), kern(refl)
        sums = {}
        for name, polys in blocks.items():
            terms = [kern(g) for g in polys]
            sums[name] = np.sum(terms, axis=0) if terms else np.zeros(count)
            for t in terms:
                scale = max(scale, float(np.max(np.abs(t))))
        scale = max(scale, float(np.max(np.abs(pp))), float(np.max(np.abs(rr))))
        lhs = pp - w * np.conj(eta) * rr if doc["variant"] == "G" else pp - rr
        rhs = ((1 - w * np.conj(eta)) * sums["A"]
               + (1 - z * np.conj(zeta)) * (sums["B"] - sums["C"]))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst / scale


def _pencil_det(U, m, n1, n2, z, w):
    delta = np.diag(np.concatenate([np.full(m, w), np.full(n1, z),
                                    np.ones(n2)]).astype(complex))
    gamma = np.diag(np.concatenate([np.ones(m + n1),
                                    np.full(n2, z)]).astype(complex))
    return np.linalg.det(U @ delta - gamma)


def gdv_residuals(a, doc, rng, count=32):
    """(unitarity defect of U, relative spread of det(U Delta - Gamma) / p)."""
    rep = doc["detrep"]
    U = coeffs({"coeffs": rep["U"]})
    n1, n2 = rep["n1"], rep["n2"]
    m = U.shape[0] - n1 - n2
    unitary = float(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))))
    scale = complex(*rep["scale"])
    ratios = []
    big = float(np.max(np.abs(a)))
    while len(ratios) < count:
        z, w = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        pv = npoly.polyval2d(z, w, a)
        if abs(pv) > 1e-2 * big:
            ratios.append(_pencil_det(U, m, n1, n2, z, w) / pv)
    spread = float(np.max(np.abs(np.asarray(ratios) - scale)) / abs(scale))
    return unitary, spread


def judge(prob, code, doc, rng):
    """(outcome, residual) of one answer; see the module docstring."""
    ok, resid = check(prob, code, doc, rng)
    if ok:
        return "right", resid
    tag = doc.get("error") or doc.get("verdict") if isinstance(doc, dict) else None
    if (code, tag) in prob.expect.get("defects", ()):
        return "known", resid
    return "wrong", resid


def check(prob, code, doc, rng):
    """Whether the answer to ``prob`` is right, and its accuracy residual."""
    exp = prob.expect
    if code != exp["exit"]:
        return False, None
    if "error" in exp:
        return isinstance(doc, dict) and doc.get("error") == exp["error"], None
    pipe = prob.pipeline
    if pipe in ("reconstruct", "factor"):
        gap = modulus_gap(exp["p"], coeffs(doc))
        return gap <= MODULUS_TOL, gap
    if pipe == "ar":
        if doc["classification"] == "none" or doc["a"] is None:
            return False, None
        gap = modulus_gap(exp["p"], coeffs(doc["a"]))
        return gap <= MODULUS_TOL, gap
    if pipe == "check":
        ok = doc["holds"] and doc["d_min"] <= exp["n2"] <= doc["d_max"]
        return bool(ok), None
    if pipe == "full":
        verdict = exp.get("verdict", "pass")
        return doc["verdict"] == verdict, None
    if pipe == "moments":
        c = _table(doc)
        jmax, kmax = doc["jmax"], doc["kmax"]
        ref = reference_moments(exp["p"], jmax, kmax, exp.get("zw_only", False))
        err = float(np.max(np.abs(c - ref))) / abs(ref[jmax, kmax])
        return err <= MOMENT_TOL, err
    if pipe == "sos":
        n, m = np.asarray(exp["p"]).shape[0] - 1, np.asarray(exp["p"]).shape[1] - 1
        counts = (len(doc["A"]), doc["n1"], doc["n2"])
        want = (m, n - exp["n2"], exp["n2"])
        resid = sos_identity_residual(exp["p"], doc, rng)
        return counts == want and resid <= exp["tol"], resid
    if pipe == "gdv":
        unitary, spread = gdv_residuals(exp["p"], doc, rng)
        ok = unitary <= GDV_UNITARY_TOL and spread <= GDV_DET_TOL
        return ok, max(unitary, spread)
    raise ValueError(f"no oracle for pipeline {pipe!r}")
