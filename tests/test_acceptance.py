"""Acceptance suite: one test per criterion, one printed pass/fail line.

All corpora are seeded; tolerances are the contractual values.
"""

import time

import numpy as np

from bszego import (BiPoly, MomentSpace, MomentTable, MomentDivergence,
                    NotGdv, NotPositive, TrigPoly, build_operators, build_detrep,
                    certificate_closed_face, check_full_measure,
                    check_matrix_condition, enumerate_split_polys, gw_check,
                    is_positive, moments_from_density, reconstruct_p,
                    shift_split_from_p, solve_ar)
from bszego.cli import main as cli_main

from conftest import (containment_defect, geometric_diag_moment, polys_of,
                      random_corpus_poly, sampled_grids, torus_grid,
                      trig_abs_squared)


def report(num, ok, detail=""):
    print(f"\nacceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def corpus(rng, count, allow_unstable_q=False):
    out = []
    while len(out) < count:
        p = random_corpus_poly(rng, allow_unstable_q=allow_unstable_q)
        if p.deg[0] >= 1 and p.deg[1] >= 1:
            out.append(p)
    return out


def test_criterion_01_moment_engine(p_2zw, monkeypatch):
    grids = sampled_grids(monkeypatch)
    start = time.time()
    table = moments_from_density(p_2zw, 3, 3)
    worst = max(abs(table.at(j, j) - geometric_diag_moment(j, 2.0))
                for j in range(-3, 4))
    elapsed = time.time() - start
    report(1, worst < 1e-10 and elapsed < 1.0 and max(grids) <= 256,
           f"max diag error {worst:.2e}, {elapsed:.2f}s on <=256^2 grids")


def test_criterion_02_equivalence_suite():
    rng = np.random.default_rng(202)
    worst_viol = worst_orth = worst_contain = worst_span = worst_mom = 0.0
    for p in corpus(rng, 20):
        n, m = p.deg
        table = moments_from_density(p, n, m)
        sp = MomentSpace(table, n, m)
        rep = check_matrix_condition(build_operators(sp))
        assert rep.holds
        worst_viol = max(worst_viol, rep.max_violation)
        split = shift_split_from_p(sp, p)
        assert split.k1.dim + split.k2.dim == n
        if split.k1.dim and split.k2.dim:
            worst_orth = max(worst_orth, float(np.max(np.abs(
                sp.cross(split.k1, split.k2.shifted(1, 0))))))
        e1big = sp.basis("E1", n, m)
        worst_contain = max(worst_contain,
                            containment_defect(sp, split.k1, e1big),
                            containment_defect(sp, split.k2.shifted(1, 0), e1big))
        e1small = sp.basis("E1", n - 1, m)
        both = np.hstack([sp.embed_basis(split.k1), sp.embed_basis(split.k2)])
        proj = sp.embed_basis(e1small)
        resid = both - proj @ (proj.conj().T @ both)
        worst_span = max(worst_span, float(np.linalg.norm(resid)))
        t2 = moments_from_density(split.split_poly, n, m)
        worst_mom = max(worst_mom, float(np.max(np.abs(t2.c - table.c))))
    ok = (worst_viol < 1e-8 and worst_orth < 1e-8 and worst_contain < 1e-8
          and worst_span < 1e-8 and worst_mom < 1e-7)
    report(2, ok,
           f"20 polys: violation {worst_viol:.1e}, orth {worst_orth:.1e}, "
           f"containment {worst_contain:.1e}, span {worst_span:.1e}, "
           f"moment match {worst_mom:.1e}")


def test_criterion_03_geronimo_woerdeman(p_2zw):
    stable_inputs = [p_2zw,
                     BiPoly([[3], [-1.0]]) * BiPoly([[2.0, -1.0]])]
    rng = np.random.default_rng(303)
    stable_inputs += corpus(rng, 3)
    ok = True
    detail = []
    for p in stable_inputs:
        n, m = p.deg
        sp = MomentSpace(moments_from_density(p, n, m), n, m)
        rep = check_matrix_condition(build_operators(sp))
        ok &= gw_check(sp) and rep.dim_a == 0
    # forced-unstable inputs: disk roots of p(z, 0) that are not z-only
    a = np.sqrt(2 + np.sqrt(3.0))
    b = -np.sqrt(2 - np.sqrt(3.0))
    for p in (BiPoly([[0, -0.5], [1, 0]]), BiPoly([[0, b], [a, 0]])):
        sp = MomentSpace(moments_from_density(p, 1, 1), 1, 1)
        rep = check_matrix_condition(build_operators(sp))
        ok &= (not gw_check(sp)) and rep.dim_a >= 1
        detail.append(f"dimA={rep.dim_a}")
    report(3, ok, "stable pass with dimA=0; forced-unstable fail "
           + " ".join(detail))


def test_criterion_04_reconstruction_round_trip():
    rng = np.random.default_rng(404)
    start = time.time()
    worst = 0.0
    for p in corpus(rng, 10, allow_unstable_q=True):
        n, m = p.deg
        table = moments_from_density(p, n, m)
        phat = reconstruct_p(table, n, m)
        nrm = MomentSpace(table, n, m).norm(p)
        zz, ww = torus_grid(256)
        gap = np.max(np.abs(np.abs(phat(zz, ww)) ** 2
                            - np.abs(p(zz, ww) / nrm) ** 2))
        rel = float(gap / np.max(np.abs(p(zz, ww) / nrm) ** 2))
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(4, worst <= 1e-6 and elapsed < 30.0,
           f"10 polys, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_stratification():
    p = BiPoly([[3], [-1.0]]) * BiPoly([[2], [-1.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 3, 1)
    sp = MomentSpace(table, 3, 1)
    rep = check_matrix_condition(build_operators(sp))
    out = enumerate_split_polys(sp)
    nrm = sp.norm(p)
    zz, ww = torus_grid(128)
    ref = np.abs(p(zz, ww)) / nrm
    worst = max(float(np.max(np.abs(np.abs(cand(zz, ww)) - ref)))
                for cand, _ in out)
    ok = (len(out) == 4 and sorted(d for _, d in out) == [0, 1, 1, 2]
          and worst < 1e-8 and (rep.d_min, rep.d_max) == (0, 2))
    report(5, ok, f"4 split-polys, d={[d for _, d in out]}, "
           f"modulus gap {worst:.1e}, interval [{rep.d_min},{rep.d_max}]")


def test_criterion_06_sos_certificates(p_2zw):
    cert = certificate_closed_face(p_2zw)
    rng = np.random.default_rng(606)
    worst_identity = 0.0
    for _ in range(200):
        z, w = 1.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        analytic = 3 * (1 - abs(w) ** 2) + 3 * abs(w) ** 2 * (1 - abs(z) ** 2)
        built = (1 - abs(w) ** 2) * sum(abs(q(z, w)) ** 2 for q in polys_of(cert.a)) \
            + (1 - abs(z) ** 2) * (sum(abs(q(z, w)) ** 2 for q in polys_of(cert.b))
                                   - sum(abs(q(z, w)) ** 2 for q in polys_of(cert.c)))
        worst_identity = max(worst_identity, abs(built - analytic))
    counts_ok = (cert.a.shape[2], cert.n1, cert.n2) == (1, 1, 0)
    cert2 = certificate_closed_face(BiPoly([[1.0], [-2.0]]))
    counts2_ok = (cert2.a.shape[2], cert2.n1, cert2.n2) == (0, 0, 1)
    c1_ok = abs(abs(cert2.c[0, 0, 0]) - np.sqrt(3.0)) < 1e-10
    worst_kernel = 0.0
    for p in corpus(np.random.default_rng(202), 20):
        c = certificate_closed_face(p)
        worst_kernel = max(worst_kernel, c.residual)
    ok = (worst_identity < 1e-10 and counts_ok and counts2_ok and c1_ok
          and worst_kernel < 1e-8)
    report(6, ok, f"identity {worst_identity:.1e}, counts {counts_ok}, "
           f"C1=sqrt3 {c1_ok}, corpus kernel residual {worst_kernel:.1e}")


def test_criterion_07_schur_cohn():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        mods = np.where(rng.uniform(size=deg) < 0.5,
                        rng.uniform(0.2, 0.85, deg),
                        rng.uniform(1.15, 3.0, deg))
        rts = mods * np.exp(2j * np.pi * rng.uniform(size=deg))
        p = BiPoly(np.polynomial.polynomial.polyfromroots(rts)[:, None])
        cert = certificate_closed_face(p)
        ok &= cert.n2 == int(np.sum(mods < 1.0))
    report(7, ok, "certificate-implied disk-root count matches companion "
                  "count on 10 random polynomials")


def test_criterion_08_determinantal_representations():
    ok = True
    details = []
    rng = np.random.default_rng(808)
    for p, dim in ((BiPoly([[0, -1], [1, 0]]), 2),
                   (BiPoly([[0, -1], [0, 0], [1, 0]]), 3)):
        rep = build_detrep(p)
        unit = float(np.linalg.norm(rep.u.conj().T @ rep.u - np.eye(dim)))
        worst = 0.0
        count = 0
        while count < 100:
            z = complex(*rng.uniform(-2, 2, 2))
            w = complex(*rng.uniform(-2, 2, 2))
            pv = p(z, w)
            if abs(pv) < 1e-2:
                continue
            worst = max(worst, abs(rep._det_pencil(z, w) - rep.scale * pv)
                        / abs(rep.scale * pv))
            count += 1
        ok &= unit < 1e-8 and worst < 1e-6
        details.append(f"unitarity {unit:.1e} det-residual {worst:.1e}")
    try:
        build_detrep(BiPoly([[0, -2], [1, 0]]))
        ok = False
        details.append("z-2w not rejected")
    except NotGdv:
        details.append("z-2w NotGdv")
    report(8, ok, "; ".join(details))


def test_criterion_09_full_measure(p_2zw):
    ok = True
    details = []
    for p in (p_2zw,
              BiPoly([[1], [-2.0]]) * p_2zw,
              BiPoly([[3], [-1.0]]) * BiPoly([[2.0, -1.0]])):
        n, m = p.deg
        table = moments_from_density(p, max(n + 4, 2 * n), m + 3)
        rep = check_full_measure(table, n, m)
        worst = max((*rep.e2_conditions.values(), *rep.h_conditions.values()),
                    default=0.0)
        ok &= rep.verdict == "pass" and worst < 1e-7
        details.append(f"{rep.verdict} {worst:.1e}")
    c = np.zeros((11, 9), dtype=complex)
    for j in range(-4, 5):
        c[j + 5, j + 4] = 0.5 * geometric_diag_moment(j, 2.0)
    c[5, 4] += 0.5
    mixed = MomentTable(5, 4, c)
    repm = check_full_measure(mixed, 1, 1)
    ok &= repm.verdict == "fail"
    details.append(f"mixed {repm.verdict}")
    report(9, ok, "; ".join(details))


def test_criterion_10_autoregressive(p_2zw):
    # 2 - zw is stable on the closed bidisk: causal, A = 0.
    # 1 + 4z + w has no zero on |z| = 1, |w| <= 1 (|4z| > |1 + w|) but
    # vanishes at (-1/4, 0) and has no z-only factor, so no flip makes it
    # stable: the only filter for its data is acausal, A != 0.
    # (1 - 2z)(2 - w) has the data of (2 - z)(2 - w), since |1 - 2z| =
    # |2 - z| on |z| = 1; the data pick out that stable representative.
    cases = [(p_2zw, "causal", [[2, 0], [0, -1]]),
             (BiPoly([[1.0, 1.0], [4.0, 0.0]]), "acausal", [[1, 1], [4, 0]]),
             (BiPoly([[1], [-2.0]]) * BiPoly([[2.0, -1.0]]), "causal",
              [[4, -2], [-2, 1]])]
    ok = True
    details = []
    for p, expected, coeffs in cases:
        table = moments_from_density(p, 1, 1)
        sol = solve_ar(table, 1, 1)
        case_ok = (sol.classification == expected
                   and np.allclose(sol.coefficients.coeffs, coeffs,
                                   atol=1e-8))
        for s in (1e-3, 1e3):
            case_ok &= solve_ar(MomentTable(1, 1, table.c * s), 1, 1
                                ).classification == expected
        ok &= case_ok
        details.append(f"{sol.classification} (A "
                       f"{sol.a_operator_norm:.1e}) "
                       f"{'ok' if case_ok else 'WRONG'}")
    report(10, ok, "2-zw, 1+4z+w, (1-2z)(2-w): " + "; ".join(details))


def test_criterion_11_negative_controls(tmp_path, p_2zw):
    ok = True
    details = []
    try:
        moments_from_density(BiPoly([[1, 0], [0, -1.0]]), 1, 1)
        ok = False
    except MomentDivergence:
        details.append("1-zw MomentDivergence")
    bad = np.zeros((3, 3), dtype=complex)
    bad[1, 1] = -1.0
    posi, _ = is_positive(MomentTable(1, 1, bad), 1, 1)
    ok &= not posi
    try:
        solve_ar(MomentTable(1, 1, bad), 1, 1)
        ok = False
    except NotPositive:
        details.append("indefinite NotPositive")

    import contextlib
    import io
    import json as _json
    from bszego.jsonio import dumps, poly_to_json, table_to_json

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    pbad = tmp_path / "divergent.json"
    pbad.write_text(dumps(poly_to_json(BiPoly([[1, 0], [0, -1.0]]))))
    code, _ = run(["moments", "--poly", str(pbad), "--jmax", "1", "--kmax", "1"])
    ok &= code == 3
    details.append(f"cli divergence exit {code}")

    mbad = tmp_path / "indefinite.json"
    mbad.write_text(dumps({"jmax": 1, "kmax": 1,
                           "c": [[[v.real, v.imag] for v in row] for row in bad]}))
    code, _ = run(["check", "--moments", str(mbad), "--n", "1", "--m", "1"])
    ok &= code == 2
    details.append(f"cli indefinite exit {code}")

    zbad = tmp_path / "z2w.json"
    zbad.write_text(dumps(poly_to_json(BiPoly([[0, -2], [1, 0]]))))
    code, out = run(["gdv", "--poly", str(zbad)])
    ok &= code == 1 and _json.loads(out)["error"] == "NotGdv"
    details.append(f"cli gdv exit {code}")

    # a sum of two incompatible squared moduli is not factorable
    a = trig_abs_squared(p_2zw)
    b = trig_abs_squared(BiPoly([[2, -1.0], [-0.5, 0]]))
    c2 = np.zeros((5, 5), dtype=complex)
    c2[1:4, 1:4] += a.c + b.c
    tbad = tmp_path / "trig.json"
    tbad.write_text(dumps(table_to_json(TrigPoly(2, 2, c2))))
    code, out = run(["factor", "--trig", str(tbad), "--n", "2", "--m", "2"])
    ok &= code == 1 and _json.loads(out)["error"] == "NotFactorable"
    details.append(f"cli factor exit {code}")
    report(11, ok, "; ".join(details))
