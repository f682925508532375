import io
import json
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bszego import (BiPoly, MomentTable, SosCertificate, is_positive,
                    moments_from_density, verify_certificate)
from bszego import reconstruct as reconstruct_mod
from bszego.cli import main
from bszego.errors import InvalidInput
from bszego.jsonio import dumps, poly_from_json, poly_to_json, table_to_json

from conftest import (alpha_zw_poly, cli_document, perturb_poly, shifted_c00,
                      trig_abs_squared)


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


CHECK_KEYS = {"holds", "max_violation", "dimA", "dimB", "d_min", "d_max"}


@pytest.fixture(scope="module")
def files(tmp_path_factory, p_2zw):
    d = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, doc):
        path = d / name
        path.write_text(dumps(doc))
        paths[name] = str(path)

    put("p.json", poly_to_json(p_2zw))
    put("one.json", poly_to_json(BiPoly([[1.0]])))
    put("zw.json", poly_to_json(BiPoly([[0, -1], [1, 0]])))
    put("z2w.json", poly_to_json(BiPoly([[0, -2], [1, 0]])))
    put("divergent.json", poly_to_json(BiPoly([[1, 0], [0, -1.0]])))
    put("trig.json", table_to_json(trig_abs_squared(p_2zw)))
    bad = np.zeros((3, 3), dtype=complex)
    bad[1, 1] = -1.0
    put("indefinite.json", {"jmax": 1, "kmax": 1,
                            "c": [[[v.real, v.imag] for v in row] for row in bad]})
    return paths


def test_moments_then_check_then_reconstruct(files, tmp_path):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "1", "--kmax", "1"])
    assert code == 0
    mpath = tmp_path / "m.json"
    mpath.write_text(out)

    code, out = run(["check", "--moments", str(mpath), "--n", "1", "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["d_max"] == 0
    assert set(doc) == CHECK_KEYS

    code, out = run(["reconstruct", "--moments", str(mpath),
                     "--n", "1", "--m", "1"])
    assert code == 0
    p = poly_from_json(json.loads(out))
    assert np.allclose(p.coeffs, [[2, 0], [0, -1]], atol=1e-8)


def test_factor_roundtrip(files):
    code, out = run(["factor", "--trig", files["trig.json"],
                     "--n", "1", "--m", "1"])
    assert code == 0
    p = poly_from_json(json.loads(out))
    assert np.allclose(p.coeffs, [[2, 0], [0, -1]], atol=1e-8)


def test_check_indefinite_exit_2(files):
    code, out = run(["check", "--moments", files["indefinite.json"],
                     "--n", "1", "--m", "1"])
    assert code == 2
    assert json.loads(out)["error"] == "NotPositive"


def _table_file(tmp_path, name, table):
    path = tmp_path / name
    path.write_text(dumps(table_to_json(table)))
    return str(path)


def test_check_verdict_does_not_depend_on_scale(tmp_path, table_2zw):
    keys = ("holds", "dimA", "dimB", "d_min", "d_max")
    nm = ["--n", "3", "--m", "3"]
    code, out = run(["check", "--moments",
                     _table_file(tmp_path, "c.json", table_2zw)] + nm)
    assert code == 0
    base = {k: json.loads(out)[k] for k in keys}
    bad = np.zeros((3, 3), dtype=complex)
    bad[1, 1] = -1.0
    for s in (1e-15, 1e15):
        table = MomentTable(3, 3, s * table_2zw.c)
        code, out = run(["check", "--moments",
                         _table_file(tmp_path, f"c{s}.json", table)] + nm)
        assert code == 0
        assert {k: json.loads(out)[k] for k in keys} == base
        # one gate: check, reconstruct and ar refuse the indefinite table
        # alike, with one message
        path = _table_file(tmp_path, f"i{s}.json", MomentTable(1, 1, s * bad))
        docs = []
        for command, flag in (("check", "--moments"), ("reconstruct", "--moments"),
                              ("ar", "--autocorr")):
            code, out = run([command, flag, path, "--n", "1", "--m", "1"])
            docs.append(json.loads(out))
            assert code == 2 and docs[-1]["error"] == "NotPositive"
        assert docs[0]["message"].startswith("moment form not positive")
        assert all(doc == docs[0] for doc in docs)


def test_ill_conditioned_table_exit_3(tmp_path):
    # prod (alpha - zw) over alpha = linspace(2, 4, 16): positive, but the
    # Krylov rank cut overcounts the A-space (dim 7 next to a 16-dim B-space)
    p = BiPoly([[1.0]])
    for alpha in np.linspace(2, 4, 16):
        p = p * BiPoly([[alpha, 0], [0, -1.0]])
    path = _table_file(tmp_path, "a.json", moments_from_density(p, 16, 16))
    nm = ["--n", "16", "--m", "16"]
    for argv in (["check", "--moments", path], ["reconstruct", "--moments", path],
                 ["ar", "--autocorr", path]):
        code, out = run(argv + nm)
        assert code == 3 and json.loads(out)["error"] == "DegenerateForm"


@pytest.mark.parametrize("ratio", [-1e-3, 0.0, 0.5e-12, 2e-12, 1e-3])
def test_the_gate_refuses_what_is_positive_refuses(tmp_path, monkeypatch, ratio):
    # check, reconstruct, ar and factor (on the moments of 1/t, here the
    # shifted table) pass a table with smallest / largest Gram eigenvalue
    # above 1e-12 through the gate, and refuse every other with exit 2 and
    # one document that prints is_positive's eigenvalue
    p = perturb_poly(22, 2, 2)
    table = shifted_c00(moments_from_density(p, 2, 2), 2, 2, ratio)
    ok, lam = is_positive(table, 2, 2)
    assert ok == (ratio > 1e-12)
    monkeypatch.setattr(reconstruct_mod, "moments_from_trig", lambda t, n, m: table)
    path = _table_file(tmp_path, "c.json", table)
    trig = _table_file(tmp_path, "t.json", trig_abs_squared(p))
    for command, flag, name in (("check", "--moments", path),
                                ("reconstruct", "--moments", path),
                                ("ar", "--autocorr", path), ("factor", "--trig", trig)):
        code, out = run([command, flag, name, "--n", "2", "--m", "2"])
        if ok:
            assert code != 2, command
        else:
            assert code == 2 and json.loads(out) == {
                "error": "NotPositive",
                "message": f"moment form not positive (eigenvalue {lam:.3e})"}, command


def test_factor_exits_3_where_check_does(tmp_path, monkeypatch):
    # the ill-conditioned table of the test above, reached by factor as the
    # moments of 1/t: past the gate, the same DegenerateForm and message
    p = alpha_zw_poly(np.linspace(2, 4, 16))
    table = moments_from_density(p, 16, 16)
    monkeypatch.setattr(reconstruct_mod, "moments_from_trig", lambda t, n, m: table)
    nm = ["--n", "16", "--m", "16"]
    docs = []
    for argv in (["check", "--moments", _table_file(tmp_path, "a.json", table)],
                 ["factor", "--trig", _table_file(tmp_path, "t.json", trig_abs_squared(p))]):
        code, out = run(argv + nm)
        docs.append(json.loads(out))
        assert code == 3 and docs[-1]["error"] == "DegenerateForm"
    assert docs[0] == docs[1]


def test_moments_divergence_exit_3(files):
    code, out = run(["moments", "--poly", files["divergent.json"],
                     "--jmax", "1", "--kmax", "1"])
    assert code == 3
    assert json.loads(out)["error"] == "MomentDivergence"


def test_grid_limits(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(dumps(poly_to_json(BiPoly([[3.0, 0.0], [0.0, -1.0]]))))
    # window 1024 starts at grid 4096^2, the cap: one grid, nothing to compare
    code, out = run(["moments", "--poly", str(path), "--jmax", "1024", "--kmax", "1"])
    assert code == 2 and json.loads(out)["error"] == "ValueError"
    assert "fewer than two grids up to 4096^2" in json.loads(out)["message"]
    # 1.01 - zw is still moving at the fixed cap, and no flag moves the cap
    # or the stopping rule
    path.write_text(dumps(poly_to_json(BiPoly([[1.01, 0.0], [0.0, -1.0]]))))
    code, out = run(["moments", "--poly", str(path), "--jmax", "1", "--kmax", "1"])
    assert code == 3
    assert "did not stabilize at grid 4096^2" in json.loads(out)["message"]


def test_gdv_negative_exit_1(files):
    code, out = run(["gdv", "--poly", files["z2w.json"]])
    assert code == 1
    assert json.loads(out)["error"] == "NotGdv"


def test_gdv_positive(files):
    code, out = run(["gdv", "--poly", files["zw.json"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["detrep"]["residual"] < 1e-6
    assert doc["geometry"]["passed"] is True
    assert doc["detrep"]["n1"] == 0 and doc["detrep"]["n2"] == 1
    assert len(doc["detrep"]["U"]) == 2 and len(doc["detrep"]["U"][0]) == 2


def test_sos_command(files):
    code, out = run(["sos", "--poly", files["p.json"]])
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["A"]), doc["n1"], doc["n2"]) == (1, 1, 0)
    assert doc["variant"] == "L"
    code2, out2 = run(["sos", "--poly", files["p.json"]])
    assert out == out2          # byte-identical: the sampled points are fixed


def test_sos_open_face_common_factor(files):
    code, out = run(["sos", "--poly", files["zw.json"], "--open-face"])
    assert code == 1
    assert json.loads(out)["error"] == "CommonFactor"


Q_2Z_12Z = BiPoly([[2.0], [-1.0]]) * BiPoly([[1.0], [-2.0]])   # (2 - z)(1 - 2z)


@pytest.mark.parametrize("p", [Q_2Z_12Z * BiPoly([[2.0, 0.0], [0.0, -1.0]]),
                               Q_2Z_12Z], ids=["m1", "m0"])
def test_sos_open_face_returns_the_closed_face_certificate(tmp_path, p):
    # (2 - z)(1 - 2z) is its own reflection up to sign, so p shares it with
    # its reflection; that refuses only the refinement, and the closed-face
    # certificate comes first
    closed = cli_document(tmp_path, "sos", "--poly", poly_to_json(p))
    opened = cli_document(tmp_path, "sos", "--poly", poly_to_json(p), "--open-face")
    assert closed[0] == 0 and closed[1]["residual"] < 1e-14
    assert opened == closed


def test_sos_refuses_a_face_zero(tmp_path):
    # the blocks of 1 - 2w certify 2 - w, of the same modulus on the torus.
    # Its zero w = 1/2 lies inside the open face too, on every z-slice, so
    # open-face sos names a slice up front instead of refining blocks; as
    # it does for 1 - 2w times (2 - z) and times (2 - zw)^2
    one_2w, two_zw = BiPoly([[1.0, -2.0]]), BiPoly([[2.0, 0.0], [0.0, -1.0]])
    for p in (one_2w, BiPoly([[2.0], [-1.0]]) * one_2w, one_2w * two_zw * two_zw):
        doc = poly_to_json(p)
        code, out = cli_document(tmp_path, "sos", "--poly", doc)
        assert (code, out["error"]) == (3, "RootNearTorus")
        code, out = cli_document(tmp_path, "sos", "--poly", doc, "--open-face")
        assert (code, out["error"]) == (3, "RootNearTorus")
        assert out["message"].startswith("w-root of modulus 0.500000 at z = ")


def test_sos_open_face_refuses_slices_that_vanish(tmp_path):
    # (z - z0)(2 - w) and (1 - z/z3)(3 + w) vanish on the face along a
    # sample z of the face check; the twin of the second, with its z-root
    # between two samples, is not seen there and is refused as a common
    # factor with its reflection, which it also is
    z0, z3, z3b = (np.exp(2j * np.pi * a / 64) for a in (0.31, 3.31, 3.81))
    for p, z in ((BiPoly([[-z0], [1]]) * BiPoly([[2, -1]]), z0),
                 (BiPoly([[3, 1], [-3 / z3, -1 / z3]]), z3)):
        code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(p),
                                 "--open-face")
        assert (code, out) == (3, {"error": "RootNearTorus", "message":
                                   f"p({z}, w) vanishes identically in w"})
    twin = BiPoly([[3, 1], [-3 / z3b, -1 / z3b]])
    code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(twin),
                             "--open-face")
    assert (code, out["error"]) == (1, "CommonFactor")


def test_sos_open_face_refuses_a_start_it_cannot_build(tmp_path):
    # z - 1 + 0.01w has face zeros near z = 1 that the face check's samples
    # miss (ROADMAP item 15); the certificate is refused as not found
    p = BiPoly([[-1.0, 0.01], [1.0, 0.0]])
    code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(p), "--open-face")
    assert (code, out["error"]) == (3, "NoConvergence")


def test_sos_refuses_a_zero_at_w_0(tmp_path):
    # w (2 - z) vanishes on the whole slice w = 0
    p = BiPoly([[0, 2], [0, -1]])
    code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(p))
    assert (code, out["error"]) == (3, "RootNearTorus")
    assert out["message"] == "p(z, 0) vanishes identically (zero at w = 0)"


def test_full_refuses_a_depth_below_the_degree(files):
    code, out = run(["full", "--moments", files["trig.json"], "--depth", "0,0"] + N_M)
    assert (code, json.loads(out)) == (2, {"error": "InsufficientMoments",
                                           "message": "depth below the degree bound"})


def test_factor_refuses_a_degree_above_the_caps(tmp_path):
    # |2 + 0.5w - zw|^2 has degree (1, 1), so no p of degree (1, 0) factors it
    t = table_to_json(trig_abs_squared(BiPoly([[2, 0.5], [0, -1]])))
    for n, m in (("1", "0"), ("0", "1")):
        code, out = cli_document(tmp_path, "factor", "--trig", t, "--n", n, "--m", m)
        assert (code, out) == (1, {"error": "NotFactorable",
                                   "message": f"t has degree (1, 1), above ({n}, {m})"})


def test_sos_open_face_keeps_its_tolerance(tmp_path):
    # prod (alpha - zw), alpha = linspace(1.2, 2, 8), degree (8, 8): the
    # moments of the inverse Schur-Cohn matrix do not settle, so closed-face
    # sos refuses it up front, and open-face sos refuses it past the
    # Jacobian cap of its refinement
    p = BiPoly([[1.0]])
    for alpha in np.linspace(1.2, 2.0, 8):
        p = p * BiPoly([[alpha, 0.0], [0.0, -1.0]])
    code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(p))
    assert (code, out["error"]) == (3, "MomentDivergence")
    code, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(p),
                             "--open-face", "--tol", "1e-8")
    assert (code, out["error"]) == (3, "NoConvergence")
    assert "REFINE_MAX_ENTRIES" in out["message"]


@pytest.mark.parametrize("poly, code, error", [
    ([[1.01, 0.0], [0.0, -1.0]], 0, None),
    ([[1.001, 0.0], [0.0, -1.0]], 0, None),
    ([[1.0, -2.0]], 3, "RootNearTorus"),
    ([[0.0, 2.0], [0.0, -1.0]], 3, "RootNearTorus"),
], ids=["1.01-zw", "1.001-zw", "1-2w", "w(2-z)"])
def test_sos_near_and_on_the_face(tmp_path, poly, code, error):
    # (1 + d) - zw has the constant Schur-Cohn matrix (1 + d)^2 - 1, however
    # small d, and is certified at round-off; 1 - 2w has a w-root inside the
    # disk on every slice, and w (2 - z) vanishes on the slice w = 0
    got, out = cli_document(tmp_path, "sos", "--poly", poly_to_json(BiPoly(poly)))
    assert (got, out.get("error")) == (code, error)
    if code == 0:
        assert (len(out["A"]), out["n1"], out["n2"]) == (1, 1, 0)
        assert out["residual"] <= 1e-15


def test_sos_prints_the_blocks_it_verified(tmp_path):
    # the A blocks of (2 - zw)(2.5 - zw) have z-rows of round-off, which a
    # trim would drop.  Each block is printed on its support, (n, m - 1) for
    # A and (n - 1, m) for B and C, and the residual recomputed from the
    # printed blocks is the printed one
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]]) * BiPoly([[2.5, 0.0], [0.0, -1.0]])
    code, doc = cli_document(tmp_path, "sos", "--poly", poly_to_json(p))
    assert code == 0 and doc["deg"] == [2, 2]
    blocks = {name: tuple(map(poly_from_json, doc[name])) for name in "ABC"}
    assert [q.deg for q in blocks["A"]] == [(2, 1)] * 2
    assert [q.deg for q in blocks["B"] + blocks["C"]] == [(1, 2)] * 2
    assert any(q.trimmed().deg != q.deg for q in blocks["A"])
    cert = SosCertificate(*blocks.values(), residual=np.nan, deg=(2, 2))
    assert verify_certificate(p, cert).residual == doc["residual"]


ZERO_GRID = {"deg": [1, 1], "coeffs": [[[0.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize("argv", [["gdv"], ["sos"], ["sos", "--open-face"]])
def test_zero_polynomial_exits_2(tmp_path, argv):
    code, out = cli_document(tmp_path, argv[0], "--poly", ZERO_GRID, *argv[1:])
    assert (code, out["error"]) == (2, "ZeroPolynomial")
    if argv[0] == "sos":
        assert out["message"] == "density 1/|p|^2 needs a nonzero p"


def test_full_command(files, tmp_path):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "5", "--kmax", "4"])
    assert code == 0
    mpath = tmp_path / "m54.json"
    mpath.write_text(out)
    code, out = run(["full", "--moments", str(mpath),
                     "--n", "1", "--m", "1", "--depth", "4,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["depth"] == [4, 4]


def test_ar_command(files, tmp_path):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "1", "--kmax", "1"])
    mpath = tmp_path / "ar.json"
    mpath.write_text(out)
    code, out = run(["ar", "--autocorr", str(mpath), "--n", "1", "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "causal"
    assert doc["a"]["deg"] == [1, 1]
    assert "a_operator_norm" in doc["diagnostics"]
    # an order above the table's window
    code, out = run(["ar", "--autocorr", str(mpath), "--n", "2", "--m", "1"])
    assert code == 2
    assert json.loads(out)["error"] == "InsufficientMoments"


def test_document_keys(files, tmp_path):
    # the top-level keys of every subcommand's document, and of its nested
    # objects
    mpath = tmp_path / "m.json"
    mpath.write_text(run(["moments", "--poly", files["p.json"],
                          "--jmax", "5", "--kmax", "4"])[1])
    table = ["--moments", str(mpath)] + N_M
    poly = {"deg", "coeffs"}
    docs = {}
    for argv in (["moments", "--poly", files["p.json"]] + WINDOW,
                 ["check"] + table, ["reconstruct"] + table,
                 ["factor", "--trig", files["trig.json"]] + N_M,
                 ["sos", "--poly", files["p.json"]],
                 ["gdv", "--poly", files["zw.json"]],
                 ["full"] + table, ["ar", "--autocorr", str(mpath)] + N_M):
        code, out = run(argv)
        assert code == 0
        docs[argv[0]] = json.loads(out)
    assert {name: set(doc) for name, doc in docs.items()} == {
        "moments": {"jmax", "kmax", "c"},
        "check": CHECK_KEYS,
        "reconstruct": poly,
        "factor": poly,
        "sos": {"A", "B", "C", "n1", "n2", "deg", "residual", "variant"},
        "gdv": {"mu", "geometry", "detrep"},
        "full": {"positivity_ok", "min_eigenvalue", "e2_conditions",
                 "h_conditions", "verdict", "depth", "tol"},
        "ar": {"classification", "a", "diagnostics"},
    }
    assert set(docs["gdv"]["geometry"]) == {"passed", "worst_deviation",
                                            "worst_z", "worst_w"}
    assert set(docs["gdv"]["detrep"]) == {"U", "n1", "n2", "scale", "residual"}
    assert set(docs["ar"]["diagnostics"]) == CHECK_KEYS | {"a_operator_norm",
                                                           "min_eigenvalue"}
    assert set(docs["ar"]["a"]) == poly


def test_stdin_input(files, monkeypatch, p_2zw):
    from bszego.jsonio import poly_to_json as ptj
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(ptj(p_2zw))))
    code, out = run(["moments", "--poly", "-", "--jmax", "1", "--kmax", "1"])
    assert code == 0
    assert json.loads(out)["jmax"] == 1


def test_flags_after_subcommand(files):
    code, out = run(["sos", "--poly", files["p.json"], "--open-face", "--tol", "1e-6"])
    assert code == 0 and json.loads(out)["residual"] <= 1e-6


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(["check", "--moments", str(bad), "--n", "1", "--m", "1"])
    assert code == 2
    # a trig polynomial whose coefficients are not Hermitian-symmetric
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 4.0
    c[2, 1] = 1.0
    trig = tmp_path / "nonhermitian.json"
    trig.write_text(dumps({"jmax": 1, "kmax": 1,
                           "c": [[[v.real, v.imag] for v in row] for row in c]}))
    code, out = run(["factor", "--trig", str(trig), "--n", "1", "--m", "1"])
    assert code == 2 and json.loads(out)["error"] == "NonPositiveDensity"


def _case(id_, argv, field=None):
    return pytest.param(argv, field, id=id_)


N_M = ["--n", "1", "--m", "1"]
WINDOW = ["--jmax", "1", "--kmax", "1"]


@pytest.mark.parametrize("argv, field", [
    _case("check n<0", ["check", "--moments", "{trig}", "--n", "-1", "--m", "1"]),
    _case("reconstruct m<0", ["reconstruct", "--moments", "{trig}", "--n", "1",
                              "--m", "-1"]),
    _case("ar n<0", ["ar", "--autocorr", "{trig}", "--n", "-1", "--m", "1"]),
    _case("factor n<0", ["factor", "--trig", "{trig}", "--n", "-1", "--m", "1"]),
    _case("full m<0", ["full", "--moments", "{trig}", "--n", "1", "--m", "-1"]),
    _case("jmax<0", ["moments", "--poly", "{poly}", "--jmax", "-1", "--kmax", "1"]),
    _case("kmax<0", ["moments", "--poly", "{poly}", "--jmax", "1", "--kmax", "-1"]),
    _case("tol 0", ["sos", "--open-face", "--poly", "{poly}", "--tol", "0"]),
    _case("tol<0", ["sos", "--open-face", "--poly", "{poly}", "--tol=-1"]),
    _case("tol nan", ["sos", "--open-face", "--poly", "{poly}", "--tol", "nan"]),
    _case("tol inf", ["sos", "--open-face", "--poly", "{poly}", "--tol", "inf"]),
    _case("deg null", ["sos", "--poly", "{poly}"], ("deg", None)),
    _case("deg triple", ["sos", "--poly", "{poly}"], ("deg", [1, 1, 1])),
    _case("deg string", ["sos", "--poly", "{poly}"], ("deg", "ab")),
    _case("deg float", ["sos", "--poly", "{poly}"], ("deg", [1.0, 1])),
    _case("deg negative", ["sos", "--poly", "{poly}"], ("deg", [-1, 1])),
    _case("jmax null", ["factor", "--trig", "{trig}"] + N_M, ("jmax", None)),
    _case("jmax list", ["factor", "--trig", "{trig}"] + N_M, ("jmax", [1])),
    _case("jmax string", ["factor", "--trig", "{trig}"] + N_M, ("jmax", "1")),
    _case("kmax bool", ["factor", "--trig", "{trig}"] + N_M, ("kmax", True)),
    _case("kmax float", ["factor", "--trig", "{trig}"] + N_M, ("kmax", 1.0)),
])
def test_malformed_numbers_exit_2(tmp_path, argv, field):
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]])
    paths = {}
    for name, doc in (("poly", poly_to_json(p)),
                      ("trig", table_to_json(trig_abs_squared(p)))):
        if field is not None and field[0] in doc:
            doc = {**doc, field[0]: field[1]}
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out = run([a.format(**paths) for a in argv])
    assert code == 2
    assert json.loads(out)["error"] in ("InvalidInput", "ValueError")


def _structure_case(id_, argv, doc, message):
    return pytest.param(argv, doc, message, id=id_)


@pytest.mark.parametrize("argv, doc, message", [
    _structure_case("no coeffs", ["sos", "--poly"], {"deg": [1, 1]},
                    "polynomial JSON needs a 'coeffs' field"),
    _structure_case("not an object", ["sos", "--poly"], 2.0,
                    "polynomial JSON needs a 'coeffs' field"),
    _structure_case("flat grid", ["sos", "--poly"],
                    {"coeffs": [[2.0, 0.0], [0.0, -1.0]]},
                    "polynomial grid must be rows x cols x [re, im]"),
    _structure_case("triple grid", ["sos", "--poly"], {"coeffs": [[[2.0, 0.0, 0.0]]]},
                    "polynomial grid must be rows x cols x [re, im]"),
    _structure_case("deg mismatch", ["sos", "--poly"],
                    {"deg": [2, 1], "coeffs": [[[2.0, 0.0], [0.0, 0.0]]] * 2},
                    "declared degree [2, 1] does not match grid (2, 2)"),
    _structure_case("no c", ["factor", "--trig"], {"jmax": 1, "kmax": 1},
                    "trig polynomial JSON needs a 'c' field"),
    _structure_case("table not an object", ["check", "--moments"], 1.0,
                    "moment table JSON needs a 'c' field"),
    _structure_case("window mismatch", ["check", "--moments"],
                    {"jmax": 2, "kmax": 1, "c": [[[1.0, 0.0]] * 3] * 3},
                    "moment table grid (3, 3) does not match window (2, 1)"),
])
def test_malformed_structure_exit_2(tmp_path, argv, doc, message):
    # the structural refusals of the JSON layer
    extra = [] if argv[0] == "sos" else N_M
    code, out = cli_document(tmp_path, *argv, doc, *extra)
    assert (code, out) == (2, {"error": "InvalidInput", "message": message})


@pytest.mark.parametrize("pipeline, flag, extra, what", [
    ("moments", "--poly", WINDOW, "polynomial"),
    ("sos", "--poly", [], "polynomial"),
    ("gdv", "--poly", [], "polynomial"),
    ("factor", "--trig", N_M, "trig polynomial"),
    ("check", "--moments", N_M, "moment table"),
    ("reconstruct", "--moments", N_M, "moment table"),
    ("full", "--moments", N_M, "moment table"),
    ("ar", "--autocorr", N_M, "moment table"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_input_exit_2(tmp_path, pipeline, flag, extra, what, value):
    # json.load reads NaN and Infinity; every input kind must refuse them
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]])
    if flag == "--poly":
        doc = poly_to_json(p)
        doc["coeffs"][1][1][0] = value
    else:
        doc = table_to_json(trig_abs_squared(p))
        doc["c"][0][0][1] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run([pipeline, flag, str(path)] + extra)
    assert code == 2
    assert json.loads(out) == {"error": "InvalidInput",
                               "message": f"{what} grid holds a non-finite number"}


@pytest.mark.parametrize("pipeline, flag, extra, what", [
    ("moments", "--poly", WINDOW, "polynomial"),
    ("factor", "--trig", N_M, "trig polynomial"),
    ("check", "--moments", N_M, "moment table"),
], ids=["polynomial", "trig", "table"])
@pytest.mark.parametrize("value", ["2", "-0", True, False, 10 ** 400],
                         ids=["string", "string -0", "true", "false", "huge int"])
def test_non_number_entries_exit_2(tmp_path, pipeline, flag, extra, what, value):
    # only JSON numbers that fit a float may stand in a coefficient grid
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]])
    doc = poly_to_json(p) if flag == "--poly" \
        else table_to_json(trig_abs_squared(p))
    doc["coeffs" if flag == "--poly" else "c"][0][0][1] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run([pipeline, flag, str(path)] + extra)
    problem = "a non-finite number" if value == 10 ** 400 \
        else "an entry that is not a number"
    assert code == 2
    assert json.loads(out) == {"error": "InvalidInput",
                               "message": f"{what} grid holds {problem}"}


@pytest.mark.parametrize("argv, message", [
    _case("flag-like value", ["full", "--moments", "{p}", "--depth", "-1,2"] + N_M,
          "argument --depth: expected one argument"),
    _case("no command", [], "the following arguments are required: command"),
    _case("bad int", ["moments", "--poly", "{p}", "--jmax", "x", "--kmax", "1"],
          "argument --jmax: invalid int value: 'x'"),
    *(_case(f"depth {depth}", ["full", "--moments", "{p}", "--depth", depth] + N_M,
            f"argument --depth: expected Nmax,Mmax, not '{depth}'")
      for depth in ("4", "4,x", "4,4,4", "1.5,2")),
])
def test_usage_errors_exit_2_with_json(files, argv, message):
    code, out = run([a.format(p=files["p.json"]) for a in argv])
    assert code == 2
    assert json.loads(out) == {"error": "InvalidInput", "message": message}


@pytest.mark.parametrize("argv, message", [
    _case("grid before moments", ["--grid", "16", "moments", "--poly", "{p}"] + WINDOW,
          "argument command: invalid choice: '16'"),
    _case("tol before check", ["--tol", "0", "check", "--moments", "{t}"] + N_M,
          "argument command: invalid choice: '0'"),
    _case("check grid", ["check", "--moments", "{t}", "--grid", "64"] + N_M,
          "unrecognized arguments: --grid 64"),
    _case("gdv tol", ["gdv", "--poly", "{p}", "--tol", "1e-3"],
          "unrecognized arguments: --tol 1e-3"),
    _case("check tol", ["check", "--moments", "{t}", "--tol", "1e-6"] + N_M,
          "unrecognized arguments: --tol 1e-6"),
    _case("reconstruct tol", ["reconstruct", "--moments", "{t}", "--tol", "1e-6"] + N_M,
          "unrecognized arguments: --tol 1e-6"),
    _case("ar tol", ["ar", "--autocorr", "{t}", "--tol", "1e-6"] + N_M,
          "unrecognized arguments: --tol 1e-6"),
    _case("full tol", ["full", "--moments", "{t}", "--tol", "1e-6"] + N_M,
          "unrecognized arguments: --tol 1e-6"),
    _case("closed-face sos tol", ["sos", "--poly", "{p}", "--tol", "1e-3"],
          "--tol applies only with --open-face"),
    *(_case(f"{name} {flag}", [name, source, "{%s}" % key, flag, "64"] + nm,
            f"unrecognized arguments: {flag} 64")
      for name, source, key, nm in (("moments", "--poly", "p", WINDOW),
                                    ("factor", "--trig", "t", N_M))
      for flag in ("--tol", "--grid")),
])
def test_unread_flags_exit_2(files, argv, message):
    # each subcommand declares only the flags it reads, and none come
    # before the subcommand
    code, out = run([a.format(p=files["p.json"], t=files["trig.json"]) for a in argv])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "InvalidInput" and doc["message"].startswith(message)


def test_noisy_table_fails_at_the_fixed_floor(tmp_path, p_2zw):
    # the (1, 1) table of 2 - zw with seeded complex noise 1e-5 on every
    # moment: its violation, about 1e-5, is far above the shift test's
    # floor MC_TOL, which no flag moves, so all three pipelines answer no
    c = moments_from_density(p_2zw, 1, 1).c
    rng = np.random.default_rng(31)
    noisy = table_to_json(MomentTable(1, 1, c + 1e-5 * (
        rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape))))
    code, check = cli_document(tmp_path, "check", "--moments", noisy, *N_M)
    assert code == 1 and check["holds"] is False
    assert check["max_violation"] > 1e-6
    code, doc = cli_document(tmp_path, "reconstruct", "--moments", noisy, *N_M)
    assert code == 1 and doc["error"] == "MatrixConditionFails"
    code, ar = cli_document(tmp_path, "ar", "--autocorr", noisy, *N_M)
    assert code == 1 and ar["classification"] == "none" and ar["a"] is None
    assert ar["diagnostics"]["max_violation"] == check["max_violation"]


@pytest.mark.parametrize("argv, name", [
    (["sos", "--open-face", "--poly", "{p}"], "certificate_open_face"),
], ids=["open-face sos"])
def test_tol_reaches_the_library_as_given(files, monkeypatch, argv, name):
    # an explicit --tol arrives unchanged, below the library default too;
    # without one the library keeps its own default
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs)
        raise InvalidInput("recorded")

    monkeypatch.setattr(f"bszego.cli.{name}", record)
    argv = [a.format(p=files["p.json"], t=files["trig.json"]) for a in argv]
    for extra in (["--tol", "1e-9"], []):
        assert run(argv + extra)[0] == 2
    assert seen == [{"tol": 1e-9}, {}]


def test_seed_flag_is_gone(files):
    code, out = run(["sos", "--seed", "1", "--poly", files["p.json"]])
    assert code == 2
    assert json.loads(out) == {"error": "InvalidInput",
                               "message": "unrecognized arguments: --seed 1"}


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_help_still_exits_0():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main(["sos", "--help"])
    assert exc.value.code == 0
    assert buf.getvalue().startswith("usage: bszego sos")


def test_answer_into_a_closed_pipe_keeps_its_exit_code(files):
    # a moment table well past the 64 KB pipe buffer, read for its first
    # bytes and then closed, as `bszego moments ... | head -c 200` does
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "bszego.cli", "moments", "--poly",
            files["p.json"], "--jmax", "30", "--kmax", "30"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(200).startswith(b"{")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_answer_into_a_closed_pipe_in_process(files, monkeypatch):
    # the same in this process: printing raises BrokenPipeError, and main
    # points the descriptor at devnull and returns its exit code
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as out:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            code = main(["moments", "--poly", files["p.json"],
                         "--jmax", "1", "--kmax", "1"])
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))
    assert code == 0
