import io
import json
import contextlib

import numpy as np
import pytest

from bszego import BiPoly, MomentTable, TrigPoly, moments_from_density
from bszego.cli import main
from bszego.jsonio import dumps, poly_from_json, poly_to_json, table_to_json


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


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
    put("trig.json", table_to_json(TrigPoly.from_abs_squared(p_2zw)))
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
        path = _table_file(tmp_path, f"i{s}.json", MomentTable(1, 1, s * bad))
        code, out = run(["check", "--moments", path, "--n", "1", "--m", "1"])
        assert code == 2 and json.loads(out)["error"] == "NotPositive"


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


def test_moments_divergence_exit_3(files):
    code, out = run(["moments", "--poly", files["divergent.json"],
                     "--jmax", "1", "--kmax", "1"])
    assert code == 3
    assert json.loads(out)["error"] == "MomentDivergence"


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


def test_sos_command(files):
    code, out = run(["sos", "--poly", files["p.json"]])
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["A"]), doc["n1"], doc["n2"]) == (1, 1, 0)
    code2, out2 = run(["sos", "--poly", files["p.json"]])
    assert out == out2          # byte-identical with the same seed


def test_sos_open_face_common_factor(files):
    code, out = run(["sos", "--poly", files["zw.json"], "--open-face"])
    assert code == 1
    assert json.loads(out)["error"] == "CommonFactor"


def test_full_command(files, tmp_path):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "5", "--kmax", "4"])
    assert code == 0
    mpath = tmp_path / "m54.json"
    mpath.write_text(out)
    code, out = run(["full", "--moments", str(mpath),
                     "--n", "1", "--m", "1", "--depth", "4,4"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_ar_command(files, tmp_path):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "1", "--kmax", "1"])
    mpath = tmp_path / "ar.json"
    mpath.write_text(out)
    code, out = run(["ar", "--autocorr", str(mpath), "--n", "1", "--m", "1"])
    assert code == 0
    assert json.loads(out)["classification"] == "causal"


def test_stdin_input(files, monkeypatch, p_2zw):
    from bszego.jsonio import poly_to_json as ptj
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(ptj(p_2zw))))
    code, out = run(["moments", "--poly", "-", "--jmax", "1", "--kmax", "1"])
    assert code == 0
    assert json.loads(out)["jmax"] == 1


def test_flags_after_subcommand(files):
    code, out = run(["moments", "--poly", files["p.json"],
                     "--jmax", "1", "--kmax", "1", "--grid", "256"])
    assert code == 0


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


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
