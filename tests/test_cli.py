import io
import json
import contextlib

import numpy as np
import pytest

from bszego import BiPoly, MomentTable, moments_from_density
from bszego.cli import main
from bszego.jsonio import dumps, poly_from_json, poly_to_json, table_to_json

from conftest import trig_abs_squared


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


def test_grid_limits(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(dumps(poly_to_json(BiPoly([[3.0, 0.0], [0.0, -1.0]]))))
    base = ["moments", "--poly", str(path), "--jmax", "1", "--kmax", "1", "--grid"]
    for grid in ("100", "-8"):                       # not powers of two
        code, out = run(base + [grid])
        assert code == 2 and json.loads(out)["error"] == "ValueError"
        assert f"max_grid {grid} is not a power of two" in json.loads(out)["message"]
    code, out = run(base + ["2"])                    # one grid: nothing to compare
    assert code == 2 and "fewer than two grids" in json.loads(out)["message"]
    code, out = run(base + ["64"])                   # 32^2 and 64^2
    assert code == 0 and json.loads(out)["jmax"] == 1
    code, out = run(base + ["16"])                   # 8^2 and 16^2 differ by 1e-4
    assert code == 3
    assert "did not stabilize at grid 16^2" in json.loads(out)["message"]


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
    assert out == out2          # byte-identical: the sampled points are fixed


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
    _case("grid 0", ["moments", "--poly", "{poly}", "--grid", "0"] + WINDOW),
    _case("tol 0", ["check", "--moments", "{trig}", "--tol", "0"] + N_M),
    _case("tol<0", ["ar", "--autocorr", "{trig}", "--tol=-1"] + N_M),
    _case("tol nan", ["full", "--moments", "{trig}", "--tol", "nan"] + N_M),
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
])
def test_usage_errors_exit_2_with_json(files, argv, message):
    code, out = run([a.format(p=files["p.json"]) for a in argv])
    assert code == 2
    assert json.loads(out) == {"error": "InvalidInput", "message": message}


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
