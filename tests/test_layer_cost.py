"""tools/layer_cost.py's timer, counting swap, point count, CLI column,
factor row and moment-space row."""

import importlib.util
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bszego import (BiPoly, MomentDivergence, TrigPoly, certificate_closed_face,
                    moments, moments_from_density)
from bszego.jsonio import dumps, poly_to_json, table_to_json

from conftest import bench_corpus, trig_abs_squared

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_cost.py"
_spec = importlib.util.spec_from_file_location("layer_cost", TOOL)
layer_cost = importlib.util.module_from_spec(_spec)
# loading pins the BLAS threads, stops bytecode writes and puts src/ and
# bench/ on the path; the test session gets its own settings back
with pytest.MonkeyPatch.context() as _mp:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _mp.setenv(_var, "1")
    _mp.setattr(sys, "path", list(sys.path))
    _mp.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    _spec.loader.exec_module(layer_cost)


def test_best_of_returns_the_last_result_or_error(p_2zw):
    ms, cert = layer_cost.best_of(partial(certificate_closed_face, p_2zw), 2)
    assert ms > 0 and cert.residual < 1e-10
    # 2 - z - w vanishes at (1, 1) on the torus, where S(z) is singular
    _, err = layer_cost.best_of(
        partial(certificate_closed_face, BiPoly([[2.0, -1.0], [-1.0, 0.0]])), 1)
    assert isinstance(err, MomentDivergence)


def test_the_swap_counts_and_restores_even_when_the_call_raises(p_2zw):
    inverse = moments._inverse
    with layer_cost.counting("_inverse", layer_cost.stacks) as seen:
        certificate_closed_face(p_2zw)
    assert moments._inverse is inverse and sum(seen) == 128

    def failing(original, seen):
        def call(s, zs):
            raise RuntimeError("S(z) cannot be inverted")
        return call

    with pytest.raises(RuntimeError, match="cannot be inverted"):
        with layer_cost.counting("_inverse", failing):
            certificate_closed_face(p_2zw)
    assert moments._inverse is inverse


def test_a_complex_density_samples_every_point_of_its_grid(p_2zw):
    # rotated, 2 - zw stops at the 128^2 grid and samples all of it; with
    # real coefficients only the 65 rows of the upper half circle
    originals = moments._level_sums, moments._w_sums
    rotated = BiPoly(np.exp(0.7j) * p_2zw.coeffs)
    assert layer_cost.sampled(partial(moments_from_density, rotated, 1, 1)) \
        == (128, 128 * 128)
    assert layer_cost.sampled(partial(moments_from_density, p_2zw, 1, 1)) \
        == (128, 65 * 128)
    assert (moments._level_sums, moments._w_sums) == originals


def test_the_cli_column_runs_the_whole_sos_call(p_2zw, tmp_path, capsys):
    # the sos table's cli column times bszego sos as the benchmark runs it:
    # the input read from a file, certified and printed, nothing reaching
    # the terminal
    path = tmp_path / "p.json"
    path.write_text(dumps(poly_to_json(p_2zw)))
    ms, code = layer_cost.best_of(
        partial(layer_cost.quiet_cli, ["sos", "--poly", str(path)]), 2)
    assert ms > 0 and code == 0
    assert capsys.readouterr().out == ""
    _, code = layer_cost.best_of(
        partial(layer_cost.quiet_cli, ["sos", "--poly", str(tmp_path / "none.json")]), 1)
    assert code == 2


def test_the_factor_row_names_the_route_that_answered(p_2zw, tmp_path):
    # |2 - zw|^2 is answered by the stable factor, exactly on coefficients;
    # the sum2 control by the split route, which refuses it
    corpus = bench_corpus()
    rows = {}
    for name, t in (("2-zw", trig_abs_squared(p_2zw)),
                    ("sum2", TrigPoly(2, 2, corpus.non_factorable_trig()))):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(table_to_json(t)))
        rows[name] = layer_cost.factor_row(t, t.jmax, t.kmax, str(path), 2)
        assert min(rows[name][:3]) > 0
    assert rows["2-zw"][3] == "stable" and float(rows["2-zw"][4]) < 1e-12
    assert rows["sum2"][3:] == ("split", "NotFactorable")
    # the table's rows are the certify workload's factor calls
    assert [p.kind for p in corpus.generate("certify", 1)
            if p.pipeline == "factor"] == ["zw", "perturb"] * 6 + ["sum2"]


def test_the_moment_space_row_times_three_calls_and_checks_the_answer(p_2zw):
    # at (1, 1) on 2 - zw: three times, the numpy.linalg calls of solve_ar,
    # the violation at round-off and the reconstruction of p itself
    table = moments_from_density(p_2zw, 1, 1)
    space_ms, rec_ms, ar_ms, calls, violation, gap = layer_cost.space_row(
        p_2zw, table, 1, 2)
    assert min(space_ms, rec_ms, ar_ms) > 0
    assert violation < 1e-12 and gap < 1e-12
    # the gate's certificate and the real factor, the eigenvalue, the phi
    # sequence's factor, and at least one solve, eigh and svd
    assert calls >= 7
    # a table that is not p's moments shows as a gap of order one
    other = moments_from_density(BiPoly([[3.0, 0.0], [0.0, -1.0]]), 1, 1)
    assert layer_cost.space_row(p_2zw, other, 1, 1)[5] > 0.1
    assert layer_cost.SPACE_DEGREES == (2, 4, 8, 12, 16)


def test_the_linalg_count_sees_every_function_and_restores_it(p_2zw):
    # each numpy.linalg function counts by name, also one a function of the
    # library reaches; every original is back after the block, also when it
    # raises
    originals = {name: getattr(np.linalg, name) for name in ("svd", "eigh", "solve")}
    table = moments_from_density(p_2zw, 1, 1)
    with layer_cost.linalg_calls() as calls:
        np.linalg.svd(np.eye(2), compute_uv=False)
        layer_cost.solve_ar(table, 1, 1)
    assert calls[0] == "svd" and calls.count("cholesky") == 3
    assert calls.count("eigvalsh") == 1 and "eigh" in calls and "solve" in calls
    with pytest.raises(np.linalg.LinAlgError):
        with layer_cost.linalg_calls():
            np.linalg.cholesky(-np.eye(2))
    assert all(getattr(np.linalg, name) is f for name, f in originals.items())
