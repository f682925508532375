"""tools/layer_cost.py's timer, counting swap, point count and CLI column."""

import importlib.util
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bszego import (BiPoly, MomentDivergence, certificate_closed_face, moments,
                    moments_from_density)
from bszego.jsonio import poly_to_json

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
    path.write_text(json.dumps(poly_to_json(p_2zw)))
    ms, code = layer_cost.best_of(
        partial(layer_cost.quiet_cli, ["sos", "--poly", str(path)]), 2)
    assert ms > 0 and code == 0
    assert capsys.readouterr().out == ""
    _, code = layer_cost.best_of(
        partial(layer_cost.quiet_cli, ["sos", "--poly", str(tmp_path / "none.json")]), 1)
    assert code == 2
