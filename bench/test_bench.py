"""Tests of the benchmark itself: corpora, oracles, tracer, tail rule.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import oracles  # noqa: E402
from bszego import BiPoly, cli, moments, moments_from_density  # noqa: E402
import run  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402

REPO_TEST_SEEDS = (202, 404, 606, 707, 808)
SEEDS = (corpus.DEFAULT_SEED, 1, 2)


def _arrays(problems):
    out = []
    for p in problems:
        out.append((p.pipeline, p.kind, p.deg, tuple(p.flags)))
        for name, doc in sorted(p.docs.items()):
            src = doc["poly"] if isinstance(doc, dict) else doc
            out.append(np.asarray(src).tobytes())
    return out


def _min_w_root(a, zs):
    """Smallest |w| over the w-roots of p(z0, w) for z0 in zs."""
    worst = np.inf
    for z0 in zs:
        col = np.polynomial.polynomial.polyval(z0, a)     # ascending in w
        col = np.trim_zeros(col, "b")
        if col.size > 1:
            worst = min(worst, float(np.min(np.abs(np.roots(col[::-1])))))
    return worst


def _faces(problems):
    """(closed-face polynomials, open-face polynomials) of a corpus."""
    closed, open_ = [], []
    for p in problems:
        a = p.expect.get("p")
        if a is None or p.pipeline == "gdv":
            continue
        (open_ if "--open-face" in p.flags else closed).append(a)
    return closed, open_


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic(workload):
    a = _arrays(corpus.generate(workload, 5))
    b = _arrays(corpus.generate(workload, 5))
    c = _arrays(corpus.generate(workload, 6))
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_inputs_are_zero_free_on_their_face(workload, seed):
    zs = np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
    closed, open_ = _faces(corpus.generate(workload, seed))
    assert closed
    for a in closed:                      # no zeros on |z| = 1, |w| <= 1
        assert _min_w_root(a, zs) > 1.0 + 1e-3
    for a in open_:                       # no zeros on |z| = 1, |w| < 1
        assert _min_w_root(a, zs) >= 1.0 - 1e-9


def test_default_seed_is_not_a_repo_test_seed():
    assert corpus.DEFAULT_SEED not in REPO_TEST_SEEDS


def test_corpora_keep_the_known_defect_cases():
    recover = corpus.generate("recover", corpus.DEFAULT_SEED)
    degs = {p.deg for p in recover}
    assert {(12, 12), (16, 16)} <= degs
    near = corpus.generate("near_torus", corpus.DEFAULT_SEED)
    two_z_w = np.array([[2, -1], [-1, 0]], dtype=complex)
    assert any(p.kind == "torus" and np.array_equal(p.expect["p"], two_z_w)
               and "--open-face" in p.flags for p in near)


def test_known_defects_name_recover_cells():
    recover = corpus.generate("recover", corpus.DEFAULT_SEED)
    cells = {(p.pipeline, p.kind, p.deg): p.expect.get("defects", ())
             for p in recover}
    assert set(corpus.KNOWN_DEFECTS) <= set(cells)
    for cell, defects in cells.items():
        known = corpus.KNOWN_DEFECTS.get(cell)
        assert defects == ((known,) if known else ())


def test_unstable_kind_has_disk_roots():
    rng = np.random.default_rng(0)
    for n, m in corpus.RECOVER_DEGREES:
        assert corpus.disk_roots(corpus.unstable_kind(rng, n, m)) >= 1
        assert corpus.disk_roots(corpus.stable_kind(rng, n, m)) == 0


def test_near_torus_bands_reach_their_grids():
    tracer = Tracer()
    for grid in (1024, 2048):
        lo, hi = corpus.BANDS[grid]
        for d in (lo, hi):
            tracer.install()
            try:
                moments_from_density(BiPoly([[1.0 + d, 0.0], [0.0, -1.0]]), 1, 1)
            finally:
                tracer.uninstall()
            assert tracer.grid_max == grid
            tracer.reset()


def test_reference_moments_agree():
    a = corpus.polymul([[1.3, 0], [0, -1]], [[1.5, 0], [0, -1]])
    ref1 = oracles.reference_moments(a, 2, 2, zw_only=True)
    ref2 = oracles.reference_moments(a, 2, 2)
    assert np.max(np.abs(ref1 - ref2)) < 1e-12


def test_modulus_gap_ignores_phase_scale_and_flips():
    a = corpus.polymul([[2.0, 0], [0, -1]], corpus.zpoly([0.5]))
    flipped = corpus.polymul([[2.0, 0], [0, -1]], [[-0.5], [1.0]])
    assert oracles.modulus_gap(a, 3j * flipped) < 1e-12
    assert oracles.modulus_gap(a, [[2.0, 0], [0, -1]]) > 1e-2


def _cli_run(problems, argvs):
    rng = np.random.default_rng(0)
    outcomes = []
    for prob, argv in zip(problems, argvs):
        code, text, _, _ = run.call(cli, argv)
        outcomes.append(oracles.judge(prob, code, json.loads(text), rng)[0])
    return outcomes


def test_certify_answers_are_right(tmp_path):
    problems = [p for p in corpus.generate("certify", 1) if p.deg[0] <= 2]
    argvs = corpus.materialize(problems, str(tmp_path), moments_from_density, BiPoly)
    assert set(_cli_run(problems, argvs)) == {"right"}


def test_oracle_rejects_a_wrong_answer(tmp_path):
    prob = next(p for p in corpus.generate("certify", 1) if p.pipeline == "factor")
    argv = corpus.materialize([prob], str(tmp_path), moments_from_density, BiPoly)[0]
    code, text, _, _ = run.call(cli, argv)
    doc = json.loads(text)
    doc["coeffs"][0][0][0] *= 1.01
    assert oracles.judge(prob, code, doc, np.random.default_rng(0))[0] == "wrong"
    assert oracles.judge(prob, 3, {"error": "DegenerateForm"},
                         np.random.default_rng(0))[0] == "wrong"


def test_tail_rule():
    vals = list(range(1, 101))
    value, pct, n = run.tail(vals)
    assert sum(v > value for v in vals) == 10 and n == 100 and pct == 90.0
    assert run.tail([3.0, 1.0])[:2] == (3.0, 100.0)


def test_pass_count_does_not_follow_speed():
    assert [run.pass_count(w, 35, False) for w in run.WORKLOADS] == [2, 50, 4]
    assert run.pass_count("recover", 10, False) == 1
    assert run.pass_count("recover", 10, True) == 2


def test_trace_overhead_is_paired_per_problem():
    def pass_(traced, times):
        return {"traced": traced,
                "records": [(i, 0, "", None, t, t, 0.0) for i, t in enumerate(times)]}
    # the slow problem's pass-to-pass noise does not enter the median
    passes = [pass_(False, [1.0, 2.0, 10.0]), pass_(True, [1.1, 2.1, 9.0])]
    assert abs(run.trace_overhead(passes) - 0.1) < 1e-12


def test_tracer_restores_and_counts(tmp_path):
    original = moments.gram
    problems = [p for p in corpus.generate("recover", 1)
                if p.deg == (2, 2) and p.kind == "perturb"]
    argvs = corpus.materialize(problems, str(tmp_path), moments_from_density, BiPoly)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)
    finally:
        tracer.uninstall()
    assert moments.gram is original
    layers = tracer.layer_metrics()
    assert set(layers) == set(METRICS) - {"trace.overhead_ms"}
    assert layers["moments.gram_calls"] > 0
    assert layers["fullmeasure.windows"] > 0
    assert layers["reconstruct.s"] > layers["reconstruct.kernel_s"] > 0
    for span in tracer.spans:
        assert span.self_time >= -1e-9

