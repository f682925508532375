"""End-to-end benchmark of the bszego CLI.

    python3 bench/run.py --workload recover --seed 9137 --seconds 35 --trace 0
    python3 bench/run.py --workload all        # every workload, a table
    python3 -m pytest bench/test_bench.py -q   # tests of the benchmark

One client drives a seeded corpus of problems through
``bszego.cli.main(argv)`` in a closed loop: in process, on one thread,
with the BLAS pinned to one thread before numpy is imported.  The timed
phase runs a fixed number of whole passes over the corpus, in a seeded
order (``PASSES``: about 35 s on the reference machine, scaled with
``--seconds``).  Every answer is then checked by the independent oracles
in ``oracles.py``: it is right, a failure mode the corpus documents for
that problem (``corpus.KNOWN_DEFECTS``), or wrong.

Times are scaled to a reference machine speed by a calibration kernel
timed around every call (``Clock``); raw wall times are in the records.
End-to-end metrics (``--trace 0``), per workload:

* ``setup_s``       import (fresh interpreter), corpus generation, input
                    files and, for ``recover``, the moment tables;
                    median of several set-ups
* ``solve_p50_ms``  median time of one ``cli.main`` call
* ``solve_tail_ms`` the highest percentile with at least ten calls beyond
                    it (which one, and the count, are printed)
* ``calls_per_s``   completed calls (not exit 3, no exception) per
                    second of call time
* ``done_share``    share of calls not ending in exit 3 or an exception
* ``right_share``   share of calls whose answer agrees with the oracle
* ``worst_digits``  -log10 of the worst residual among right answers
* ``peak_rss_mb``   peak resident memory of the run's process

``--trace 1`` alternates untraced and traced passes; spans are recorded
around the calls into each module (``spans.py``), and the metrics are
the per-layer ones: one traced set-up plus the mean traced pass, and the
tracing overhead per call (median over problems of the traced minus the
untraced time of the same problem).  Every run writes one record per call
and a run record (environment, metrics, raw times) under ``bench/out/``.

Workloads (see ``corpus.py``):

* ``recover``  check / reconstruct / full / ar on moment tables built in
  set-up.  Gram loops, phi_sequence, the Krylov test, reconstruction and
  the full-measure windows do the work; quadrature does none in the
  timed phase.  Keeps the known failures at (8, 6) and beyond.
* ``certify``  moments / sos / factor / gdv far from the torus: many
  small calls over quadrature, subspace bases, certificate checks, the
  Procrustes fit and JSON.
* ``near_torus``  moments and sos near or on the torus, where doubling
  quadrature grids to 2048^2-4096^2 does almost all of the work.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: with default threading one LAPACK call
# after a Python loop has been seen to take 0.12-0.28 s instead of 0.3 ms
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("recover", "certify", "near_torus")
# Passes per run at NOMINAL_SECONDS, from the scaled time of one pass at
# the commit that set the benchmark up: recover ~14.5 s, certify ~0.7 s,
# near_torus ~7.7 s.  They do not depend on the speed of the program, so
# the sample count, and the rank the tail falls on, are the same on every
# commit: a speed-up cannot pull more slow calls above the tail's rank,
# nor a slow-down push them out.
PASSES = {"recover": 2, "certify": 50, "near_torus": 4}
NOMINAL_SECONDS = 35.0
SETUP_REPS = 5
ORACLE_SEED = 20130115    # the oracles' own points, apart from the corpus seed
ANOMALY = ("with default BLAS threads on a 2-core machine the first LAPACK "
           "call after gram's Python loop took 0.12-0.28 s, against 0.3 ms "
           "pinned; recorded as information, not measured here")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="corpus seed (default: corpus.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- the closed loop ----------------------------------------------------------

class Clock:
    """Wall time scaled to a reference machine speed.

    The speed of a shared machine drifts by 30% and more within seconds.
    A fixed calibration kernel is timed before and after every measured
    interval, and the interval is scaled by the kernel's reference time
    over the mean of the two kernel times.  Times in the metrics are thus
    times on a machine that runs the kernel in its reference time; raw
    wall times go to the run record.  Two kernels, because compute-bound
    and memory-bound work slow down by different factors:

    * ``loops``: Python loops filling a small complex matrix, a Cholesky
      factorization and an SVD (the mix of the Gram/subspace pipelines);
    * ``fft``: one 1024^2 FFT, 16 MB out of cache (the quadrature mix).
    """

    REFERENCE_S = {"loops": 1e-3, "fft": 32e-3}

    def __init__(self, np, kind):
        rng = np.random.default_rng(0)
        self.np = np
        self.ref = self.REFERENCE_S[kind]
        self.kernel = getattr(self, f"_{kind}")
        self.a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        self.h = self.a @ self.a.conj().T + 24.0 * np.eye(24)
        self.big = rng.normal(size=(1024, 1024)) if kind == "fft" else None
        self.fft2 = np.fft.fft2      # bound now, so tracing never counts it
        self.last = self.kernel()
        self.kernels = []

    def _loops(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(3):
            g = np.zeros((24, 24), dtype=complex)
            for i in range(24):
                for j in range(24):
                    g[i, j] = self.a[i, j]
            np.linalg.cholesky(self.h)
            np.linalg.svd(g)
        return time.perf_counter() - t0

    def _fft(self):
        t0 = time.perf_counter()
        self.fft2(self.big)
        return time.perf_counter() - t0

    def scale(self, wall):
        """Scale an interval that ended just now; starts the next one."""
        before, self.last = self.last, self.kernel()
        self.kernels.append(self.last)
        return wall * self.ref / (0.5 * (before + self.last))


def call(cli, argv):
    """One CLI call: (exit code, stdout text, error class, wall seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None
    except Exception as exc:          # an uncaught exception is a failed call
        code, error = None, type(exc).__name__
    wall = time.perf_counter() - t0
    text = buf.getvalue()
    if error is None and code:
        with contextlib.suppress(ValueError):
            error = json.loads(text).get("error")
    return code, text, error, wall


def run_pass(cli, argvs, order, clock):
    """One pass over the corpus; returns (records, wall seconds).

    A record is (problem, exit code, text, error class, wall s, scaled s,
    kernel s after the call).
    """
    records = []
    t0 = time.perf_counter()
    for idx in order:
        code, text, error, wall = call(cli, argvs[idx])
        records.append((idx, code, text, error, wall, clock.scale(wall), clock.last))
    return records, time.perf_counter() - t0


def pass_count(workload, seconds, traced):
    """Passes in a run: PASSES scaled with --seconds; two when tracing."""
    count = max(1, round(PASSES[workload] * seconds / NOMINAL_SECONDS))
    return max(count, 2) if traced else count


def timed_passes(cli, argvs, order, count, clock, tracer=None):
    """``count`` whole passes; with a tracer, untraced and traced passes
    alternate, untraced first."""
    passes = []
    for k in range(count):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            records, wall = run_pass(cli, argvs, order, clock)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "records": records, "wall": wall,
                       "scaled": sum(r[5] for r in records)})
    return passes


def trace_overhead(passes):
    """Median over problems of traced minus untraced scaled call time.

    Paired per problem, so that the noise of whole passes, far larger
    than the overhead on long passes, does not enter.
    """
    times = {}
    for p in passes:
        for r in p["records"]:
            times.setdefault(r[0], ([], []))[p["traced"]].append(r[5])
    return statistics.median(statistics.median(t) - statistics.median(u)
                             for u, t in times.values() if u and t)


# -- metrics ------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten values beyond it.

    Returns (value, percentile, count); with fewer than eleven values the
    maximum is returned at percentile 100.
    """
    vals = sorted(values)
    n = len(vals)
    if n < 11:
        return vals[-1], 100.0, n
    i = n - 11
    return vals[i], 100.0 * (i + 1) / n, n


def end_to_end(setup_s, passes, verdicts, peak_rss_mb):
    calls = [r for p in passes for r in p["records"]]
    walls = [r[5] for r in calls]
    attempted = len(calls)
    outcome = [verdicts[(r[0], r[1], r[2])][0] for r in calls]
    failed = sum(1 for r in calls if r[1] == 3 or r[1] is None)
    right = outcome.count("right")
    residuals = [v[1] for v in verdicts.values()
                 if v[0] == "right" and v[1] is not None]
    worst = max(max(residuals), 1e-17)
    tail_ms, pct, n = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_p50_ms": (1000.0 * statistics.median(walls), "ms"),
        "solve_tail_ms": (1000.0 * tail_ms, "ms"),
        "calls_per_s": ((attempted - failed) / sum(walls), "1/s"),
        "done_share": ((attempted - failed) / attempted, "share"),
        "right_share": (right / attempted, "share"),
        "worst_digits": (-math.log10(worst), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"attempted": attempted, "failed": failed,
             "known": outcome.count("known"), "wrong": outcome.count("wrong"),
             "fail_share": failed / attempted,
             "wrong_share": (attempted - right) / attempted,
             "tail_percentile": pct, "tail_samples": n,
             "worst_residual": worst, "passes": len(passes),
             "raw_p50_ms": 1000.0 * statistics.median(r[4] for r in calls),
             "raw_calls_per_s": (attempted - failed) / sum(r[4] for r in calls)}
    return metrics, extra


# -- records ------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        return proc.stdout.strip() or None
    return None


def environment(args, seed, np):
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "note": ANOMALY}


def write_records(tag, env, problems, passes, verdicts, result):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"calls-{tag}.jsonl"), "w") as fh:
        for k, p in enumerate(passes):
            for idx, code, text, error, wall, scaled, kernel in p["records"]:
                prob = problems[idx]
                outcome, resid = verdicts[(idx, code, text)]
                fh.write(json.dumps({
                    "workload": env["workload"], "pass": k, "traced": p["traced"],
                    "problem": idx, "pipeline": prob.pipeline,
                    "deg": list(prob.deg), "kind": prob.kind, "exit": code,
                    "error": error, "wall_ms": 1000.0 * wall,
                    "scaled_ms": 1000.0 * scaled, "kernel_ms": 1000.0 * kernel,
                    "outcome": outcome,
                    "residual": resid}) + "\n")
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(dict(env, result=result), fh, indent=1, sort_keys=True)


# -- entry points -------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import bszego.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(clock, reps=5):
    """Median time to import the CLI in a fresh interpreter: (raw, scaled)."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    raw, scaled = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        raw.append(float(proc.stdout))
        scaled.append(clock.scale(raw[-1]))
    return statistics.median(raw), statistics.median(scaled)


def run_workload(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "bszego")):
        sys.exit(f"error: no bszego sources under {os.path.join(ROOT, 'src')}")
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import bszego.cli as cli
    from bszego import moments as bmoments
    from bszego.poly import BiPoly
    import_s = time.perf_counter() - t0

    sys.path.insert(0, BENCH)
    import corpus
    import oracles
    from spans import Tracer

    seed = corpus.DEFAULT_SEED if args.seed is None else args.seed
    tracer = Tracer() if args.trace else None
    tag = f"{args.workload}-s{seed}-t{args.trace}"
    # set-up (imports, Python-level generation, small quadratures) is timed
    # on the loops kernel; the calls on the workload's own kernel
    clock = Clock(np, "loops")
    raw_import, import_scaled = import_seconds(clock)
    reps, raw_reps = [], []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        if tracer is not None and last:
            tracer.install()
        try:
            r0 = time.perf_counter()
            problems = corpus.generate(args.workload, seed)
            argvs = corpus.materialize(
                problems, os.path.join(OUT, "inputs", tag),
                bmoments.moments_from_density, BiPoly)
            raw_reps.append(time.perf_counter() - r0)
            reps.append(clock.scale(raw_reps[-1]))
        finally:
            if tracer is not None and last:
                tracer.uninstall()
    setup_s = import_scaled + statistics.median(reps)
    raw_setup_s = raw_import + statistics.median(raw_reps)
    setup_layers = tracer.layer_metrics() if tracer is not None else None
    if tracer is not None:
        tracer.reset()

    # warm-up: one untimed call per subcommand, on its first problem
    seen = set()
    for prob, argv in zip(problems, argvs):
        if prob.pipeline not in seen:
            seen.add(prob.pipeline)
            call(cli, argv)

    order = np.random.default_rng(seed).permutation(len(problems)).tolist()
    clock = Clock(np, corpus.KERNELS[args.workload])
    count = pass_count(args.workload, args.seconds, tracer is not None)
    passes = timed_passes(cli, argvs, order, count, clock, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # oracles, outside the timed region; a deterministic program gives the
    # same text on every pass, so each distinct answer is judged once
    # The oracles' random points depend on the problem's place in the
    # corpus only, so a problem that every corpus holds (2 - z - w) gets
    # the same check, and the same residual, on every seed.
    verdicts = {}
    for p in passes:
        for idx, code, text, *_ in p["records"]:
            key = (idx, code, text)
            if key in verdicts:
                continue
            try:
                doc = json.loads(text)
                verdicts[key] = oracles.judge(problems[idx], code, doc,
                                              np.random.default_rng([ORACLE_SEED, idx]))
            except (ValueError, KeyError, TypeError):
                verdicts[key] = ("wrong", None)

    env = environment(args, seed, np)
    metrics, extra = end_to_end(setup_s, passes, verdicts, peak_rss_mb)
    extra["raw_setup_s"] = raw_setup_s
    extra["inprocess_import_s"] = import_s
    extra["kernel_ms"] = 1000.0 * statistics.median(clock.kernels)
    if tracer is None:
        shown = metrics
    else:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        layers = tracer.layer_metrics(passes=len(traced))
        for key, value in setup_layers.items():
            if key == "moments.grid_max":
                layers[key] = max(layers[key], value)
            else:
                layers[key] += value
        layers["trace.overhead_ms"] = 1000.0 * trace_overhead(passes)
        extra["pass_overhead_ms"] = 1000.0 * (
            statistics.mean(p["scaled"] for p in traced)
            - statistics.mean(p["scaled"] for p in plain))
        from spans import METRICS
        shown = {k: (layers[k], unit) for k, unit in METRICS.items()}
        extra["spans"] = tracer.span_summary()
    # a run is correct when every answer is right or a failure mode the
    # corpus documents; "failed" counts the answers that are neither
    result = {"correct": extra["wrong"] == 0, "attempted": extra["attempted"],
              "failed": extra["wrong"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    write_records(tag, env, problems, passes, verdicts,
                  dict(result, extra=extra))
    print(f"# {args.workload} seed={seed} passes={extra['passes']} "
          f"calls={extra['attempted']} failed={extra['failed']} "
          f"known={extra['known']} wrong={extra['wrong']} "
          f"fail_share={extra['fail_share']:.4f} "
          f"wrong_share={extra['wrong_share']:.4f} "
          f"tail=p{extra['tail_percentile']:.1f} of {extra['tail_samples']} "
          f"worst_residual={extra['worst_residual']:.3e} "
          f"kernel={extra['kernel_ms']:.3f}ms raw_p50={extra['raw_p50_ms']:.2f}ms "
          f"raw_calls_per_s={extra['raw_calls_per_s']:.3f} "
          f"raw_setup={extra['raw_setup_s']:.3f}s")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in shown.items():
        print(f"# {args.workload:10s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh process; prints every metric by name."""
    rows = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:1]) + "\n")
        rows[workload] = json.loads(lines[-1])
    names = list(rows[WORKLOADS[0]]["metrics"])
    print(f"# {'metric':28s} {'unit':7s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        vals = " ".join(f"{rows[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"# {name:28s} {unit:7s} {vals}")
    print(json.dumps(rows))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
