"""Cost of the paper's layers one at a time: quadrature, sos certificates,
factorization, full measure, moment space.

    python tools/layer_cost.py

Inputs come from ``bench/corpus.py``, imported read only (no bytecode is
written there).  A time is the best of REPEAT calls (SMALL_REPEAT for the
sub-millisecond quadrature calls, which need more draws to reach their
best on a shared machine) in process on one BLAS thread; a count comes
from one more call, made with a private ``moments`` function swapped for
a counting wrapper.

Quadrature near the torus: ``moments_from_density`` on (1 + d) - zw,
window (1, 1), and its square, window (2, 2), at each edge d of the
near_torus ``BANDS``, as given (real coefficients: only the rows of the
upper half circle are sampled) and rotated by e^(0.7i) (every row).  The
grid reached (the last level of ``moments._level_sums``, "-" when the
call raises), the points sampled (the sizes of the blocks passed to
``moments._w_sums``), the time in ms and in ns per point sampled.
Quadrature far from the torus, where the certify workload's calls sit:
``moments_from_density`` of p and ``moments_from_trig`` of |p|^2 on
seeded ``stable_kind`` (moduli 2 to 3) and ``perturb_kind`` (sum |e| =
0.4) inputs at SMALL_DEGREES: the grid reached and the time.

Sos: ``certificate_closed_face`` on the seeded certify kinds at
``CERTIFY_DEGREES``, on (1 + d) - zw and its square at each band edge and
on 1.01 - zw; ``certificate_open_face`` on the torus zeros 2 - e^i z -
e^2i w and 2 - e^0.3i z - w, which vanish off the sampled grids.  The
time, the time of the whole ``bszego sos`` call on the same input
(``cli.main`` on a temporary file, stdout captured: reading, certifying
and printing), the points at which one call evaluates the Schur-Cohn matrix S(z)
(the stacks passed to ``moments._inverse``, an open-face case's
closed-face attempt included), and the block counts (m, n1, n2) and
residual, or the error class the call ends in.

Factor: the certify workload's ``factor`` problems at DEFAULT_SEED
(``corpus.generate``), the seeded zw and perturb inputs at
``CERTIFY_DEGREES`` and the sum2 control.  The best ms of ``factor_trig``,
of the whole ``bszego factor`` call (``cli.main`` on a temporary file,
stdout captured) and of ``moments_from_trig``; the route that answered
(``stable``, the inverse Gram's first column, or ``split``, the minimal
split polynomial); and the l1 coefficient gap of |p|^2 - t relative to
t_00, or the error class the call ends in.

Full measure: ``check_full_measure(table, n, n)`` at its default depth on
the table of a seeded 1 + e (``perturb_kind``) of each degree (n, n) of
FULL_DEGREES, on the window the benchmark's ``full`` calls use: the time
(the table's quadrature is set-up), the time of each of its layers called
alone (the positivity test's ``eigvalsh``, the gamma families from their
one shared factor, the xi family) and the verdict.

Moment space: on the table of a seeded 1 + e (``perturb_kind``) of each
degree (n, n) of SPACE_DEGREES, window (n, n) as the benchmark's
``check`` calls read it, the time of ``MomentSpace`` with the shift
operators and their matrix condition (``build_operators``,
``check_matrix_condition``: the positivity gate, the real factor and the
subspace bases), of ``reconstruct_p`` and of ``solve_ar``, each of which
builds its own moment space; the calls one ``solve_ar`` makes into
``numpy.linalg`` (its functions swapped for counting wrappers, as
``counting`` swaps a ``moments`` function); then the matrix condition's
violation and the largest coefficient gap of the reconstruction to the
input, both unit-norm under the form and phase-canonical, relative to its
largest coefficient.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
from corpus import (BANDS, CERTIFY_DEGREES, DEFAULT_SEED, abs_squared,  # noqa: E402
                    generate, perturb_kind, stable_kind, unstable_kind)

from bszego import (BiPoly, BszegoError, MomentSpace, TrigPoly,  # noqa: E402
                    build_operators, certificate_closed_face,
                    certificate_open_face, check_full_measure,
                    check_matrix_condition, factor_trig, fullmeasure,
                    moments, moments_from_density, moments_from_trig,
                    reconstruct_p, solve_ar)
from bszego.cli import main as cli_main  # noqa: E402
from bszego.jsonio import dumps, poly_to_json, table_to_json  # noqa: E402
from bszego.moments import is_positive  # noqa: E402
from bszego.poly import _canonical_phase  # noqa: E402
from bszego.reconstruct import _stable_factor  # noqa: E402

REPEAT = 15         # calls per case; the best one is reported
SMALL_REPEAT = 200  # calls per small quadrature case
SMALL_DEGREES = ((1, 1), (4, 2), (8, 8))
FULL_DEGREES = (2, 4, 8, 12, 16)
SPACE_DEGREES = (2, 4, 8, 12, 16)
ROTATION = np.exp(0.7j)  # turns real coefficients complex, |p| unchanged
EDGES = sorted(d for band in BANDS.values() for d in band)


def best_of(call, repeat):
    """The best time in ms of ``repeat`` calls, and the last call's result
    or the BszegoError it raised."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        try:
            out = call()
        except BszegoError as exc:
            out = exc
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times), out


@contextlib.contextmanager
def counting(name, wrapper):
    """Inside the block ``moments.<name>`` is ``wrapper(original, seen)``,
    which appends what it counts to the list ``seen`` the block receives;
    the original is back on exit, also when the block raises."""
    original, seen = getattr(moments, name), []
    setattr(moments, name, wrapper(original, seen))
    try:
        yield seen
    finally:
        setattr(moments, name, original)


@contextlib.contextmanager
def linalg_calls():
    """Inside the block each function of ``numpy.linalg`` appends its name
    to the list the block receives when called; the originals are back on
    exit, also when the block raises."""
    originals = {name: getattr(np.linalg, name) for name in np.linalg.__all__
                 if not isinstance(getattr(np.linalg, name), type)}
    seen = []

    def counted(name, original):
        def call(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)
        return call

    for name, original in originals.items():
        setattr(np.linalg, name, counted(name, original))
    try:
        yield seen
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)


def grids(level_sums, seen):
    def recorded(density_at, N, kmax):
        for level in level_sums(density_at, N, kmax):
            seen.append(level[0])
            yield level
    return recorded


def points(w_sums, seen):
    def counted(blocks, N, kmax):
        def sized():
            for block in blocks:
                seen.append(0 if block is None else block.size)
                yield block
        return w_sums(sized(), N, kmax)
    return counted


def stacks(inverse, seen):
    def counted(s, zs):
        seen.append(len(zs))
        return inverse(s, zs)
    return counted


def sampled(call):
    """The last grid one call reaches ("-" when it raises) and the number
    of points it samples."""
    with counting("_level_sums", grids) as levels, counting("_w_sums", points) as sizes:
        _, out = best_of(call, 1)
    return "-" if isinstance(out, BszegoError) else levels[-1], sum(sizes)


def quadrature_tables():
    print(f"{'case':12} {'d':>7} {'path':7} {'grid':>5} {'points':>9} "
          f"{'best ms':>8} {'ns/point':>8}")
    for d in EDGES:
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        for name, p in (("(1+d)-zw", one), ("((1+d)-zw)^2", one * one)):
            for path, q in (("real", p), ("rotated", BiPoly(ROTATION * p.coeffs))):
                call = partial(moments_from_density, q, *q.deg)
                grid, n_points = sampled(call)
                ms, _ = best_of(call, REPEAT)
                print(f"{name:12} {d:7.4f} {path:7} {grid:>5} {n_points:9d} "
                      f"{ms:8.2f} {1e6 * ms / n_points:8.2f}")
    print()
    rng = np.random.default_rng(DEFAULT_SEED)
    kinds = {"stable": lambda n, m: stable_kind(rng, n, m, 2.0, 3.0),
             "perturb": lambda n, m: perturb_kind(rng, n, m, 0.4)}
    print(f"{'kind':8} {'deg':6} {'input':7} {'grid':>5} {'best ms':>8}")
    for n, m in SMALL_DEGREES:
        for kind, make in kinds.items():
            a = make(n, m)
            calls = {"p": partial(moments_from_density, BiPoly(a), n, m),
                     "|p|^2": partial(moments_from_trig,
                                      TrigPoly(n, m, abs_squared(a)), n, m)}
            for name, call in calls.items():
                grid, _ = sampled(call)
                ms, _ = best_of(call, SMALL_REPEAT)
                print(f"{kind:8} {f'({n},{m})':6} {name:7} {grid:>5} {ms:8.3f}")


def sos_cases():
    """(name, polynomial, certificate function) of every sos case, in order."""
    rng = np.random.default_rng(DEFAULT_SEED)
    for n, m in CERTIFY_DEGREES:
        for kind, a in (("zw", stable_kind(rng, n, m, 2.0, 3.0)),
                        ("unstable", unstable_kind(rng, n, m))):
            yield kind, BiPoly(a), certificate_closed_face
    for d in EDGES:
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        yield f"(1+{d:.4f})-zw", one, certificate_closed_face
        yield f"((1+{d:.4f})-zw)^2", one * one, certificate_closed_face
    yield "1.01-zw", BiPoly([[1.01, 0.0], [0.0, -1.0]]), certificate_closed_face
    for name, b, c in (("2-e^i z-e^2i w", np.exp(1j), np.exp(2j)),
                       ("2-e^0.3i z-w", np.exp(0.3j), 1.0)):
        yield name + " open", BiPoly([[2.0, -c], [-b, 0.0]]), certificate_open_face


def quiet_cli(argv):
    """``cli.main(argv)`` with its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def sos_table():
    print(f"{'case':24} {'deg':6} {'best ms':>8} {'cli ms':>8} {'S(z) pts':>8} "
          f"{'blocks':10} residual")
    with tempfile.TemporaryDirectory() as tmp:
        for name, p, certify in sos_cases():
            call = partial(certify, p)
            ms, cert = best_of(call, REPEAT)
            path = os.path.join(tmp, "p.json")
            with open(path, "w") as fh:
                fh.write(dumps(poly_to_json(p)))
            flags = ["--open-face"] if certify is certificate_open_face else []
            cli_ms, _ = best_of(partial(quiet_cli, ["sos", "--poly", path, *flags]), REPEAT)
            with counting("_inverse", stacks) as sizes:
                best_of(call, 1)
            outcome = (type(cert).__name__ if isinstance(cert, BszegoError) else
                       f"{str((cert.a.shape[2], cert.n1, cert.n2)):10} {cert.residual:.2e}")
            print(f"{name:24} {f'({p.deg[0]},{p.deg[1]})':6} {ms:8.2f} {cli_ms:8.2f} "
                  f"{sum(sizes):8d} {outcome}")


def factor_row(t, n, m, path, repeat):
    """The best ms of ``factor_trig``, of ``bszego factor`` on the document
    at ``path`` and of ``moments_from_trig`` at caps (n, m), the route that
    answered, and the coefficient gap of |p|^2 - t over t_00 or the error
    class."""
    ms, p = best_of(partial(factor_trig, t, n, m), repeat)
    argv = ["factor", "--trig", path, "--n", str(n), "--m", str(m)]
    cli_ms, _ = best_of(partial(quiet_cli, argv), repeat)
    quad_ms, table = best_of(partial(moments_from_trig, t, n, m), repeat)
    stable = _stable_factor(MomentSpace(table, n, m), t)
    outcome = (type(p).__name__ if isinstance(p, BszegoError) else
               f"{np.sum(np.abs(abs_squared(p.coeffs) - t.c)) / t.at(0, 0).real:.1e}")
    return ms, cli_ms, quad_ms, "split" if stable is None else "stable", outcome


def factor_table():
    print(f"{'kind':8} {'deg':6} {'best ms':>8} {'cli ms':>8} {'quad ms':>8} "
          f"{'route':6} gap")
    problems = [p for p in generate("certify", DEFAULT_SEED) if p.pipeline == "factor"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        for prob in problems:
            c = prob.docs["trig"]
            t = TrigPoly(c.shape[0] // 2, c.shape[1] // 2, c)
            with open(path, "w") as fh:
                fh.write(dumps(table_to_json(t)))
            row = factor_row(t, *prob.deg, path, REPEAT)
            print(f"{prob.kind:8} {str(prob.deg).replace(' ', ''):6} {row[0]:8.2f} "
                  f"{row[1]:8.2f} {row[2]:8.2f} {row[3]:6} {row[4]}")


def full_row(table, n, repeat):
    """The best ms of ``check_full_measure(table, n, n)`` at its default
    depth (n + 3, n + 3) and of its three layers, each called alone: the
    positivity test (``is_positive``, one ``eigvalsh``), the gamma families
    and the xi family; and the verdict."""
    depth = n + 3
    ms, report = best_of(partial(check_full_measure, table, n, n), repeat)
    layers = (partial(is_positive, table, max(depth + 1, 2 * n), depth),
              partial(fullmeasure._gamma_families, table, n, depth,
                      range(max(n - 1, 0), depth + 1)),
              partial(fullmeasure._xi_family, table, n, n, depth))
    return (ms, *(best_of(layer, repeat)[0] for layer in layers), report.verdict)


def full_table():
    print(f"{'deg':>8} {'best ms':>8} {'eigvalsh':>8} {'gamma':>8} {'xi':>8} verdict")
    for n in FULL_DEGREES:
        p = BiPoly(perturb_kind(np.random.default_rng(DEFAULT_SEED), n, n, 0.4))
        row = full_row(moments_from_density(p, max(n + 4, 2 * n), n + 3), n, REPEAT)
        print(f"{f'({n},{n})':>8} {row[0]:8.2f} {row[1]:8.2f} {row[2]:8.2f} "
              f"{row[3]:8.2f} {row[4]}")


def space_row(p, table, n, repeat):
    """The best ms of the moment space with its operators and matrix
    condition, of ``reconstruct_p`` and of ``solve_ar`` at caps (n, n), the
    ``numpy.linalg`` calls of one ``solve_ar``, the violation, and the
    reconstruction's gap to p."""
    def operators():
        return check_matrix_condition(build_operators(MomentSpace(table, n, n)))

    space_ms, report = best_of(operators, repeat)
    rec_ms, q = best_of(partial(reconstruct_p, table, n, n), repeat)
    ar_ms, _ = best_of(partial(solve_ar, table, n, n), repeat)
    with linalg_calls() as calls:
        best_of(partial(solve_ar, table, n, n), 1)
    ref = _canonical_phase(p * (1.0 / MomentSpace(table, n, n).norm(p))).coeffs
    gap = float(np.max(np.abs(q.coeffs - ref)) / np.max(np.abs(ref)))
    return space_ms, rec_ms, ar_ms, len(calls), report.max_violation, gap


def space_table():
    print(f"{'deg':>8} {'space ms':>8} {'recon ms':>8} {'ar ms':>8} {'linalg':>6} "
          f"{'violation':>9} {'gap':>8}")
    for n in SPACE_DEGREES:
        p = BiPoly(perturb_kind(np.random.default_rng(DEFAULT_SEED), n, n, 0.4))
        row = space_row(p, moments_from_density(p, n, n), n, REPEAT)
        print(f"{f'({n},{n})':>8} {row[0]:8.2f} {row[1]:8.2f} {row[2]:8.2f} "
              f"{row[3]:6d} {row[4]:9.1e} {row[5]:8.1e}")


def main():
    quadrature_tables()
    print()
    sos_table()
    print()
    factor_table()
    print()
    full_table()
    print()
    space_table()


if __name__ == "__main__":
    main()
