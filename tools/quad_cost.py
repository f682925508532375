"""Cost of the quadrature, near the torus and in the small-call regime.

    python tools/quad_cost.py

First table: for each edge d of the near_torus bands (``BANDS`` in
``bench/corpus.py``, imported read only: no bytecode is written there) it
times ``moments_from_density`` on (1 + d) - zw, window (1, 1), and on its
square, window (2, 2).  A run that stops at grid N has sampled each of
its N^2 points once, so the table gives the grid reached, the best time in
ms and that time in ns per sampled point.

Second table: far from the torus, where the certify workload's calls sit,
the per-call cost rather than the per-point cost.  For seeded inputs of
the corpus kinds ``stable_kind`` (alpha - zw factors, moduli 2 to 3) and
``perturb_kind`` (1 + e, sum |e| = 0.4) at degrees (1,1), (4,2) and
(8,8), it times ``moments_from_density`` of p and ``moments_from_trig``
of |p|^2, each on the window of p's degree, and gives the grid reached and
the best time per call in ms.

Every time is the best of a number of calls in process on one BLAS
thread: NEAR_REPEAT in the first table and SMALL_REPEAT in the second,
whose sub-millisecond calls need more draws than 15 to reach their best
on a shared machine.
The grid reached is the last level of one call, recorded by wrapping
``moments._level_sums`` for that call alone.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
from corpus import (BANDS, DEFAULT_SEED, abs_squared, perturb_kind,  # noqa: E402
                    stable_kind)

from bszego import (BiPoly, MomentDivergence, TrigPoly, moments,  # noqa: E402
                    moments_from_density, moments_from_trig)

NEAR_REPEAT = 15    # calls per near-torus case; the best one is reported
SMALL_REPEAT = 200  # calls per small case; the best one is reported
SMALL_DEGREES = ((1, 1), (4, 2), (8, 8))
KINDS = {"stable": lambda rng, n, m: stable_kind(rng, n, m, 2.0, 3.0),
         "perturb": lambda rng, n, m: perturb_kind(rng, n, m, 0.4)}


def grid_reached(call):
    """The last grid the call samples (None: still moving at MAX_GRID)."""
    grids, levels = [], moments._level_sums

    def record(density_at, N, kmax):
        for level in levels(density_at, N, kmax):
            grids.append(level[0])
            yield level

    moments._level_sums = record
    try:
        call()
    except MomentDivergence:
        return None
    finally:
        moments._level_sums = levels
    return grids[-1]


def best_ms(call, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def near_torus_table():
    print(f"{'case':12} {'d':>7} {'grid':>5} {'best ms':>8} {'ns/point':>8}")
    for d in sorted(d for band in BANDS.values() for d in band):
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        for name, p in (("(1+d)-zw", one), ("((1+d)-zw)^2", one * one)):
            call = partial(moments_from_density, p, *p.deg)
            grid = grid_reached(call)
            ms = best_ms(call, NEAR_REPEAT)
            per_point = f"{1e6 * ms / grid ** 2:8.2f}" if grid else f"{'-':>8}"
            print(f"{name:12} {d:7.4f} {grid or '-':>5} {ms:8.2f} {per_point}")


def small_call_table():
    rng = np.random.default_rng(DEFAULT_SEED)
    print(f"{'kind':8} {'deg':6} {'input':7} {'grid':>5} {'best ms':>8}")
    for n, m in SMALL_DEGREES:
        for kind, make in KINDS.items():
            a = make(rng, n, m)
            calls = {"p": partial(moments_from_density, BiPoly(a), n, m),
                     "|p|^2": partial(moments_from_trig,
                                      TrigPoly(n, m, abs_squared(a)), n, m)}
            for name, call in calls.items():
                grid = grid_reached(call)
                print(f"{kind:8} {f'({n},{m})':6} {name:7} {grid or '-':>5} "
                      f"{best_ms(call, SMALL_REPEAT):8.3f}")


def main():
    near_torus_table()
    print()
    small_call_table()


if __name__ == "__main__":
    main()
