"""Cost per sampled grid point of the quadrature, at the near-torus band edges.

    python tools/quad_cost.py

For each edge d of the near_torus bands (``BANDS`` in ``bench/corpus.py``,
imported read only: no bytecode is written there) it times
``moments_from_density`` on (1 + d) - zw, window (1, 1), and on its
square, window (2, 2), in process on one BLAS thread, best of REPEAT
calls.  A run that stops at grid N has sampled each of its N^2 points
once, so the table gives the grid reached, the best time in ms and that
time in ns per sampled point.  The grid reached is the last level of one
call, recorded by wrapping ``moments._level_sums`` for that call alone.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from corpus import BANDS  # noqa: E402

from bszego import (BiPoly, MomentDivergence, moments,  # noqa: E402
                    moments_from_density)

REPEAT = 15  # calls per case; the best one is reported


def grid_reached(p, window):
    """The last grid the call samples (None: still moving at MAX_GRID)."""
    grids, levels = [], moments._level_sums

    def record(density_at, N, kmax):
        for level in levels(density_at, N, kmax):
            grids.append(level[0])
            yield level

    moments._level_sums = record
    try:
        moments_from_density(p, *window)
    except MomentDivergence:
        return None
    finally:
        moments._level_sums = levels
    return grids[-1]


def best_ms(p, window):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        moments_from_density(p, *window)
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main():
    print(f"{'case':12} {'d':>7} {'grid':>5} {'best ms':>8} {'ns/point':>8}")
    for d in sorted(d for band in BANDS.values() for d in band):
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        for name, p in (("(1+d)-zw", one), ("((1+d)-zw)^2", one * one)):
            window = p.deg
            grid = grid_reached(p, window)
            ms = best_ms(p, window)
            per_point = f"{1e6 * ms / grid ** 2:8.2f}" if grid else f"{'-':>8}"
            print(f"{name:12} {d:7.4f} {grid or '-':>5} {ms:8.2f} {per_point}")


if __name__ == "__main__":
    main()
