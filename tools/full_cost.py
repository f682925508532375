"""Time of the full-measure test per degree, on seeded Bernstein-Szego tables.

    python tools/full_cost.py

For each degree (n, n) in DEGREES it builds the moment table of a seeded
1 + e of that degree (``perturb_kind`` in ``bench/corpus.py``, imported
read only: no bytecode is written there), on the window the benchmark's
``full`` calls use, and times ``check_full_measure(table, n, n)`` at its
default depth in process on one BLAS thread, best of REPEAT calls.  The
table gives the degree, the best time in ms and the verdict; the table's
quadrature is set-up and is not timed.
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

import numpy as np  # noqa: E402
from corpus import perturb_kind  # noqa: E402

from bszego import BiPoly, check_full_measure, moments_from_density  # noqa: E402

DEGREES = (2, 4, 8, 16)
REPEAT = 15  # calls per degree; the best one is reported
SEED = 9137


def main():
    print(f"{'deg':>8} {'best ms':>8} verdict")
    for n in DEGREES:
        p = BiPoly(perturb_kind(np.random.default_rng(SEED), n, n, 0.4))
        table = moments_from_density(p, max(n + 4, 2 * n), n + 3)
        times = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            report = check_full_measure(table, n, n)
            times.append(time.perf_counter() - t0)
        print(f"{f'({n},{n})':>8} {1e3 * min(times):8.2f} {report.verdict}")


if __name__ == "__main__":
    main()
