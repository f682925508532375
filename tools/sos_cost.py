"""Time, block counts and residual of sos certificates, per case.

    python tools/sos_cost.py

Each case is timed in process on one BLAS thread, best of REPEAT calls,
and the table gives the case, its degree, the best time in ms, the number
of points at which one call evaluates the Schur-Cohn matrix S(z), the
block counts (m, n1, n2) and the residual, or the error class it ends in.
The points are counted in the stacks one more call passes to
``moments._inverse``: the 1-D quadrature levels of the closed-face blocks,
and for an open-face case those of its closed-face attempt and of its
start together.  The cases:

* closed-face ``certificate_closed_face`` on the seeded corpus kinds of
  the certify workload (``stable_kind`` with moduli 2 to 3, and
  ``unstable_kind``, from ``bench/corpus.py``, imported read only: no
  bytecode is written there) at its degrees, (1,1) to (8,8);
* closed-face on (1 + d) - zw and its square at each edge d of the
  near_torus bands (``BANDS``), and on 1.01 - zw;
* open-face ``certificate_open_face``, default tolerance, on the torus
  zeros 2 - e^i z - e^2i w and 2 - e^0.3i z - w, which vanish off the
  grids the quadrature samples.
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
from corpus import (BANDS, CERTIFY_DEGREES, DEFAULT_SEED, stable_kind,  # noqa: E402
                    unstable_kind)

from bszego import (BiPoly, BszegoError, certificate_closed_face,  # noqa: E402
                    certificate_open_face, moments)

REPEAT = 15  # calls per case; the best one is reported


def cases():
    """(name, polynomial, certificate function) of every case, in order."""
    rng = np.random.default_rng(DEFAULT_SEED)
    for n, m in CERTIFY_DEGREES:
        for kind, a in (("zw", stable_kind(rng, n, m, 2.0, 3.0)),
                        ("unstable", unstable_kind(rng, n, m))):
            yield kind, BiPoly(a), certificate_closed_face
    for d in sorted(d for band in BANDS.values() for d in band):
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        yield f"(1+{d:.4f})-zw", one, certificate_closed_face
        yield f"((1+{d:.4f})-zw)^2", one * one, certificate_closed_face
    yield "1.01-zw", BiPoly([[1.01, 0.0], [0.0, -1.0]]), certificate_closed_face
    for name, b, c in (("2-e^i z-e^2i w", np.exp(1j), np.exp(2j)),
                       ("2-e^0.3i z-w", np.exp(0.3j), 1.0)):
        yield name + " open", BiPoly([[2.0, -c], [-b, 0.0]]), certificate_open_face


def samples(call):
    """The number of points at which the call evaluates S(z)^-1, counted in
    the stacks it passes to ``moments._inverse``."""
    count, inverse = [0], moments._inverse

    def counted(s, zs):
        count[0] += len(zs)
        return inverse(s, zs)

    moments._inverse = counted
    try:
        call()
    except BszegoError:
        pass
    finally:
        moments._inverse = inverse
    return count[0]


def main():
    print(f"{'case':24} {'deg':6} {'best ms':>8} {'S(z) pts':>8} {'blocks':10} residual")
    for name, p, certify in cases():
        times = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            try:
                cert = certify(p)
                outcome = (f"{str((len(cert.a_list), cert.n1, cert.n2)):10} "
                           f"{cert.residual:.2e}")
            except BszegoError as exc:
                outcome = type(exc).__name__
            times.append(time.perf_counter() - t0)
        n, m = p.deg
        print(f"{name:24} {f'({n},{m})':6} {1e3 * min(times):8.2f} "
              f"{samples(lambda: certify(p)):8d} {outcome}")


if __name__ == "__main__":
    main()
