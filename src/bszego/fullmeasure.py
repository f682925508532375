"""Moment-level test for measures of Bernstein-Szego type.

A non-degenerate measure on the bicircle equals dsigma / |p|^2 for some
p of degree at most (n, m) without zeros on the closed face exactly
when every monomial Gram window is nonsingular, certain entries of the
inverse Gram on windows [0, N+1] x [0, M] vanish (the gamma conditions,
N >= n, M >= m-1), and certain entries of the inverse Gram on windows
[0, 2n] x [0, M] vanish (the xi conditions, M > m).  Any finite run is
necessarily a truncation, so verdicts are always "up to depth".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateForm, InsufficientMoments,
                     MatrixConditionFails, NoConvergence)
from .moments import MomentTable, _rect, gram, moments_from_density
from .poly import BiPoly
from .reconstruct import reconstruct_p


@dataclass(frozen=True)
class FullMeasureReport:
    positivity_ok: bool
    min_eigenvalue: float
    e2_conditions: dict      # (N, M) -> max |gamma entry|
    h_conditions: dict       # M -> max |xi entry|
    verdict: str             # "pass" | "fail" | "inconclusive"
    depth: tuple
    tol: float

    def max_gamma(self):
        return max(self.e2_conditions.values(), default=0.0)

    def max_xi(self):
        return max(self.h_conditions.values(), default=0.0)

    def to_json(self):
        return {"positivity_ok": self.positivity_ok,
                "min_eigenvalue": self.min_eigenvalue,
                "e2_conditions": {f"{N},{M}": v
                                  for (N, M), v in self.e2_conditions.items()},
                "h_conditions": {str(M): v
                                 for M, v in self.h_conditions.items()},
                "verdict": self.verdict,
                "depth": list(self.depth), "tol": self.tol}


def _inverse_max(G, K, j1, k1, rows, cols):
    """Largest |entry| in rows x cols of the inverse Gram on [0,j1] x [0,k1].

    G is the Gram over [0, J] x [0, K] in z-major order, so the window's
    Gram is the principal submatrix at exponents (j, k), j <= j1, k <= k1.
    ``rows`` and ``cols`` are exponents inside the window.
    """
    idx = (np.arange(j1 + 1)[:, None] * (K + 1) + np.arange(k1 + 1)).ravel()
    rows = [j * (k1 + 1) + k for j, k in rows]
    cols = [j * (k1 + 1) + k for j, k in cols]
    try:
        X = np.linalg.solve(G[np.ix_(idx, idx)],
                            np.eye(len(idx), dtype=complex)[:, cols])
    except np.linalg.LinAlgError as exc:
        raise DegenerateForm(f"singular Gram window at ({j1}, {k1})") from exc
    return float(np.max(np.abs(X[rows, :])))


def _gamma(G, K, N, M):
    """Largest |gamma entry| of the inverse Gram on [0, N+1] x [0, M]."""
    return _inverse_max(G, K, N + 1, M, [(0, j) for j in range(M + 1)],
                        [(N + 1, k) for k in range(M + 1)])


def check_full_measure(table: MomentTable, n, m, Nmax=None, Mmax=None,
                       tol=1e-7) -> FullMeasureReport:
    """Run the gamma / xi vanishing tests up to depth (Nmax, Mmax).

    Defaults to depth (n + 3, m + 3).  The verdict "pass" means all
    tested entries vanish below ``tol`` and the Gram windows are
    positive; it certifies the measure only up to the stated depth.
    """
    Nmax = n + 3 if Nmax is None else int(Nmax)
    Mmax = m + 3 if Mmax is None else int(Mmax)
    if Nmax < n or Mmax < m:
        raise InsufficientMoments("depth below the degree bound")
    need_j = max(Nmax + 1, 2 * n)
    if table.jmax < need_j or table.kmax < Mmax:
        raise InsufficientMoments(
            f"table window ({table.jmax}, {table.kmax}) below required "
            f"({need_j}, {Mmax})")

    sup = _rect(0, need_j, 0, Mmax)
    big = gram(table, sup, sup)
    eigs = np.linalg.eigvalsh(big)
    min_eig = float(eigs[0])
    positivity_ok = min_eig > 0.0
    if not positivity_ok or min_eig < 1e-13 * max(float(eigs[-1]), 1.0):
        verdict = "fail" if not positivity_ok else "inconclusive"
        return FullMeasureReport(positivity_ok=positivity_ok,
                                 min_eigenvalue=min_eig,
                                 e2_conditions={}, h_conditions={},
                                 verdict=verdict, depth=(Nmax, Mmax), tol=tol)

    e2 = {}
    for N in range(n, Nmax + 1):
        for M in range(max(m - 1, 0), Mmax + 1):
            e2[(N, M)] = _gamma(big, Mmax, N, M)

    h = {}
    for M in range(m + 1, Mmax + 1):
        h[M] = _inverse_max(big, Mmax, 2 * n, M,
                            [(j, M) for j in range(2 * n + 1)], [(n, 0)])

    ok = all(v < tol for v in e2.values()) and all(v < tol for v in h.values())
    return FullMeasureReport(positivity_ok=True, min_eigenvalue=min_eig,
                             e2_conditions=e2, h_conditions=h,
                             verdict="pass" if ok else "fail",
                             depth=(Nmax, Mmax), tol=tol)


def strip_match(table: MomentTable, n, m, tol=1e-7) -> BiPoly:
    """Recover p from the (n, m) window, then verify the whole strip.

    The gamma conditions at M = m-1 and m are checked first (they are
    what extends the window reconstruction along the z-axis); the
    reconstructed polynomial must reproduce every table moment with
    |k| <= m to ``tol``.
    """
    Nmax = table.jmax - 1
    sup = _rect(0, table.jmax, 0, m)
    G = gram(table, sup, sup)
    for N in range(n, Nmax + 1):
        for M in (m - 1, m):
            if M < 0:
                continue
            worst = _gamma(G, m, N, M)
            if worst >= tol:
                raise MatrixConditionFails(
                    f"strip condition fails at window ({N + 1}, {M}): "
                    f"{worst:.3e}")
    p = reconstruct_p(table.window(n, m), n, m)
    check = moments_from_density(p, table.jmax, m)
    strip = table.c[:, table.kmax - m: table.kmax + m + 1]
    diff = float(np.max(np.abs(check.c - strip)))
    if diff > tol:
        raise NoConvergence(f"strip moments mismatch by {diff:.3e}")
    return p
