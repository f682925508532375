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
from .moments import (MomentTable, _rect, _rect_gram_eigvalsh, gram,
                      moments_from_density)
from .poly import BiPoly
from .reconstruct import reconstruct_p
from .space import _solve_lower

STRIP_TOL = 1e-7   # strip_match's bound on gamma entries and moment mismatch


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


def _nested_inverse_max(G, blocks, first, cols, where):
    """Largest |entry| in the last block rows of nested windows' inverses.

    Row t of ``blocks`` indexes block t of G, and window t is blocks 0..t.
    Entry t - first of the result, t >= first, is the largest |entry| in
    the block-t rows and block-0 columns ``cols`` of window t's inverse.
    With G = L L^H over the blocks, those rows are D_t^-H (L^-1 E_cols)_t
    for the diagonal block D_t of L, so one factor serves every window.
    """
    size = blocks.shape[1]
    idx = blocks.ravel()
    try:
        L = np.linalg.cholesky(G[np.ix_(idx, idx)])
    except np.linalg.LinAlgError as exc:
        raise DegenerateForm(
            f"Gram windows {where} not positive definite") from exc
    X = _solve_lower(L, np.eye(len(idx))[:, cols])
    out = []
    for t in range(first, len(blocks)):
        b = slice(t * size, (t + 1) * size)
        Dinv = _solve_lower(L[b, b], np.eye(size))
        out.append(float(np.max(np.abs(Dinv.conj().T @ X[b]))))
    return out


def _gammas(G, K, n, Nmax, M):
    """Largest |gamma entry| on [0, N+1] x [0, M] for N = n..Nmax.

    G is the z-major Gram over [0, J] x [0, K], J > Nmax, in which these
    windows are the leading blocks of [0, Nmax+1] x [0, M].
    """
    blocks = np.arange(Nmax + 2)[:, None] * (K + 1) + np.arange(M + 1)
    return _nested_inverse_max(G, blocks, n + 1, range(M + 1),
                               f"[0, {Nmax + 1}] x [0, {M}]")


def check_full_measure(table: MomentTable, n, m, Nmax=None, Mmax=None,
                       tol=1e-7) -> FullMeasureReport:
    """Run the gamma / xi vanishing tests up to depth (Nmax, Mmax).

    Defaults to depth (n + 3, m + 3).  The verdict "pass" means all
    tested entries, times c00, vanish below ``tol`` and the Gram windows
    are positive; it certifies the measure only up to the stated depth.
    The reported entries are not scaled.

    Nested windows are leading blocks of one Gram (the gamma windows of
    each M in z-major order, the xi windows in w-major order), so one
    Cholesky factor per family gives all their entries by triangular
    substitution; no window's Gram is inverted on its own.
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
    eigs = _rect_gram_eigvalsh(big)
    min_eig = float(eigs[0])
    positivity_ok = min_eig > 0.0
    if not positivity_ok or min_eig < 1e-13 * float(eigs[-1]):
        verdict = "fail" if not positivity_ok else "inconclusive"
        return FullMeasureReport(positivity_ok=positivity_ok,
                                 min_eigenvalue=min_eig,
                                 e2_conditions={}, h_conditions={},
                                 verdict=verdict, depth=(Nmax, Mmax), tol=tol)

    Ms = range(max(m - 1, 0), Mmax + 1)
    gam = {M: _gammas(big, Mmax, n, Nmax, M) for M in Ms}
    e2 = {(N, M): gam[M][N - n] for N in range(n, Nmax + 1) for M in Ms}

    # in w-major order the xi rows (j, M) are the last block of window M
    blocks = np.arange(Mmax + 1)[:, None] + (Mmax + 1) * np.arange(2 * n + 1)
    xi = _nested_inverse_max(big, blocks, m + 1, [n],
                             f"[0, {2 * n}] x [0, {Mmax}]")
    h = dict(zip(range(m + 1, Mmax + 1), xi))

    # inverse-Gram entries scale as 1 / c00, so compare them times c00
    c00 = float(table.at(0, 0).real)
    ok = all(c00 * v < tol for v in (*e2.values(), *h.values()))
    return FullMeasureReport(positivity_ok=True, min_eigenvalue=min_eig,
                             e2_conditions=e2, h_conditions=h,
                             verdict="pass" if ok else "fail",
                             depth=(Nmax, Mmax), tol=tol)


def strip_match(table: MomentTable, n, m) -> BiPoly:
    """Recover p from the (n, m) window, then verify the whole strip.

    The gamma conditions at M = m-1 and m are checked first (they are
    what extends the window reconstruction along the z-axis); the
    reconstructed polynomial must reproduce every table moment with
    |k| <= m to STRIP_TOL.
    """
    Nmax = table.jmax - 1
    sup = _rect(0, table.jmax, 0, m)
    G = gram(table, sup, sup)
    Ms = [M for M in (m - 1, m) if M >= 0]
    gam = {M: _gammas(G, m, n, Nmax, M) for M in Ms}
    for N in range(n, Nmax + 1):
        for M in Ms:
            worst = gam[M][N - n]
            if worst >= STRIP_TOL:
                raise MatrixConditionFails(
                    f"strip condition fails at window ({N + 1}, {M}): "
                    f"{worst:.3e}")
    p = reconstruct_p(table.window(n, m), n, m)
    check = moments_from_density(p, table.jmax, m)
    strip = table.c[:, table.kmax - m: table.kmax + m + 1]
    diff = float(np.max(np.abs(check.c - strip)))
    if diff > STRIP_TOL:
        raise NoConvergence(f"strip moments mismatch by {diff:.3e}")
    return p
