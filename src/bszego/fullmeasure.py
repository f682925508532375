"""Moment-level test for measures of Bernstein-Szego type.

A non-degenerate measure on the bicircle equals dsigma / |p|^2 for some
p of degree at most (n, m) without zeros on the closed face exactly
when every monomial Gram window is nonsingular, certain entries of the
inverse Gram on windows [0, N+1] x [0, M] vanish (the gamma conditions,
N >= n, M >= m-1), and certain entries of the inverse Gram on windows
[0, 2n] x [0, M] vanish (the xi conditions, M > m).  Any finite run is
necessarily a truncation, so verdicts are always "up to depth".

Inverse-Gram entries scale as 1 / c00 and moment gaps as c00, so each
is compared times or over c00 with one floor, VANISH_TOL: no verdict
depends on the measure's scale.

No window's Gram is inverted on its own.  The windows nest in both z and
w, but every gamma window holds the rectangle [0, n] x [0, M]: with it
first, one Cholesky factor of [0, Nmax+1] x [0, Mmax] serves every gamma
family, each family's windows being the leading blocks of a Schur
complement of at most (Nmax - n + 1)(M + 1) rows (``_gamma_families``).
The xi windows are the leading blocks of one w-major Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateForm, InsufficientMoments,
                     MatrixConditionFails, NoConvergence)
from .moments import MomentTable, gram, is_positive, moments_from_density
from .poly import BiPoly
from .reconstruct import reconstruct_p
from .space import _solve_lower

VANISH_TOL = 1e-7   # bound on c00 * |gamma|, c00 * |xi| and the strip gap / c00


@dataclass(frozen=True)
class FullMeasureReport:
    positivity_ok: bool
    min_eigenvalue: float
    e2_conditions: dict      # (N, M) -> max |gamma entry|
    h_conditions: dict       # M -> max |xi entry|
    verdict: str             # "pass" | "fail" | "inconclusive"
    depth: tuple
    tol: float               # VANISH_TOL, the floor the verdict used


def _factor(G, where):
    """Cholesky factor of G; DegenerateForm naming ``where`` if it fails."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise DegenerateForm(
            f"Gram windows {where} not positive definite") from exc


def _units(size, rows):
    """The columns ``rows`` of the size x size identity."""
    units = np.zeros((size, len(rows)))
    units[rows, np.arange(len(rows))] = 1.0
    return units


def _nested_inverse_max(G, size, first, B, where):
    """Largest |entry| in the last block rows of nested windows' inverses
    times the leading rows of B.

    G is in window order: window t is its leading (t + 1) * size rows and
    columns, of which the last ``size`` are block t.  Entry t - first of
    the result, t >= first, is the largest |entry| in the block-t rows of
    window t's inverse times B's first (t + 1) * size rows.  With G = L
    L^H, those rows are D_t^-H (L^-1 B)_t for the diagonal block D_t of L,
    so one factor and one batched solve against the stack of D_t^H serve
    every window.
    """
    L = _factor(G, where)
    X = _solve_lower(L, B)
    T = len(G) // size
    t = np.arange(first, T)
    D = L.reshape(T, size, T, size)[t, :, t]   # D[i] = D_{t[i]}
    rows = np.linalg.solve(D.conj().transpose(0, 2, 1),
                           X[first * size:].reshape(len(t), size, B.shape[1]))
    return np.abs(rows).max(axis=(1, 2)).tolist()


def _gamma_families(table, n, Nmax, Ms):
    """{M: largest |gamma entry| on [0, N+1] x [0, M], N = n..Nmax} for M in Ms.

    Every window of family M starts with A_M = [0, n] x [0, M], which holds
    the gamma columns (0, k).  One factor L serves every family: that of
    the Gram of [0, Nmax+1] x [0, Mmax], ordered with [0, n] x [0, Mmax]
    first, w-major (so each A_M is a leading block), then the z-blocks
    n+1..Nmax+1, z-major.  L's rows W_M at the family's tail and columns A_M
    give the Schur complement S_M = C_M - W_M W_M^H of the tail's Gram C_M,
    whose leading blocks are the windows' tails; the gamma rows of a
    window's inverse are those of S_t^-1 (-W_M L_A^-1 E), E the unit
    columns (0, k), so S_M's nested windows give them all.  One solve on
    the head gives L_A^-1 E for every family.
    """
    Mmax = max(Ms)
    G, h = gram(table, Nmax + 1, Mmax), (n + 1) * (Mmax + 1)
    order = np.r_[np.arange(h).reshape(n + 1, Mmax + 1).T.ravel(), h:len(G)]
    L = _factor(G[order[:, None], order], f"[0, {Nmax + 1}] x [0, {Mmax}]")
    X = _solve_lower(L[:h, :h], _units(h, range(0, h, n + 1)))   # (0, k) is row k(n+1)
    tails = L[h:, :h].reshape(Nmax - n + 1, Mmax + 1, h)
    out = {}
    for M in Ms:
        a = (n + 1) * (M + 1)
        W = tails[:, :M + 1, :a].reshape(-1, a)
        S = gram(table, Nmax - n, M) - W @ W.conj().T
        out[M] = _nested_inverse_max(S, M + 1, 0, -W @ X[:a, :M + 1],
                                     f"[0, {Nmax + 1}] x [0, {M}]")
    return out


def _xi_family(table, n, m, Mmax):
    """Largest |xi entry| on [0, 2n] x [0, M] for M = m+1..Mmax.

    In w-major order the xi rows (j, M) are the last block of window M;
    that is z-major order on the transposed table, which keeps every entry
    bit for bit (an exactly Hermitian table re-symmetrises exactly).
    """
    wmajor = gram(MomentTable(table.kmax, table.jmax, table.c.T), Mmax, 2 * n)
    return _nested_inverse_max(wmajor, 2 * n + 1, m + 1, _units(len(wmajor), [n]),
                               f"[0, {2 * n}] x [0, {Mmax}]")


def check_full_measure(table: MomentTable, n, m, Nmax=None,
                       Mmax=None) -> FullMeasureReport:
    """Run the gamma / xi vanishing tests up to depth (Nmax, Mmax).

    Defaults to depth (n + 3, m + 3).  The verdict "pass" means all
    tested entries, times c00, vanish below VANISH_TOL and the Gram
    windows are positive; it certifies the measure only up to the stated
    depth.  Windows that are not positive give "fail", and windows that
    ``is_positive`` calls nearly singular give "inconclusive", both with
    no entries.  The reported entries are not scaled.

    The gamma windows of every M come from one Cholesky factor of the
    Gram of [0, Nmax+1] x [0, Mmax], its rectangle [0, n] x [0, Mmax]
    first: those of each M are the leading blocks of a Schur complement
    on [n+1, Nmax+1] x [0, M], one small factor and one batched solve per
    M.  The xi windows are the leading blocks of ``gram`` on the transposed
    table, which is w-major order on [0, 2n] x [0, Mmax]: one factor and
    one batched solve.
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

    positive, min_eig = is_positive(table, need_j, Mmax)
    e2, h = {}, {}
    verdict = "inconclusive" if min_eig > 0.0 else "fail"
    if positive:
        Ms = range(max(m - 1, 0), Mmax + 1)
        gam = _gamma_families(table, n, Nmax, Ms)
        e2 = {(N, M): gam[M][N - n] for N in range(n, Nmax + 1) for M in Ms}
        h = dict(zip(range(m + 1, Mmax + 1), _xi_family(table, n, m, Mmax)))
        c00 = float(table.at(0, 0).real)
        ok = all(c00 * v < VANISH_TOL for v in (*e2.values(), *h.values()))
        verdict = "pass" if ok else "fail"
    return FullMeasureReport(positivity_ok=min_eig > 0.0, min_eigenvalue=min_eig,
                             e2_conditions=e2, h_conditions=h, verdict=verdict,
                             depth=(Nmax, Mmax), tol=VANISH_TOL)


def strip_match(table: MomentTable, n, m) -> BiPoly:
    """Recover p from the (n, m) window, then verify the whole strip.

    The gamma conditions at M = m-1 and m are checked first (they are
    what extends the window reconstruction along the z-axis), times c00
    against VANISH_TOL, on the windows [0, N+1] x [0, M] up to N = jmax - 1:
    both families come from one Cholesky factor of [0, jmax] x [0, m], as
    in ``check_full_measure`` (DegenerateForm if it fails).  The
    reconstructed polynomial must then reproduce every table moment with
    |k| <= m to VANISH_TOL * c00.
    """
    Nmax = table.jmax - 1
    Ms = [M for M in (m - 1, m) if M >= 0]
    gam = _gamma_families(table, n, Nmax, Ms)
    # the gammas' Cholesky factor succeeded, so c00, its first pivot, is > 0
    c00 = float(table.at(0, 0).real)
    for N in range(n, Nmax + 1):
        for M in Ms:
            worst = c00 * gam[M][N - n]
            if not worst < VANISH_TOL:
                raise MatrixConditionFails(
                    f"strip condition fails at window ({N + 1}, {M}): "
                    f"{worst:.3e}")
    p = reconstruct_p(table.window(n, m), n, m)
    check = moments_from_density(p, table.jmax, m)
    strip = table.c[:, table.kmax - m: table.kmax + m + 1]
    gap = float(np.max(np.abs(check.c - strip))) / c00
    if not gap <= VANISH_TOL:
        raise NoConvergence(f"strip moments mismatch by {gap:.3e} of c00")
    return p
