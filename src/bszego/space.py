"""The finite-dimensional Hilbert space of polynomials under a moment form.

``MomentSpace`` wraps a moment table with degree caps (N, M) and realizes
the inner product <f, g> = sum f_u conj(g_v) c_{v-u} on monomials
z^u w^v with u in [0,N] x [0,M].  The Gram G of a rectangle [0,k] x [0,l]
of monomials is centro-Hermitian, so G = Q R Q^H with the real symmetric
R = Re G - (Im G) J and the unitary Q = (I + iJ)/sqrt(2), J the reversal
(``moments._real_form``).  The space factors R = L L^T once per rectangle,
in real arithmetic.  The caps' factor gives the embedding (Q L)^T, which
maps coefficient vectors isometrically into C^d for inner products and
projected spans.  The structural subspaces (E1, F1, E2, F2, H), each
the complement of every monomial of a rectangle but one edge of it, all
come from one formula on their rectangle's factor (``_complement``).

A basis stores its polynomials as BiPoly coefficient grids stacked
along a last axis, ``coeffs[j, k, i]``; flattened z-major, each grid is
a coordinate column for the Cholesky embedding.  Every basis polynomial
is phase-normalized so its first significant coefficient in that order
is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, InsufficientMoments
from .moments import MomentTable, _real_form, gram
from .poly import BiPoly, _readonly

RANK_TOL = 1e-8  # relative singular-value threshold for numerical rank
TRI_BLOCK = 32   # rows per diagonal block of _solve_lower's substitution


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal spanning set of a polynomial subspace.

    ``coeffs[j, k, i]`` is the coefficient of z^j w^k in the i-th basis
    polynomial: BiPoly's grid with the basis index last.  Orthonormality
    is with respect to the moment form of the space that built the basis.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _readonly(self.coeffs)
        if c.ndim != 3:
            raise DegenerateForm("basis coefficients must be a stack of grids")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self):
        return self.coeffs.shape[2]

    @property
    def vectors(self):
        """The grids flattened z-major: one coefficient column per polynomial."""
        rows, cols, dim = self.coeffs.shape
        return self.coeffs.reshape(rows * cols, dim)

    def polys(self):
        return [BiPoly(self.coeffs[:, :, i]) for i in range(self.dim)]

    def shifted(self, dz, dw):
        """Image under multiplication by z^dz w^dw.

        Monomial shifts are isometric within the form's degree caps, so
        the shifted set stays orthonormal there.
        """
        rows, cols, dim = self.coeffs.shape
        out = np.zeros((rows + dz, cols + dw, dim), dtype=complex)
        out[dz:, dw:] = self.coeffs
        return SubspaceBasis(out)

    def reflected(self, at):
        """Image under the anti-unitary reflection at degree ``at``."""
        rows, cols, _ = self.coeffs.shape
        if rows > at[0] + 1 or cols > at[1] + 1:
            raise InsufficientMoments("reflection degree below the basis degree")
        flipped = SubspaceBasis(np.conj(self.coeffs[::-1, ::-1]))
        return flipped.shifted(at[0] + 1 - rows, at[1] + 1 - cols)


def _phase_normalize(vectors):
    """Scale every (nonzero) column so that its first entry above 1e-8 of
    the column's largest modulus is real positive."""
    if vectors.size == 0:
        return vectors
    mags = np.abs(vectors)
    top = mags.max(axis=0)
    lead = vectors[np.argmax(mags > 1e-8 * top, axis=0),
                   np.arange(vectors.shape[1])]
    return vectors * (np.abs(lead) / lead)


class MomentSpace:
    """(P_{N,M}, <.,.>_T) for the positive form given by a moment table."""

    def __init__(self, table: MomentTable, nmax, mmax):
        if table.jmax < nmax or table.kmax < mmax:
            raise InsufficientMoments(
                f"table window ({table.jmax}, {table.kmax}) below caps "
                f"({nmax}, {mmax})")
        self.table = table
        self.nmax = int(nmax)
        self.mmax = int(mmax)
        self._factors = {}
        self._bases = {}
        L = self._factor(self.nmax, self.mmax)
        # G = (Q L)(Q L)^H with Q L = (L + i JL)/sqrt(2), JL = L rows reversed
        self._emb = ((L + 1j * L[::-1]) / np.sqrt(2)).T   # emb(f) = _emb @ f

    # -- coefficient plumbing ------------------------------------------------

    def _coords(self, grids):
        """A coefficient grid, or a stack of grids along a last axis, padded
        to the caps and flattened z-major (caps enforced)."""
        rows, cols, *tail = grids.shape
        if rows > self.nmax + 1 or cols > self.mmax + 1:
            raise InsufficientMoments(f"polynomial degree {(rows - 1, cols - 1)} "
                                      f"exceeds caps ({self.nmax}, {self.mmax})")
        out = np.zeros((self.nmax + 1, self.mmax + 1, *tail), dtype=complex)
        out[:rows, :cols] = grids
        return out.reshape(len(self._emb), *tail)

    def _embed(self, p: BiPoly):
        return self._emb @ self._coords(p.trimmed().coeffs)

    def embed_basis(self, b: SubspaceBasis):
        return self._emb @ self._coords(b.coeffs)

    def inner(self, f: BiPoly, g: BiPoly):
        """<f, g> under the moment form (linear in f, conjugate in g)."""
        return complex(np.sum(self._embed(f) * np.conj(self._embed(g))))

    def norm(self, f: BiPoly):
        return float(np.linalg.norm(self._embed(f)))

    def cross(self, a: SubspaceBasis, b: SubspaceBasis):
        """Matrix X[i, j] = <a_i, b_j>."""
        ea = self.embed_basis(a)
        eb = self.embed_basis(b)
        return ea.T @ np.conj(eb)

    # -- subspace construction ----------------------------------------------

    def _factor(self, k, l):
        """Real Cholesky factor of the rectangle [0,k] x [0,l]'s Gram in real
        form, R = Re G - (Im G) J = L L^T, memoised per space."""
        if (k, l) not in self._factors:
            try:
                self._factors[k, l] = np.linalg.cholesky(
                    _real_form(gram(self.table, k, l)))
            except np.linalg.LinAlgError as exc:
                raise DegenerateForm(
                    "moment Gram matrix is not positive definite") from exc
        return self._factors[k, l]

    def _complement(self, k, l, gens):
        """Orthonormal basis of P_{k,l} minus the span of every monomial
        but the generators, given by their z-major positions ``gens``.

        On coefficient vectors over the rectangle the form is <x, y> =
        y^H conj(G) x, G the monomials' Gram.  With E the unit columns of
        the generators, the columns of X = conj(G)^-1 E are orthogonal to
        every other monomial and span the complement; their Gram X^H conj(G)
        X is S = X[gens].  With S = V diag(lam) V^H, X V lam^-1/2 is
        orthonormal: it is the basis an SVD of the projected generators
        X S^-1 gives (their Gram is S^-1, their singular values lam^-1/2 in
        descending order), so the rank is full when lam > 0 and
        max lam / min lam < RANK_TOL^-2.  Since
        G = Q R Q^H with Q symmetric, conj(G)^-1 = conj(Q) R^-1 Q, and R^-1
        takes two real triangular solves on the rectangle's factor.
        """
        g = len(gens)
        L = self._factor(k, l)
        E = np.zeros((len(L), g))
        E[gens, np.arange(g)] = 1.0
        # R^-1 [E, JE] is R^-1 sqrt(2) Q E in real and imaginary parts; L^T
        # is upper triangular, and reversing both axes makes it lower
        Y = _solve_lower(L, np.hstack([E, E[::-1]]))
        Y = _solve_lower(L.T[::-1, ::-1], Y[::-1])[::-1]
        re, im = Y[:, :g], Y[:, g:]
        X = 0.5 * ((re + im[::-1]) + 1j * (im - re[::-1]))   # conj(Q) R^-1 Q E
        lam, V = np.linalg.eigh(X[gens])
        rank = int(np.sum(lam * RANK_TOL ** 2 < lam[0])) if lam[0] > 0 else 0
        if rank != g:
            raise DegenerateForm(
                f"subspace rank {rank} differs from expected {g}")
        vectors = _phase_normalize(X @ (V / np.sqrt(lam)))
        return SubspaceBasis(vectors.reshape(k + 1, l + 1, g))

    def basis(self, kind, k, l) -> SubspaceBasis:
        """Orthonormal basis of a structural subspace, memoised per space.

        Every kind is the complement in the rectangle P_{k,l} (P_{2n,M}
        for H) of every monomial but one edge of it, built by
        ``_complement`` from that rectangle's real Cholesky factor, which
        is computed once per space and shared by the kinds on one rectangle
        (the caps' factor also gives the embedding).  A rank drop raises
        DegenerateForm.

        E1(k,l) = P_{k,l} minus w P_{k,l-1}   (dimension k+1)
        F1(k,l) = P_{k,l} minus P_{k,l-1}     (dimension k+1)
        E2(k,l) = P_{k,l} minus z P_{k-1,l}   (dimension l+1)
        F2(k,l) = P_{k,l} minus P_{k-1,l}     (dimension l+1)
        H(n,M)  = P_{2n,M} minus all monomials except z^n (dimension 1),
        requested as basis("H", n, M).
        """
        key = (kind, k, l)
        if key in self._bases:
            return self._bases[key]
        if kind == "H":
            if 2 * k > self.nmax or l > self.mmax:
                raise InsufficientMoments("H space exceeds caps")
            corner, gens = (2 * k, l), [k * (l + 1)]
        elif kind in ("E1", "F1", "E2", "F2"):
            if k < 0 or l < 0:
                return SubspaceBasis(np.zeros((max(k + 1, 0), max(l + 1, 0), 0)))
            if k > self.nmax or l > self.mmax:
                raise InsufficientMoments(
                    f"{kind}({k},{l}) exceeds caps ({self.nmax}, {self.mmax})")
            grid = np.arange((k + 1) * (l + 1)).reshape(k + 1, l + 1)
            corner = (k, l)
            gens = {"E1": grid[:, 0], "F1": grid[:, l],
                    "E2": grid[0], "F2": grid[k]}[kind]
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        self._bases[key] = self._complement(*corner, gens)
        return self._bases[key]

    def projected_span(self, generators, target: SubspaceBasis,
                       expect) -> SubspaceBasis:
        """Orthonormal basis of P_target(span of generator polynomials), whose
        dimension must be ``expect`` (DegenerateForm otherwise)."""
        rank, u = 0, np.zeros((target.dim, 0))
        if target.dim and generators:
            emb_t = self.embed_basis(target)
            emb_g = np.column_stack([self._embed(g) for g in generators])
            coords = emb_t.conj().T @ emb_g       # coords[t, i] = <g_i, b_t>
            gen_scale = float(np.max(np.linalg.norm(emb_g, axis=0)))
            u, s, _ = np.linalg.svd(coords, full_matrices=False)
            if s[0] > 1e-12 * gen_scale:
                rank = int(np.sum(s > RANK_TOL * s[0]))
        if rank != expect:
            raise DegenerateForm(
                f"projected span rank {rank}, expected {expect}")
        rows, cols, _ = target.coeffs.shape
        vectors = _phase_normalize(target.vectors @ u[:, :rank])
        return SubspaceBasis(vectors.reshape(rows, cols, rank))

    # -- operations ----------------------------------------------------------

    def phi_sequence(self, n, m):
        """Orthonormal basis of E2(n, m) by inverse-moment-matrix rows.

        phi_j is built from the inverse of (c_{v-u}) over the index set
        S_j = [0,n] x [0,m] minus {(0,0), ..., (0,j-1)}, whose Gram is a
        trailing block of the z-major Gram of [0,n] x [0,m]: one Cholesky
        factor serves every stage (_inverse_rows).  This is the basis
        kernel_poly sums over (see the note there); basis("E2", n, m)
        spans the same space by its own Gram-Schmidt.
        """
        rows = _inverse_rows(gram(self.table, n, m), m + 1,
                             f"the phi sequence ({n}, {m})")
        return [BiPoly(row.reshape(n + 1, m + 1)) for row in rows]


def _solve_lower(L, B):
    """X with L X = B for lower-triangular L, by blocked substitution.

    Each block of TRI_BLOCK rows costs one dense solve on its diagonal
    block and one product with the rows already solved, so no dense
    solve is larger than TRI_BLOCK; an L of one block is one solve.  X is
    real when L and B are.
    """
    if L.shape[0] <= TRI_BLOCK:
        return np.linalg.solve(L, B)
    X = np.array(B, dtype=np.result_type(L, B, float))
    for i in range(0, L.shape[0], TRI_BLOCK):
        k = min(i + TRI_BLOCK, L.shape[0])
        X[i:k] = np.linalg.solve(L[i:k, i:k], X[i:k] - L[i:k, :i] @ X[:i])
    return X


def _inverse_rows(G, count, where):
    """First rows of the inverses of the trailing blocks G[j:, j:], j < count.

    G is the Gram of f_0, ..., f_d; row j holds coefficients x (zero
    before index j) of the unit-norm combination sum x_i f_i orthogonal
    to f_{j+1}, ..., f_d with <., f_j> real positive: the first row of
    G[j:, j:]^-1 scaled by 1/sqrt of its lead entry.  With G = U U^H, U
    upper triangular (the Cholesky factor of G in reversed order), each
    trailing block is U[j:, j:] U[j:, j:]^H, so that row is row j of
    U^-1.  ``where`` names the factorization in the messages.
    """
    try:
        L = np.linalg.cholesky(G[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise DegenerateForm(
            f"moment matrix not positive definite at {where}") from exc
    # U = L reversed on both axes; rows of U^-1 from U^T Y = I
    return np.triu(_solve_lower(L.T[::-1, ::-1], np.eye(len(G))[:, :count]).T)

