"""The finite-dimensional Hilbert space of polynomials under a moment form.

``MomentSpace`` wraps a moment table with degree caps (N, M) and realizes
the inner product <f, g> = sum f_u conj(g_v) c_{v-u} on monomials
z^u w^v with u in [0,N] x [0,M].  The Gram G of a rectangle [0,k] x [0,l]
of monomials is centro-Hermitian, so G = Q R Q^H with the real symmetric
R = Re G - (Im G) J and the unitary Q = (I + iJ)/sqrt(2), J the reversal
(``moments._real_form``).  The space gathers the caps' Gram and factors
R = L L^T once, in real arithmetic.  The factor gives the embedding
(Q L)^T, which maps coefficient vectors isometrically into C^d for inner
products and projected spans, and the columns of conj(G)^-1 at the caps
grid's boundary, from which the structural subspaces E1, F1, E2 and F2
of every rectangle inside the caps come by one formula (``_complement``).

A basis, ``phi_sequence``'s too, stores its polynomials as BiPoly
coefficient grids stacked along a last axis, ``coeffs[j, k, i]`` (the
layout of the ``sos`` certificate blocks); flattened z-major, each grid
is a coordinate column for the Cholesky embedding.  A basis carries no
phase rule: each polynomial's unimodular factor is whatever its solve
or SVD leaves, since only spans and inner products are read from it.
The one phase rule, ``poly._canonical_phase``, acts on the polynomials
that are printed.
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


class MomentSpace:
    """(P_{N,M}, <.,.>_T) for the positive form given by a moment table;
    ``forms`` passes the caps Gram and its real form if the caller has them."""

    def __init__(self, table: MomentTable, nmax, mmax, forms=None):
        if table.jmax < nmax or table.kmax < mmax:
            raise InsufficientMoments(
                f"table window ({table.jmax}, {table.kmax}) below caps "
                f"({nmax}, {mmax})")
        self.table = table
        self.nmax, self.mmax = int(nmax), int(mmax)
        self._bases, self._inverses = {}, {}
        self._gram = gram(table, self.nmax, self.mmax) if forms is None else forms[0]
        try:
            R = _real_form(self._gram) if forms is None else forms[1]
            self._L = L = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise DegenerateForm(
                "moment Gram matrix is not positive definite") from exc
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

    def _inverse_columns(self, pos):
        """Columns of conj(G)^-1 = conj(Q) R^-1 Q at the caps positions ``pos``.

        For the unit columns E of a set closed under the reversal J, R^-1
        [E, JE] is R^-1 sqrt(2) Q E in real and imaginary parts, and JE is
        E with its columns reversed: one pair of real triangular solves on
        L.  The set, cached, is the caps grid's boundary, ``pos`` and J pos.
        """
        flat, M = np.zeros(len(self._L), dtype=bool), self.mmax + 1
        flat[:M] = flat[-M:] = flat[::M] = flat[M - 1::M] = True   # the boundary
        flat[pos] = flat[::-1][pos] = True
        closed, key = np.flatnonzero(flat), flat.tobytes()
        if key not in self._inverses:
            # L^T is upper triangular, and reversing both axes makes it lower
            Y = _solve_lower(self._L, (np.arange(flat.size)[:, None] == closed) * 1.0)
            Y = _solve_lower(self._L.T[::-1, ::-1], Y[::-1])[::-1]
            self._inverses[key] = 0.5 * (Y + Y[::-1, ::-1] + 1j * (Y[:, ::-1] - Y[::-1]))
        return self._inverses[key][:, np.searchsorted(closed, pos)]

    def _complement(self, k, l, *gens):
        """Orthonormal bases of P_{k,l} minus the span of every monomial
        but the generators, one basis for each set of z-major generator
        positions in ``gens``, all from the caps' inverse columns.

        On coefficient vectors over the rectangle S = [0,k] x [0,l] the form
        is <x, y> = y^H conj(G_S) x, G_S the monomials' Gram.  With E the unit
        columns of the generators, the columns of X = conj(G_S)^-1 E are
        orthogonal to every other monomial and span the complement; their
        Gram X^H conj(G_S) X is S = X[gens].  With H = conj(G)^-1 and O the
        caps positions outside S, conj(G_S)^-1 = H_SS - H_SO H_OO^-1 H_OS (a
        Schur complement): one solve of size |O|.  With S = V diag(lam) V^H,
        X V lam^-1/2 is orthonormal, the basis an SVD of the projected
        generators X S^-1 gives (their Gram S^-1, singular values lam^-1/2
        descending): the rank is full when lam > 0, max / min < RANK_TOL^-2.
        """
        grid = np.arange(len(self._L)).reshape(self.nmax + 1, self.mmax + 1)
        inside = grid[:k + 1, :l + 1].ravel()
        outside = np.concatenate([grid[:k + 1, l + 1:].ravel(), grid[k + 1:].ravel()])
        H = self._inverse_columns(np.concatenate([outside, inside[np.concatenate(gens)]]))
        o, H_out = len(outside), H[outside]
        X = (H[:, o:] - H[:, :o] @ np.linalg.solve(H_out[:, :o], H_out[:, o:]))[inside]
        out, end = [], 0
        for pos in gens:
            x, end = X[:, end:end + len(pos)], end + len(pos)
            lam, V = np.linalg.eigh(x[pos])
            rank = int(np.sum(lam * RANK_TOL ** 2 < lam[0])) if lam[0] > 0 else 0
            if rank != len(pos):
                raise DegenerateForm(
                    f"subspace rank {rank} differs from expected {len(pos)}")
            out.append(SubspaceBasis((x @ (V / np.sqrt(lam))).reshape(k + 1, l + 1, -1)))
        return out

    def basis(self, kind, k, l) -> SubspaceBasis:
        """Orthonormal basis of a structural subspace, memoised per space.

        Each kind is the complement in the rectangle P_{k,l} of every
        monomial but one edge of it, built by ``_complement`` from the
        caps' inverse columns.  E2 and F2, which the shift operators read
        together, are built together by one call.  A rank drop raises
        DegenerateForm, and a kind other than these four ValueError.  More
        than one step inside the caps, the complement cancels at the scale
        of conj(G)^-1: orthonormal to about eps cond(G) only (2.6e-7 at
        cond 1.5e10).  The operators' rectangles reach the caps' boundary.

        E1(k,l) = P_{k,l} minus w P_{k,l-1}   (dimension k+1)
        F1(k,l) = P_{k,l} minus P_{k,l-1}     (dimension k+1)
        E2(k,l) = P_{k,l} minus z P_{k-1,l}   (dimension l+1)
        F2(k,l) = P_{k,l} minus P_{k-1,l}     (dimension l+1)
        """
        key = (kind, k, l)
        if key in self._bases:
            return self._bases[key]
        if kind not in ("E1", "F1", "E2", "F2"):
            raise ValueError(f"unknown space kind {kind!r}")
        if k < 0 or l < 0:
            return SubspaceBasis(np.zeros((max(k + 1, 0), max(l + 1, 0), 0)))
        if k > self.nmax or l > self.mmax:
            raise InsufficientMoments(
                f"{kind}({k},{l}) exceeds caps ({self.nmax}, {self.mmax})")
        grid = np.arange((k + 1) * (l + 1)).reshape(k + 1, l + 1)
        gens = {"E1": grid[:, 0], "F1": grid[:, l],
                "E2": grid[0], "F2": grid[k]}
        kinds = ("E2", "F2") if kind in ("E2", "F2") else (kind,)
        bases = self._complement(k, l, *(gens[name] for name in kinds))
        for name, b in zip(kinds, bases):
            self._bases[name, k, l] = b
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
        return SubspaceBasis((target.vectors @ u[:, :rank]).reshape(rows, cols, rank))

    # -- operations ----------------------------------------------------------

    def phi_sequence(self, n, m) -> SubspaceBasis:
        """Orthonormal basis of E2(n, m) by inverse-moment-matrix rows,
        phi_j the grid ``coeffs[:, :, j]`` of the stack.

        phi_j is built from the inverse of (c_{v-u}) over the index set
        S_j = [0,n] x [0,m] minus {(0,0), ..., (0,j-1)}, whose Gram is a
        trailing block of the caps Gram's [0,n] x [0,m] block (n, m within
        the caps): one Cholesky factor serves every stage (_inverse_rows).
        This is the basis kernel_poly sums over (see the note there);
        basis("E2", n, m) spans the same space by its own Gram-Schmidt.
        """
        caps = self._gram.reshape((self.nmax + 1, self.mmax + 1) * 2)
        G = caps[:n + 1, :m + 1, :n + 1, :m + 1].reshape(((n + 1) * (m + 1),) * 2)
        rows = _inverse_rows(G, m + 1, f"the phi sequence ({n}, {m})")
        return SubspaceBasis(rows.T.reshape(n + 1, m + 1, m + 1))


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
    return np.triu(_solve_lower(L.T[::-1, ::-1], np.eye(len(G), count)).T)

