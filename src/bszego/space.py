"""The finite-dimensional Hilbert space of polynomials under a moment form.

``MomentSpace`` wraps a moment table with degree caps (N, M) and realizes
the inner product <f, g> = sum f_u conj(g_v) c_{v-u} on monomials
z^u w^v with u in [0,N] x [0,M]: x^T G conj(y) on coefficient vectors x
and y, G the caps' Gram.  The space is the one positivity gate: it
gathers G once and refuses a form that ``moments._positive`` does not
find positive.  G is centro-Hermitian, so G = Q R Q^H with the real
symmetric R = Re G - (Im G) J and the unitary Q = (I + iJ)/sqrt(2), J
the reversal (``moments._real_form``).  The space factors R = L L^T once,
in real arithmetic; the factor gives the columns of conj(G)^-1 at the
caps grid's boundary, from which the structural subspaces E1, F1, E2 and
F2 of every rectangle inside the caps come by one formula
(``_complement``).

A basis, ``phi_sequence``'s too, stores its polynomials as BiPoly
coefficient grids stacked along a last axis, ``coeffs[j, k, i]`` (the
layout of the ``sos`` certificate blocks); padded to the caps and
flattened z-major, each grid is a coefficient vector of the form.  A
basis carries no phase rule: each polynomial's unimodular factor is
whatever its solve or SVD leaves, since only spans and inner products
are read from it.  The one phase rule, ``poly._canonical_phase``, acts on
the polynomials that are printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateForm, InsufficientMoments, NotPositive
from .moments import MomentTable, _positive, _real_form, gram
from .poly import BiPoly, _frozen, _readonly

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
    """(P_{N,M}, <.,.>_T) for the positive form given by a moment table:
    NotPositive unless ``moments._positive`` finds it positive on the caps."""

    def __init__(self, table: MomentTable, nmax, mmax):
        if table.jmax < nmax or table.kmax < mmax:
            raise InsufficientMoments(
                f"table window ({table.jmax}, {table.kmax}) below caps "
                f"({nmax}, {mmax})")
        self.table = table
        self.nmax, self.mmax = int(nmax), int(mmax)
        self._bases, self._columns = {}, None
        self._gram = gram(table, self.nmax, self.mmax)
        self._slot = np.full(len(self._gram), -1)   # see _inverse_columns
        R = _real_form(self._gram)
        ok, self._lam = _positive(R)    # R's least eigenvalue if the gate took it
        if not ok:
            raise NotPositive(f"moment form not positive (eigenvalue {self._lam:.3e})")
        try:
            self._L = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise DegenerateForm(
                "moment Gram matrix is not positive definite") from exc

    # -- coefficient plumbing ------------------------------------------------

    def _coords(self, grids, dz=0, dw=0):
        """A coefficient grid, or a stack of grids along a last axis, times
        z^dz w^dw, padded to the caps and flattened z-major (caps enforced)."""
        rows, cols, *tail = grids.shape
        rows, cols = rows + dz, cols + dw
        if rows > self.nmax + 1 or cols > self.mmax + 1:
            raise InsufficientMoments(f"polynomial degree {(rows - 1, cols - 1)} "
                                      f"exceeds caps ({self.nmax}, {self.mmax})")
        out = np.zeros((self.nmax + 1, self.mmax + 1, *tail), dtype=complex)
        out[dz:rows, dw:cols] = grids
        return out.reshape(len(self._gram), *tail)

    def _form(self, x, y):
        """x^T G conj(y): the form on coefficient vectors, or on the columns
        of two stacks of them."""
        return x.T @ (self._gram @ np.conj(y))

    def inner(self, f: BiPoly, g: BiPoly):
        """<f, g> under the moment form (linear in f, conjugate in g)."""
        return complex(self._form(self._coords(f.trimmed().coeffs),
                                  self._coords(g.trimmed().coeffs)))

    def norm(self, f: BiPoly):
        x = self._coords(f.trimmed().coeffs)
        return float(np.sqrt(self._form(x, x).real))

    def cross(self, a: SubspaceBasis, b: SubspaceBasis):
        """Matrix X[i, j] = <a_i, b_j>."""
        return self._form(self._coords(a.coeffs), self._coords(b.coeffs))

    # -- subspace construction ----------------------------------------------

    def _inverse_columns(self, pos):
        """Columns of conj(G)^-1 = conj(Q) R^-1 Q at the caps positions ``pos``.

        For the unit columns E of a set closed under the reversal J, R^-1
        [E, JE] is R^-1 sqrt(2) Q E in real and imaginary parts, and JE is
        E with its columns reversed: one pair of real triangular solves on
        L.  Kept as ``_columns[:, _slot[i]]`` = conj(G)^-1 e_i, the set is the caps
        grid's boundary (where the bases and ``factor`` read), plus ``pos`` and J pos.
        """
        if self._slot[pos].min() < 0:
            flat, M = self._slot >= 0, self.mmax + 1
            flat[:M] = flat[-M:] = flat[::M] = flat[M - 1::M] = True   # the boundary
            flat[pos] = flat[::-1][pos] = True
            closed = np.flatnonzero(flat)
            # L^T is upper triangular, and reversing both axes makes it lower
            Y = _solve_lower(self._L, (np.arange(flat.size)[:, None] == closed) * 1.0)
            Y = _solve_lower(self._L.T[::-1, ::-1], Y[::-1])[::-1]
            self._columns = 0.5 * (Y + Y[::-1, ::-1] + 1j * (Y[:, ::-1] - Y[::-1]))
            self._slot[closed] = np.arange(len(closed))
        return self._columns[:, self._slot[pos]]

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
        inside, outside = _rectangle(self.nmax, self.mmax, k, l)
        gens = np.array(gens)       # one row of generator positions per basis
        H = self._inverse_columns(np.concatenate([outside, inside[gens.ravel()]]))
        o, X = len(outside), H[:, len(outside):]
        if o:       # the caps rectangle has no Schur complement to take
            X = X - H[:, :o] @ np.linalg.solve(H[outside, :o], H[outside, o:])
        X = X[inside].reshape(len(inside), *gens.shape)    # X[:, j]: basis j's columns
        lams, Vs = np.linalg.eigh(X[gens, np.arange(len(gens))[:, None]])   # one call
        out = []
        for x, lam, V in zip(X.transpose(1, 0, 2), lams, Vs):
            full = lam[0] > 0 and lam[-1] * RANK_TOL ** 2 < lam[0]   # lam ascends
            if not full:
                rank = int(np.sum(lam * RANK_TOL ** 2 < lam[0])) if lam[0] > 0 else 0
                raise DegenerateForm(
                    f"subspace rank {rank} differs from expected {len(lam)}")
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
            x = np.column_stack([self._coords(g.trimmed().coeffs) for g in generators])
            coords = self._form(x, self._coords(target.coeffs)).T   # <g_i, b_t>
            gen_scale = float(np.sqrt(np.max(np.diagonal(self._form(x, x)).real)))
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


@lru_cache(maxsize=256)
def _rectangle(nmax, mmax, k, l):
    """z-major caps positions inside [0,k] x [0,l] and outside it, caps
    (nmax, mmax), the outside ones columns l+1.. of rows 0..k first."""
    grid = np.arange((nmax + 1) * (mmax + 1)).reshape(nmax + 1, mmax + 1)
    outside = np.concatenate([grid[:k + 1, l + 1:].ravel(), grid[k + 1:].ravel()])
    return _frozen(grid[:k + 1, :l + 1].ravel()), _frozen(outside)


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

