"""The finite-dimensional Hilbert space of polynomials under a moment form.

``MomentSpace`` wraps a moment table with degree caps (N, M) and realizes
the inner product <f, g> = sum f_u conj(g_v) c_{v-u} on monomials
z^u w^v with u in [0,N] x [0,M].  A Cholesky factor of the full Gram
matrix embeds coefficient vectors isometrically into C^d for inner
products and projected spans.  The structural subspaces (E1, F1, E2, F2,
H), complements of monomial spans in a rectangle, all come from one
Cholesky Gram-Schmidt that orders the removed monomials first.

Subspace conventions follow the lexicographic support order
(z-power major), and every basis column is phase-normalized so its
first significant coefficient is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, InsufficientMoments
from .moments import MomentTable, _rect, gram
from .poly import BiPoly

RANK_TOL = 1e-8  # relative singular-value threshold for numerical rank
TRI_BLOCK = 32   # rows per diagonal block of _solve_lower's substitution


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal spanning set of a polynomial subspace.

    ``support`` lists monomial exponents (j, k); column i of ``vectors``
    holds the coefficients of the i-th basis polynomial over that
    support.  Orthonormality is with respect to the moment form of the
    space that built the basis.
    """

    support: tuple
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != len(self.support):
            raise DegenerateForm("basis vectors do not match support")
        v = np.array(v)
        v.setflags(write=False)
        object.__setattr__(self, "support", tuple(map(tuple, self.support)))
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def poly(self, i) -> BiPoly:
        if not self.support:
            return BiPoly(np.zeros((1, 1)))
        n = max(j for j, _ in self.support)
        m = max(k for _, k in self.support)
        out = np.zeros((n + 1, m + 1), dtype=complex)
        for row, (j, k) in enumerate(self.support):
            out[j, k] = self.vectors[row, i]
        return BiPoly(out)

    def polys(self):
        return [self.poly(i) for i in range(self.dim)]

    def evaluate(self, z, w):
        """Values of all basis polynomials at (z, w); trailing axis = index."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if not self.support:
            return np.zeros(z.shape + (0,), dtype=complex)
        js = np.array([j for j, _ in self.support])
        ks = np.array([k for _, k in self.support])
        mono = z[..., None] ** js * w[..., None] ** ks
        return mono @ self.vectors

    def kernel(self, zw, zeta_eta):
        """Reproducing kernel sum_i b_i(z, w) conj(b_i(zeta, eta))."""
        a = self.evaluate(*zw)
        b = self.evaluate(*zeta_eta)
        return np.sum(a * np.conj(b), axis=-1)

    def shifted(self, dz, dw):
        """Image under multiplication by z^dz w^dw.

        Monomial shifts are isometric within the form's degree caps, so
        the shifted set stays orthonormal there.
        """
        sup = tuple((j + dz, k + dw) for j, k in self.support)
        return SubspaceBasis(sup, self.vectors)

    def reflected(self, at):
        """Image under the anti-unitary reflection at degree ``at``."""
        J, K = at
        for j, k in self.support:
            if j > J or k > K:
                raise InsufficientMoments("reflection degree below support")
        sup = tuple((J - j, K - k) for j, k in self.support)
        return SubspaceBasis(sup, np.conj(self.vectors))


def empty_basis() -> SubspaceBasis:
    return SubspaceBasis((), np.zeros((0, 0)))


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
        self.support = _rect(0, self.nmax, 0, self.mmax)
        self._index = {u: i for i, u in enumerate(self.support)}
        try:
            L = np.linalg.cholesky(gram(table, self.support, self.support))
        except np.linalg.LinAlgError as exc:
            raise DegenerateForm("moment Gram matrix is not positive definite") from exc
        self._emb = L.T           # emb(f) = L.T @ f ; columns are monomial embeddings
        self._bases = {}

    # -- coefficient plumbing ------------------------------------------------

    def _vec(self, p: BiPoly):
        """Coefficient vector of p over the full support (caps enforced)."""
        t = p.trimmed()
        n, m = t.deg
        if n > self.nmax or m > self.mmax:
            raise InsufficientMoments(
                f"polynomial degree {(n, m)} exceeds caps "
                f"({self.nmax}, {self.mmax})")
        out = np.zeros(len(self.support), dtype=complex)
        for j in range(n + 1):
            base = j * (self.mmax + 1)
            out[base: base + m + 1] = t.coeffs[j]
        return out

    def _vec_basis(self, b: SubspaceBasis):
        """Scatter a SubspaceBasis into full-support coordinate columns."""
        out = np.zeros((len(self.support), b.dim), dtype=complex)
        out[[self._index[u] for u in b.support]] = b.vectors
        return out

    def embed(self, p: BiPoly):
        return self._emb @ self._vec(p)

    def embed_basis(self, b: SubspaceBasis):
        return self._emb @ self._vec_basis(b)

    def inner(self, f: BiPoly, g: BiPoly):
        """<f, g> under the moment form (linear in f, conjugate in g)."""
        return complex(np.sum(self.embed(f) * np.conj(self.embed(g))))

    def norm(self, f: BiPoly):
        return float(np.linalg.norm(self.embed(f)))

    def cross(self, a: SubspaceBasis, b: SubspaceBasis):
        """Matrix X[i, j] = <a_i, b_j>."""
        ea = self.embed_basis(a)
        eb = self.embed_basis(b)
        return ea.T @ np.conj(eb)

    # -- subspace construction ----------------------------------------------

    def _phase_normalize(self, vectors):
        out = np.array(vectors)
        for i in range(out.shape[1]):
            col = out[:, i]
            mags = np.abs(col)
            top = mags.max()
            if top == 0.0:
                continue
            lead = col[np.nonzero(mags > 1e-8 * top)[0][0]]
            out[:, i] = col * (np.abs(lead) / lead)
        return out

    def _complement(self, ambient, removed):
        """Orthonormal basis of span(ambient) minus span(removed).

        Gram-Schmidt with the removed monomials first: for the form's Gram
        F = L L^H over ``removed`` then the g generators, the last g columns
        of L^-H are orthonormal and orthogonal to every removed monomial.
        The projected generators have coordinates L[-g:, -g:]^H in them;
        its left singular vectors rotate them to the basis an SVD of the
        projected generators gives, and its singular values decide the rank.
        """
        removed_set = set(removed)
        gens = [u for u in ambient if u not in removed_set]
        order = list(removed) + gens
        g = len(gens)
        try:
            # the form is <x, y> = y^H conj(G) x, G the monomials' Gram
            L = np.linalg.cholesky(np.conj(gram(self.table, order, order)))
        except np.linalg.LinAlgError as exc:
            raise DegenerateForm("moment Gram matrix is not positive definite") from exc
        u, s, _ = np.linalg.svd(L[-g:, -g:].conj().T)
        rank = int(np.sum(s > RANK_TOL * s[0]))
        if rank != g:
            raise DegenerateForm(
                f"subspace rank {rank} differs from expected {g}")
        rhs = np.vstack([np.zeros((len(order) - g, g)), u])
        # L^H is upper triangular; reversing both axes makes it lower
        X = _solve_lower(L.conj().T[::-1, ::-1], rhs[::-1])[::-1]
        row = {v: i for i, v in enumerate(order)}
        vectors = X[[row[v] for v in ambient]]
        return SubspaceBasis(tuple(ambient), self._phase_normalize(vectors))

    def basis(self, kind, k, l) -> SubspaceBasis:
        """Orthonormal basis of a structural subspace, memoised per space.

        Every kind is built by the same Cholesky Gram-Schmidt
        (``_complement``), which raises DegenerateForm on a rank drop.

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
            ambient = _rect(0, 2 * k, 0, l)
            removed = [u for u in ambient if u != (k, 0)]
        elif kind in ("E1", "F1", "E2", "F2"):
            if k < 0 or l < 0:
                return empty_basis()
            if k > self.nmax or l > self.mmax:
                raise InsufficientMoments(
                    f"{kind}({k},{l}) exceeds caps ({self.nmax}, {self.mmax})")
            ambient = _rect(0, k, 0, l)
            removed = {
                "E1": _rect(0, k, 1, l),
                "F1": _rect(0, k, 0, l - 1),
                "E2": _rect(1, k, 0, l),
                "F2": _rect(0, k - 1, 0, l),
            }[kind]
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        self._bases[key] = self._complement(ambient, removed)
        return self._bases[key]

    def projected_span(self, generators, target: SubspaceBasis,
                       expect=None) -> SubspaceBasis:
        """Orthonormal basis of P_target(span of generator polynomials)."""
        if target.dim == 0 or not generators:
            return empty_basis()
        emb_t = self.embed_basis(target)
        emb_g = np.column_stack([self.embed(g) for g in generators])
        coords = emb_t.conj().T @ emb_g       # coords[t, i] = <g_i, b_t>
        gen_scale = float(np.max(np.linalg.norm(emb_g, axis=0)))
        u, s, _ = np.linalg.svd(coords, full_matrices=False)
        if s.size == 0 or s[0] <= 1e-12 * gen_scale:
            return empty_basis()
        rank = int(np.sum(s > RANK_TOL * s[0]))
        if expect is not None and rank != expect:
            raise DegenerateForm(
                f"projected span rank {rank}, expected {expect}")
        vectors = self._phase_normalize(target.vectors @ u[:, :rank])
        return SubspaceBasis(target.support, vectors)

    # -- named spaces --------------------------------------------------------

    def e1_basis(self, k, l):
        return self.basis("E1", k, l)

    def f1_basis(self, k, l):
        return self.basis("F1", k, l)

    def e2_basis(self, k, l):
        return self.basis("E2", k, l)

    def f2_basis(self, k, l):
        return self.basis("F2", k, l)

    def h_basis(self, n, M):
        return self.basis("H", n, M)

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
        if n > self.table.jmax or m > self.table.kmax:
            raise InsufficientMoments("phi sequence exceeds the table window")
        order = _rect(0, n, 0, m)
        rows = _inverse_rows(gram(self.table, order, order), m + 1,
                             f"the phi sequence ({n}, {m})")
        return [BiPoly(row.reshape(n + 1, m + 1)) for row in rows]

    def project(self, f: BiPoly, onto: SubspaceBasis):
        """Coefficients of f along the basis, plus the residual polynomial."""
        coeffs = np.array([self.inner(f, b) for b in onto.polys()])
        residual = f
        for ci, b in zip(coeffs, onto.polys()):
            residual = residual - ci * b
        return coeffs, residual.trimmed()


def _solve_lower(L, B):
    """X with L X = B for lower-triangular L, by blocked substitution.

    Each block of TRI_BLOCK rows costs one dense solve on its diagonal
    block and one product with the rows already solved, so no dense
    solve is larger than TRI_BLOCK.
    """
    X = np.array(B, dtype=complex)
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


def subspace_angle(space: MomentSpace, a: SubspaceBasis, b: SubspaceBasis):
    """Largest principal-angle sine between two subspaces (0 = equal span).

    Computed as the spectral distance of the orthogonal projections,
    which resolves tiny angles down to machine precision.
    """
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    qa = np.linalg.qr(space.embed_basis(a))[0]
    qb = np.linalg.qr(space.embed_basis(b))[0]
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb, 2))


def containment_defect(space: MomentSpace, inner_b: SubspaceBasis,
                       outer_b: SubspaceBasis):
    """max over basis vectors v of ||v - P_outer v|| (0 = contained)."""
    if inner_b.dim == 0:
        return 0.0
    qi = space.embed_basis(inner_b)
    qo = space.embed_basis(outer_b)
    resid = qi - qo @ (qo.conj().T @ qi)
    return float(np.max(np.linalg.norm(resid, axis=0)))
