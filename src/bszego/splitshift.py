"""Truncated shift operators, the matrix condition, and shift-splits.

Everything here lives over a MomentSpace with caps (n, m), which the
operators and each shift-split carry.  The three operators act between
the structural subspaces

    A : E1(n-1, m) -> w E2(n, m-1)   compress multiplication by z
    B : w F2(n, m-1) -> E1(n-1, m)   compress the identity
    T : E1(n-1, m) -> E1(n-1, m)     compress multiplication by z

expressed as matrices in the canonical orthonormal bases.  The matrix
condition A T^j B = 0 (j < n) holds exactly when the form is a
Bernstein-Szego moment form for some p with no zeros on the closed face
|z| = 1, |w| <= 1, and the admissible stratification parameter d (the
number of zeros of p(z, 0) inside the disk) fills the interval
[dim A-space, n - dim B-space].

Each admissible d has a shift-split (K1, K2), dim K1 = d: K1 is the
A-space plus a T*-invariant part of the middle space E1(n-1, m) minus
(A-space + B-space), and K2 its complement.  T* compressed to the middle
space has eigenvalue 1/r for each root r of the z-content of p and 0 for
each formal slot at infinity (cap n above deg p), one Jordan block per
distinct value; the kernel of prod (T* - 1/r)^k, k up to the
multiplicity, gives the split-poly with k copies of each root flipped.
A split builds its split-poly, the generator of E1(n, m) minus
(K1 + z K2), on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (DegenerateForm, DNotAdmissible, InvalidDegree,
                     MatrixConditionFails, NotPositive)
from .moments import MomentTable, _positive, _real_form, gram
from .poly import (BiPoly, _assert_no_face_zeros, _canonical_phase, _split_at_w0,
                   split_stable)
from .space import MomentSpace, SubspaceBasis

# Both are one absolute round-off floor on contractions, hence no caller
# knob: moving one alone makes check_matrix_condition raise DegenerateForm.
MC_TOL = 1e-8           # cut of the violation max ||A T^j B||
KRYLOV_RANK_TOL = 1e-8  # absolute singular-value cut of the Krylov spans


@dataclass(frozen=True, eq=False)
class ShiftOperators:
    """Matrices of A, B, T in the stored orthonormal bases of ``space``."""

    space: MomentSpace
    a_mat: np.ndarray       # (m, n)
    b_mat: np.ndarray       # (n, m)
    t_mat: np.ndarray       # (n, n)
    e1: SubspaceBasis       # E1(n-1, m)

    @cached_property
    def invariant_spaces(self):
        """Coordinates (in the E1 basis) of the minimal K1 and minimal K2.

        The minimal K2 is the T-invariant span of the range of B, the
        minimal K1 the T*-invariant span of the range of A*; Cayley-Hamilton
        caps the powers at n-1.  Computed on first use and shared, read-only.
        """
        n = max(self.t_mat.shape[0], 1)
        b_space = _krylov_span(self.t_mat, self.b_mat, n)
        a_space = _krylov_span(self.t_mat.conj().T, self.a_mat.conj().T, n)
        a_space.setflags(write=False)
        b_space.setflags(write=False)
        return a_space, b_space


@dataclass(frozen=True, eq=False)
class ShiftSplit:
    """A shift-split (K1, K2) of E1(n-1, m) in ``space``."""

    space: MomentSpace
    k1: SubspaceBasis
    k2: SubspaceBasis

    @cached_property
    def split_poly(self) -> BiPoly:
        """Unit-norm generator of E1(n, m) minus (K1 + z K2), phase-canonical,
        built on first read; DegenerateForm unless it is unique up to scale."""
        space = self.space
        e1big = space.basis("E1", space.nmax, space.mmax)
        emb_big = space.embed_basis(e1big)
        coords = np.hstack([emb_big.conj().T @ space.embed_basis(b)
                            for b in (self.k1, self.k2.shifted(1, 0))])
        comp = _complement_in_coords(coords, e1big.dim)
        if comp.shape[1] != 1:
            raise DegenerateForm(
                f"split complement has dimension {comp.shape[1]}, expected 1")
        p = _coords_to_basis(e1big, comp).polys()[0]
        return _canonical_phase(p * (1.0 / space.norm(p)))


@dataclass(frozen=True)
class StratificationReport:
    holds: bool
    max_violation: float
    dim_a: int
    dim_b: int
    d_min: int
    d_max: int


def build_operators(space: MomentSpace) -> ShiftOperators:
    """The A, B, T matrices for the form at the space's caps (n, m)."""
    n, m = space.nmax, space.mmax
    e1 = space.basis("E1", n - 1, m)
    a_out = space.basis("E2", n, m - 1).shifted(0, 1)
    b_in = space.basis("F2", n, m - 1).shifted(0, 1)
    # entry (i, j) of each operator is <op(basis_j), out_basis_i>: the
    # products of space.cross, with each of the four bases embedded once
    emb_ze1, emb_b = (space.embed_basis(b).T for b in (e1.shifted(1, 0), b_in))
    conj_e1, conj_a = (np.conj(space.embed_basis(b)) for b in (e1, a_out))
    return ShiftOperators(space=space, a_mat=(emb_ze1 @ conj_a).T,
                          b_mat=(emb_b @ conj_e1).T,
                          t_mat=(emb_ze1 @ conj_e1).T, e1=e1)


def _krylov_span(step, seed, n):
    """Orthonormal columns spanning sum_j step^j seed, j < n."""
    blocks = [seed]
    cur = seed
    for _ in range(1, n):
        cur = step @ cur
        blocks.append(cur)
    K = np.hstack(blocks)
    u, s, _ = np.linalg.svd(K, full_matrices=False)
    # operators are contractions in orthonormal coordinates, so rank is
    # judged on the absolute scale 1 (an all-noise Krylov block is empty)
    rank = int(np.sum(s > KRYLOV_RANK_TOL))
    return u[:, :rank]


def check_matrix_condition(ops: ShiftOperators) -> StratificationReport:
    """Evaluate max_j ||A T^j B||, its raw spectral norms cut at MC_TOL,
    and the admissible d interval."""
    n = ops.t_mat.shape[0]
    viol = 0.0
    if min(ops.a_mat.shape) and min(ops.b_mat.shape):
        prods, cur = [], ops.b_mat
        for _ in range(max(n, 1)):
            prods.append(ops.a_mat @ cur)
            cur = ops.t_mat @ cur
        viol = float(np.linalg.norm(np.stack(prods), 2, axis=(1, 2)).max())
    holds = viol < MC_TOL
    a_space, b_space = ops.invariant_spaces
    dim_a, dim_b = a_space.shape[1], b_space.shape[1]
    if holds and dim_a + dim_b > n:
        # under the condition the two spaces are orthogonal in the
        # n-dimensional E1(n-1, m): the Krylov rank cut has overcounted
        raise DegenerateForm(
            f"dim A-space {dim_a} + dim B-space {dim_b} exceeds n = {n}")
    return StratificationReport(holds=holds, max_violation=viol,
                                dim_a=dim_a, dim_b=dim_b,
                                d_min=dim_a, d_max=n - dim_b)


def _positive_form(table: MomentTable, n, m, eigenvalue=False):
    """(operators, report, lam) of the form at caps (n, m).

    The one positivity gate of check, reconstruct, ar and factor:
    NotPositive unless ``moments._positive`` finds the form positive on
    [0,n] x [0,m], lam being its smallest eigenvalue if ``eigenvalue`` (ar
    prints it), else None.  Then, on the same Gram, the operators and report.
    """
    G = gram(table, n, m)
    R = _real_form(G)
    ok, lam = _positive(R, eigenvalue)
    if not ok:
        raise NotPositive(f"moment form not positive (eigenvalue {lam:.3e})")
    ops = build_operators(MomentSpace(table, n, m, (G, R)))
    return ops, check_matrix_condition(ops), lam


def _require_condition(report: StratificationReport):
    """MatrixConditionFails unless the report's matrix condition holds."""
    if not report.holds:
        raise MatrixConditionFails(
            f"max ||A T^j B|| = {report.max_violation:.3e}; "
            "no closed-face Bernstein-Szego representation exists")


def _coords_to_basis(e1: SubspaceBasis, coords) -> SubspaceBasis:
    rows, cols, _ = e1.coeffs.shape
    return SubspaceBasis((e1.vectors @ coords).reshape(rows, cols, coords.shape[1]))


def _complement_in_coords(coords, dim):
    """Orthonormal complement of the column span inside C^dim."""
    if coords.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    # the columns of a direct split are orthonormal: a singular value
    # below 0.5 is a rank drop, and the complement grows by one
    u, s, _ = np.linalg.svd(coords)
    rank = int(np.sum(s > 0.5))
    return u[:, rank:]


def shift_split_from_p(space: MomentSpace, p: BiPoly) -> ShiftSplit:
    """The shift-split canonically attached to p via its z-axis slice.

    p(z, 0) is split into a stable factor a and monic unstable factor b;
    K1 is the projection of span{z^j a : j < deg b} onto E1(n-1, m) and
    K2 that of span{z^j b : j < n - deg b}.
    """
    n, m = space.nmax, space.mmax
    pt = p.trimmed()
    if pt.deg[0] > n or pt.deg[1] > m:
        raise InvalidDegree("polynomial degree exceeds the space caps")
    rs = _split_at_w0(pt)
    beta = rs.beta
    e1 = space.basis("E1", n - 1, m)
    gens_k1 = [rs.stable.shifted(j, 0) for j in range(beta)]
    gens_k2 = [rs.unstable.shifted(j, 0) for j in range(n - beta)]
    k1 = space.projected_span(gens_k1, e1, beta)
    k2 = space.projected_span(gens_k2, e1, n - beta)
    return ShiftSplit(space, k1, k2)


def _split_from_k1(ops: ShiftOperators, k1_coords) -> ShiftSplit:
    """K1 spanned by ``k1_coords`` (E1 coordinates), K2 its complement."""
    k1 = _coords_to_basis(ops.e1, k1_coords)
    k2 = _coords_to_basis(ops.e1, _complement_in_coords(k1_coords, ops.e1.dim))
    return ShiftSplit(ops.space, k1, k2)


def _middle_spectrum(ops: ShiftOperators):
    """(a, mid, t_mid, clusters): E1 coordinates of the A-space and the
    middle space, T* compressed to the latter, and its eigenvalue clusters
    as (mean, multiplicity), largest |mean| first.

    A k-fold eigenvalue computes as a ring of radius about eps^(1/k).  The
    k eigenvalues nearest a seed, none in an earlier cluster, with mean
    lam, are one k-fold eigenvalue when (t_mid - lam)^k has k singular
    values at most MC_TOL: the largest such k, then the smallest value.
    """
    a, b = ops.invariant_spaces
    mid = _complement_in_coords(np.hstack([a, b]), ops.e1.dim)
    t_mid = mid.conj().T @ ops.t_mat.conj().T @ mid
    r, ev = t_mid.shape[0], np.linalg.eigvals(t_mid)
    free, clusters = np.ones(r, dtype=bool), []
    while free.any():
        for k in range(int(free.sum()), 0, -1):
            groups = [np.argsort(np.abs(ev - ev[i]) - (np.arange(r) == i))[:k]
                      for i in np.flatnonzero(free)]
            groups = [g for g in groups if free[g].all()]
            tests = [np.linalg.svd(np.linalg.matrix_power(
                t_mid - np.mean(ev[g]) * np.eye(r), k), compute_uv=False)[r - k]
                for g in groups]
            if k == 1 or (tests and min(tests) <= MC_TOL):
                break
        group = groups[int(np.argmin(tests))]
        clusters.append((complex(np.mean(ev[group])), k))
        free[group] = False
    clusters.sort(key=lambda c: -abs(c[0]))
    return a, mid, t_mid, clusters


def _k1_coords(a, mid, t_mid, clusters, counts):
    """A-space plus the kernel of prod (t_mid - lam_c)^(k_c), in E1 coordinates."""
    r, extra = t_mid.shape[0], sum(counts)
    prod = np.eye(r, dtype=complex)
    for (lam, _), k in zip(clusters, counts):
        prod = prod @ np.linalg.matrix_power(t_mid - lam * np.eye(r), k)
    kernel = np.linalg.svd(prod)[2][r - extra:].conj().T
    return np.hstack([a, mid @ kernel])


def _checked_split(ops, k1_coords) -> ShiftSplit:
    """_split_from_k1 checked: K1 orthogonal to z K2, no face zeros, d disk roots."""
    split = _split_from_k1(ops, k1_coords)
    cross = ops.space.cross(split.k1, split.k2.shifted(1, 0))
    if not np.abs(cross).max(initial=0.0) <= MC_TOL:
        raise DegenerateForm("K1 is not orthogonal to z K2")
    _assert_no_face_zeros(split.split_poly)
    beta, d = split_stable(split.split_poly.z_slice()).beta, split.k1.dim
    if beta != d:
        raise DegenerateForm(f"constructed split-poly has {beta} disk roots, wanted {d}")
    return split


def split_poly_from_condition(space: MomentSpace, d) -> ShiftSplit:
    """Construct a shift-split with dim K1 = d from the operators alone.

    K1 is T*-invariant and contains the A-space; K2 is its complement.
    The minimal K1 (the A-space) gives the stable-content representative.
    The other d - dim A dimensions are taken from the generalized
    eigenspaces of T* compressed to the middle space, whole clusters in
    order of decreasing |eigenvalue| (see the module docstring): the
    smallest-modulus content roots are flipped into the disk first and
    the slots at infinity last.
    """
    ops = build_operators(space)
    report = check_matrix_condition(ops)
    _require_condition(report)
    if not (report.d_min <= d <= report.d_max):
        raise DNotAdmissible(
            f"d = {d} outside admissible [{report.d_min}, {report.d_max}]")
    a, mid, t_mid, clusters = _middle_spectrum(ops)
    # whole clusters in order, the last one in part
    filled = np.cumsum([0] + [k for _, k in clusters])
    counts = np.diff(np.minimum(filled, d - report.d_min))
    return _checked_split(ops, _k1_coords(a, mid, t_mid, clusters, counts))


def enumerate_split_polys(space: MomentSpace):
    """All split-polys of the form, as (polynomial, d) pairs sorted by d.

    One per T*-invariant K1 between the A-space and the orthogonal
    complement of the B-space: a choice of k_c <= multiplicity for each
    eigenvalue cluster of T* compressed to the middle space, with
    d = dim A + sum k_c.  All share |p|^2 on the torus.  Raises
    MatrixConditionFails when the form is not Bernstein-Szego.
    """
    ops = build_operators(space)
    _require_condition(check_matrix_condition(ops))
    a, mid, t_mid, clusters = _middle_spectrum(ops)
    out = []
    for counts in product(*(range(mult + 1) for _, mult in clusters)):
        split = _checked_split(ops, _k1_coords(a, mid, t_mid, clusters, counts))
        out.append((split.split_poly, split.k1.dim))
    out.sort(key=lambda pair: pair[1])
    return out


def gw_check(space: MomentSpace):
    """Stable-on-the-closed-bidisk test: F1(n-1, m) perpendicular to F2(n, m-1)."""
    n, m = space.nmax, space.mmax
    f1 = space.basis("F1", n - 1, m)
    f2 = space.basis("F2", n, m - 1)
    if f1.dim == 0 or f2.dim == 0:
        return True
    return float(np.linalg.norm(space.cross(f1, f2), 2)) < MC_TOL
