"""Truncated shift operators, the matrix condition, and shift-splits.

Everything here lives over a MomentSpace with caps (n, m).  The three
operators act between the structural subspaces

    A : E1(n-1, m) -> w E2(n, m-1)   compress multiplication by z
    B : w F2(n, m-1) -> E1(n-1, m)   compress the identity
    T : E1(n-1, m) -> E1(n-1, m)     compress multiplication by z

expressed as matrices in the canonical orthonormal bases.  The matrix
condition A T^j B = 0 (j < n) holds exactly when the form is a
Bernstein-Szego moment form for some p with no zeros on the closed face
|z| = 1, |w| <= 1, and the admissible stratification parameter d (the
number of zeros of p(z, 0) inside the disk) fills the interval
[dim A-space, n - dim B-space].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (DegenerateForm, DNotAdmissible, InvalidDegree,
                     MatrixConditionFails, RootNearTorus)
from .poly import (CLUSTER_TOL, BiPoly, UniPoly, _cluster, canonical_phase,
                   flip_root, roots, split_stable, w_roots, z_content)
from .space import MomentSpace, SubspaceBasis, empty_basis

MC_TOL = 1e-8
KRYLOV_RANK_TOL = 1e-8  # absolute singular-value cut of the Krylov spans
FACE_SAMPLES = 64       # z points on the circle in assert_no_face_zeros
FACE_MARGIN = 1e-7      # w-roots this close to the closed disk are face zeros
DEDUPE_TOL = 1e-8       # relative coefficient distance of duplicate split-polys


@dataclass(frozen=True, eq=False)
class ShiftOperators:
    """Matrices of A, B, T in the stored orthonormal bases."""

    a_mat: np.ndarray       # (m, n)
    b_mat: np.ndarray       # (n, m)
    t_mat: np.ndarray       # (n, n)
    e1: SubspaceBasis       # E1(n-1, m)
    we2: SubspaceBasis      # w E2(n, m-1)
    wf2: SubspaceBasis      # w F2(n, m-1)
    n: int
    m: int


@dataclass(frozen=True, eq=False)
class ShiftSplit:
    """A shift-split (K1, K2) of E1(n-1, m) together with its split-poly."""

    k1: SubspaceBasis
    k2: SubspaceBasis
    split_poly: BiPoly


@dataclass(frozen=True)
class StratificationReport:
    holds: bool
    max_violation: float
    dim_a: int
    dim_b: int
    d_min: int
    d_max: int

    @property
    def admissible(self):
        return range(self.d_min, self.d_max + 1) if self.holds else range(0)

    def to_json(self):
        return {"holds": self.holds, "max_violation": self.max_violation,
                "dimA": self.dim_a, "dimB": self.dim_b,
                "d_min": self.d_min, "d_max": self.d_max}


def build_operators(space: MomentSpace) -> ShiftOperators:
    """The A, B, T matrices for the form at the space's caps (n, m)."""
    n, m = space.nmax, space.mmax
    e1 = space.e1_basis(n - 1, m)
    we2 = space.e2_basis(n, m - 1).shifted(0, 1) if m >= 1 else empty_basis()
    wf2 = space.f2_basis(n, m - 1).shifted(0, 1) if m >= 1 else empty_basis()
    ze1 = e1.shifted(1, 0)
    # entry (i, j) of each operator is <op(basis_j), out_basis_i>
    a_mat = space.cross(ze1, we2).T if min(e1.dim, we2.dim) else \
        np.zeros((we2.dim, e1.dim), dtype=complex)
    t_mat = space.cross(ze1, e1).T if e1.dim else np.zeros((0, 0), dtype=complex)
    b_mat = space.cross(wf2, e1).T if min(e1.dim, wf2.dim) else \
        np.zeros((e1.dim, wf2.dim), dtype=complex)
    return ShiftOperators(a_mat=a_mat, b_mat=b_mat, t_mat=t_mat,
                          e1=e1, we2=we2, wf2=wf2, n=n, m=m)


def _krylov_span(step, seed, n):
    """Orthonormal columns spanning sum_j step^j seed, j < n."""
    if seed.size == 0:
        return seed.reshape(seed.shape[0], 0)
    blocks = [seed]
    cur = seed
    for _ in range(1, n):
        cur = step @ cur
        blocks.append(cur)
    K = np.hstack(blocks)
    u, s, _ = np.linalg.svd(K, full_matrices=False)
    # operators are contractions in orthonormal coordinates, so rank is
    # judged on the absolute scale 1 (an all-noise Krylov block is empty)
    rank = int(np.sum(s > KRYLOV_RANK_TOL)) if s.size else 0
    return u[:, :rank]


def canonical_invariant_spaces(ops: ShiftOperators):
    """Coordinates (in the E1 basis) of the minimal K1 and minimal K2.

    The minimal K2 is the T-invariant span of the range of B, the
    minimal K1 the T*-invariant span of the range of A*; Cayley-Hamilton
    caps the powers at n-1.
    """
    n = ops.t_mat.shape[0]
    b_space = _krylov_span(ops.t_mat, ops.b_mat, max(n, 1))
    a_space = _krylov_span(ops.t_mat.conj().T, ops.a_mat.conj().T, max(n, 1))
    return a_space, b_space


def check_matrix_condition(ops: ShiftOperators, tol=MC_TOL) -> StratificationReport:
    """Evaluate max_j ||A T^j B|| and the admissible d interval.

    The operators are contractions in orthonormal coordinates, so the
    tolerance is applied to the raw spectral norms.
    """
    n = ops.t_mat.shape[0]
    viol = 0.0
    if min(ops.a_mat.shape) and min(ops.b_mat.shape):
        cur = ops.b_mat
        for _ in range(max(n, 1)):
            prod = ops.a_mat @ cur
            viol = max(viol, float(np.linalg.norm(prod, 2)))
            cur = ops.t_mat @ cur
    holds = viol < tol
    a_space, b_space = canonical_invariant_spaces(ops)
    dim_a, dim_b = a_space.shape[1], b_space.shape[1]
    return StratificationReport(holds=holds, max_violation=viol,
                                dim_a=dim_a, dim_b=dim_b,
                                d_min=dim_a, d_max=n - dim_b)


def a_operator_norm(ops: ShiftOperators):
    if ops.a_mat.size == 0:
        return 0.0
    return float(np.linalg.norm(ops.a_mat, 2))


def _coords_to_basis(e1: SubspaceBasis, coords) -> SubspaceBasis:
    if coords.shape[1] == 0 or e1.dim == 0:
        return empty_basis()
    return SubspaceBasis(e1.support, e1.vectors @ coords)


def _complement_in_coords(coords, dim):
    """Orthonormal complement of the column span inside C^dim."""
    if coords.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    q = np.linalg.qr(coords)[0]
    proj = np.eye(dim, dtype=complex) - q @ q.conj().T
    u, s, _ = np.linalg.svd(proj)
    rank = int(np.sum(s > 0.5))
    return u[:, :rank]


def split_poly_of(space: MomentSpace, k1: SubspaceBasis,
                  k2: SubspaceBasis) -> BiPoly:
    """Unit-norm generator of E1(n, m) minus (K1 + z K2), phase-canonical."""
    e1big = space.e1_basis(space.nmax, space.mmax)
    cols = []
    emb_big = space.embed_basis(e1big)
    for b in (k1, k2.shifted(1, 0)):
        if b.dim:
            cols.append(emb_big.conj().T @ space.embed_basis(b))
    coords = np.hstack(cols) if cols else np.zeros((e1big.dim, 0), dtype=complex)
    comp = _complement_in_coords(coords, e1big.dim)
    if comp.shape[1] != 1:
        raise DegenerateForm(
            f"split complement has dimension {comp.shape[1]}, expected 1")
    vec = e1big.vectors @ comp[:, 0]
    return canonical_phase(SubspaceBasis(e1big.support, vec[:, None]).poly(0))


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
    p0 = pt.z_slice()
    if p0.is_zero():
        raise RootNearTorus("p(z, 0) vanishes identically (zero at w = 0)")
    rs = split_stable(p0)
    beta = rs.beta
    e1 = space.e1_basis(n - 1, m)
    a_pol = rs.stable.to_bipoly()
    b_pol = rs.unstable.to_bipoly()
    gens_k1 = [a_pol.shifted(j, 0) for j in range(beta)]
    gens_k2 = [b_pol.shifted(j, 0) for j in range(n - beta)]
    k1 = space.projected_span(gens_k1, e1, expect=beta) if gens_k1 else empty_basis()
    k2 = space.projected_span(gens_k2, e1, expect=n - beta) if gens_k2 else empty_basis()
    return ShiftSplit(k1=k1, k2=k2, split_poly=split_poly_of(space, k1, k2))


def _formal_flips(p: BiPoly, n):
    """Stable z-content factorization with the available root flips.

    Returns (q, g, flips) where p = q(z) g(z, w) up to normalization,
    q is stable, and flips lists the flippable items: finite stable
    roots sorted by modulus, then one None per missing formal degree
    (a flip at infinity, i.e. multiplication by z).
    """
    h, g, res = z_content(p)
    if res > 1e-6:
        raise DegenerateForm(f"z-content division residual {res:.3e}")
    q = h
    if q.degree > 0:
        # flip any unstable content roots out of the disk first
        rs = split_stable(q)
        q = rs.stable
        if rs.beta:
            for rho in roots(rs.unstable):
                q = q * UniPoly([1.0, -np.conj(rho)])
    n1 = g.trimmed().deg[0]
    n0 = n - n1
    if q.degree > n0:
        raise InvalidDegree("content degree exceeds the formal bound")
    finite = []
    if q.degree > 0:
        # cluster so that a repeated root yields identical flip values
        # (double roots come out of the eigensolver ~sqrt(eps) apart)
        centers, counts = _cluster(list(roots(q)), CLUSTER_TOL)
        for center, count in zip(centers, counts):
            finite.extend([complex(center)] * count)
        finite.sort(key=lambda r: (abs(r), r.real, r.imag))
    flips = finite + [None] * (n0 - q.degree)
    return q, g, flips


def _apply_flips(q: UniPoly, g: BiPoly, flips_chosen):
    h = q
    for item in flips_chosen:
        if item is None:
            h = UniPoly(np.concatenate([[0.0], h.coeffs]))  # multiply by z
        else:
            h = flip_root(h, item)
    return h.to_bipoly() * g


def _unit_normalized(space: MomentSpace, p: BiPoly) -> BiPoly:
    nrm = space.norm(p)
    if nrm == 0.0:
        raise DegenerateForm("zero polynomial cannot be normalized")
    return canonical_phase(p * (1.0 / nrm))


def assert_no_face_zeros(p: BiPoly):
    """Sampled check that p has no zeros on |z| = 1, |w| <= 1."""
    pt = p.trimmed()
    n, m = pt.deg
    zs = np.exp(2j * np.pi * (np.arange(FACE_SAMPLES) + 0.31) / FACE_SAMPLES)
    wcoef, rts = w_roots(pt, zs)
    size = np.abs(wcoef)
    # a flat slice is constant in w: only its constant term can vanish
    top = size[1:].max(axis=0, initial=0.0)
    flat = (m == 0) | (top < 1e-13 * size.max(axis=0))
    low = np.abs(rts).min(axis=1, initial=np.inf)
    vanishes = flat & (size[0] < 1e-10)
    bad = vanishes | (~flat & (low <= 1.0 + FACE_MARGIN))
    if bad.any():
        i = int(np.argmax(bad))           # the first failing z in grid order
        if vanishes[i]:
            raise RootNearTorus(f"p({zs[i]}, w) vanishes identically in w")
        raise RootNearTorus(f"w-root of modulus {low[i]:.6f} at z = {zs[i]}")


def split_poly_from_condition(space: MomentSpace, d=0) -> ShiftSplit:
    """Construct a shift-split with dim K1 = d from the operators alone.

    The minimal-K1 split (K1 = A-space) gives the stable-content
    representative; requesting a larger admissible d flips the
    smallest-modulus stable roots of the z-content into the disk.
    """
    ops = build_operators(space)
    report = check_matrix_condition(ops)
    if not report.holds:
        raise MatrixConditionFails(
            f"max ||A T^j B|| = {report.max_violation:.3e} >= {MC_TOL}")
    if not (report.d_min <= d <= report.d_max):
        raise DNotAdmissible(
            f"d = {d} outside admissible [{report.d_min}, {report.d_max}]")
    a_coords, _ = canonical_invariant_spaces(ops)
    k1_min = _coords_to_basis(ops.e1, a_coords)
    k2_max = _coords_to_basis(ops.e1,
                              _complement_in_coords(a_coords, ops.e1.dim))
    p_min = _unit_normalized(space, split_poly_of(space, k1_min, k2_max))
    q, g, flips = _formal_flips(p_min, space.nmax)
    extra = d - report.d_min
    if extra > len(flips):
        raise DNotAdmissible(
            f"only {len(flips)} flips available for d = {d}")
    p_d = _unit_normalized(space, _apply_flips(q, g, flips[:extra]))
    assert_no_face_zeros(p_d)
    rs = split_stable(p_d.z_slice())
    if rs.beta != d:
        raise DegenerateForm(
            f"constructed split-poly has {rs.beta} disk roots, wanted {d}")
    split = shift_split_from_p(space, p_d)
    return ShiftSplit(k1=split.k1, k2=split.k2, split_poly=p_d)


def enumerate_split_polys(space: MomentSpace, p: BiPoly):
    """All split-polys sharing |p|^2, as (polynomial, d) pairs.

    One representative per subset of the formal z-content roots (finite
    stable roots and slots at infinity); duplicates arising from
    repeated roots are removed by coefficient distance (DEDUPE_TOL).
    """
    p_unit = _unit_normalized(space, p.trimmed())
    q, g, flips = _formal_flips(p_unit, space.nmax)
    d_g = split_stable(g.z_slice()).beta
    out = []
    for size in range(len(flips) + 1):
        for subset in combinations(range(len(flips)), size):
            cand = _unit_normalized(
                space, _apply_flips(q, g, [flips[i] for i in subset]))
            dup = False
            for seen, _ in out:
                if seen.coeffs.shape == cand.coeffs.shape and \
                        np.max(np.abs(seen.coeffs - cand.coeffs)) <= \
                        DEDUPE_TOL * max(1.0, np.max(np.abs(seen.coeffs))):
                    dup = True
                    break
            if not dup:
                out.append((cand, size + d_g))
    out.sort(key=lambda pair: pair[1])
    return out


def gw_check(space: MomentSpace):
    """Stable-on-the-closed-bidisk test: F1(n-1, m) perpendicular to F2(n, m-1)."""
    n, m = space.nmax, space.mmax
    f1 = space.f1_basis(n - 1, m)
    f2 = space.f2_basis(n, m - 1)
    if f1.dim == 0 or f2.dim == 0:
        return True
    return float(np.linalg.norm(space.cross(f1, f2), 2)) < MC_TOL
