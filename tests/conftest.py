import contextlib
import io
import json

import numpy as np
import pytest

from bszego import (BiPoly, MomentSpace, MomentTable, SubspaceBasis, TrigPoly,
                    moments, moments_from_density, reflect, sos)
from bszego.cli import main as cli_main
from bszego.jsonio import dumps
from bszego.moments import _grid_rows


# ---------------------------------------------------------------------------
# independent oracles (no library moment/space code)
# ---------------------------------------------------------------------------

def geometric_diag_moment(j, a):
    """c_{j,j} of 1/|a - zw|^2 by the geometric series expansion, a > 1."""
    return a ** (-abs(j)) / (a * a - 1.0)


def riemann_moment(density_fn, j, k, N=1024):
    """Plain Riemann-sum moment of a density sampled on an N x N torus grid."""
    th = 2.0 * np.pi * np.arange(N) / N
    z = np.exp(1j * th)
    zz, ww = np.meshgrid(z, z, indexing="ij")
    vals = density_fn(zz, ww)
    return np.mean(zz ** (-j) * ww ** (-k) * vals)


def brute_inner(p: BiPoly, f: BiPoly, g: BiPoly, N=512):
    """<f, g> in L2 of 1/|p|^2 by quadrature, independent of MomentSpace."""
    th = 2.0 * np.pi * np.arange(N) / N
    z = np.exp(1j * th)
    zz, ww = np.meshgrid(z, z, indexing="ij")
    dens = 1.0 / np.abs(p(zz, ww)) ** 2
    return complex(np.mean(f(zz, ww) * np.conj(g(zz, ww)) * dens))


def gram_from_table(table: MomentTable, exps):
    """Dense Gram built entry by entry straight off the table."""
    n = len(exps)
    out = np.zeros((n, n), dtype=complex)
    for i, (a, b) in enumerate(exps):
        for j, (u, v) in enumerate(exps):
            out[i, j] = table.at(u - a, v - b)
    return out


def gram_schmidt_coeffs(G, vectors):
    """Modified Gram-Schmidt of coefficient columns under Gram G.

    Inner product <x, y> = x^T G conj(y); returns orthonormal columns.
    """
    out = []
    for v in vectors:
        v = np.array(v, dtype=complex)
        for q in out:
            v = v - (v @ G @ np.conj(q)) * q
        nrm = np.sqrt((v @ G @ np.conj(v)).real)
        if nrm > 1e-12:
            out.append(v / nrm)
    return np.column_stack(out) if out else np.zeros((len(vectors[0]), 0))


def rect(j0, j1, k0, k1):
    """Monomial exponents [j0, j1] x [k0, k1], z-major."""
    return [(j, k) for j in range(j0, j1 + 1) for k in range(k0, k1 + 1)]


def structural(kind, k, l):
    """(ambient, removed) monomials of MomentSpace.basis(kind, k, l)."""
    removed = {"E1": rect(0, k, 1, l), "F1": rect(0, k, 0, l - 1),
               "E2": rect(1, k, 0, l), "F2": rect(0, k - 1, 0, l)}[kind]
    return rect(0, k, 0, l), removed


def torus_grid(N):
    th = 2.0 * np.pi * np.arange(N) / N
    z = np.exp(1j * th)
    return np.meshgrid(z, z, indexing="ij")


def poly_grid_values(p: BiPoly, N):
    """p on the N x N uniform torus grid, by the quadrature's row sampler.

    The sampler reuses one buffer, so each block is copied as it is drawn."""
    return np.concatenate([re + 1j * im for re, im in _grid_rows(p.coeffs, 0, 0, N)])


def sampled_grids(monkeypatch):
    """The grid sizes the quadrature reaches, in order, from here on."""
    grids = []
    levels = moments._level_sums

    def record(density_at, N, kmax):
        for level in levels(density_at, N, kmax):
            grids.append(level[0])
            yield level

    monkeypatch.setattr(moments, "_level_sums", record)
    return grids


def trig_values_on_grid(t: TrigPoly, N):
    """t on the N x N uniform torus grid (real), by the quadrature's sampler,
    each block copied as it is drawn."""
    return np.concatenate([re.copy() for (re,) in
                           _grid_rows(t.c, -t.jmax, -t.kmax, N, real=True)])


def max_modulus_gap(p, q, N=256):
    """max over the N x N torus grid of | |p|^2 - |q|^2 |, absolute."""
    zz, ww = torus_grid(N)
    return float(np.max(np.abs(np.abs(p(zz, ww)) ** 2 - np.abs(q(zz, ww)) ** 2)))


def torus_modulus_gap(doc, p, N=64):
    """max over the N x N torus grid of | |q|^2 - |p|^2 | relative to
    max |p|^2, q the polynomial of a JSON document.

    numpy only: the document's [re, im] pairs are read as an array, and
    both polynomials are evaluated at the N-th roots of unity by the
    inverse FFT of their zero-padded coefficient grids.
    """
    q2, p2 = (np.abs(N * N * np.fft.ifft2(c, s=(N, N))) ** 2
              for c in (complex_grid(doc["coeffs"]), p))
    return float(np.max(np.abs(q2 - p2)) / np.max(p2))


def complex_grid(pairs):
    """A JSON grid of [re, im] pairs as a complex array."""
    return np.asarray(pairs, dtype=float) @ [1, 1j]


def sos_identity_gap(doc, p, rng, count=64):
    """Largest gap of the L identity of an ``sos`` document,

        p pbar - prev prevbar = (1 - w etabar) sum A_j A_jbar
            + (1 - z zetabar) (sum B_j B_jbar - sum C_j C_jbar),

    at ``count`` diagonal points (zeta, eta) = (z, w) and as many point
    pairs drawn from ``rng`` in the square of half-width 1.5, relative to
    the largest term (at least 1).  numpy only: the reflection of p's
    grid at the document's ``deg`` is its conjugate flipped into the
    corner, and every polynomial is evaluated by ``polyval2d``.
    """
    a = np.asarray(p, dtype=complex)
    J, K = doc["deg"]
    refl = np.zeros((J + 1, K + 1), dtype=complex)
    refl[J + 1 - a.shape[0]:, K + 1 - a.shape[1]:] = np.conj(a[::-1, ::-1])
    blocks = [[complex_grid(q["coeffs"]) for q in doc[name]] for name in "ABC"]

    def draw():
        return rng.uniform(-1.5, 1.5, count) + 1j * rng.uniform(-1.5, 1.5, count)

    z, w = draw(), draw()
    worst = 0.0
    for zeta, eta in ((z, w), (draw(), draw())):
        def kern(c):
            return np.polynomial.polynomial.polyval2d(z, w, c) \
                * np.conj(np.polynomial.polynomial.polyval2d(zeta, eta, c))

        pp, rr = kern(a), kern(refl)
        terms = [[kern(c) for c in block] for block in blocks]
        sums = [np.sum(t, axis=0) if t else np.zeros(count) for t in terms]
        rhs = (1 - w * np.conj(eta)) * sums[0] \
            + (1 - z * np.conj(zeta)) * (sums[1] - sums[2])
        scale = max(np.max(np.abs(t)) for t in [1.0, pp, rr, *sum(terms, [])])
        worst = max(worst, float(np.max(np.abs(pp - rr - rhs)) / scale))
    return worst


def pencil_gap(doc, p, rng, count=64):
    """Largest |det(U Delta - Gamma) - scale p| of a ``gdv`` document at
    ``count`` points drawn from ``rng`` in the unit square, relative to
    the largest |scale p| there; Delta = diag(w I_m, z I_n1, I_n2) and
    Gamma = diag(I_m, I_n1, z I_n2).  numpy only: one batched ``det``."""
    rep = doc["detrep"]
    U = complex_grid(rep["U"])
    scale = complex(*rep["scale"])
    sizes = (len(U) - rep["n1"] - rep["n2"], rep["n1"], rep["n2"])
    z, w = rng.uniform(-1, 1, (2, count)) + 1j * rng.uniform(-1, 1, (2, count))
    one = np.ones(count)
    delta, gamma = (np.repeat(np.stack(d, axis=1), sizes, axis=1)
                    for d in ((w, z, one), (one, one, z)))
    det = np.linalg.det(U * delta[:, None, :] - np.eye(len(U)) * gamma[:, None, :])
    want = scale * np.polynomial.polynomial.polyval2d(z, w, np.asarray(p))
    return float(np.max(np.abs(det - want)) / np.max(np.abs(want)))


def lurking_isometry_gap(p: BiPoly, u, P: BiPoly, cert, count=16):
    """Largest |U [w A; z B; C] - [A; B; z C]| over |[A; B; z C]| at the
    points of the curve p = 0 over ``count`` z on the unit circle, A being
    the certificate's A block with the reflection of P at ``cert.deg``
    appended, the rows in ``build_detrep``'s order.  numpy only: the
    w-roots are ``np.roots`` of one slice at a time, and every block is
    evaluated by ``polyval2d``."""
    n, m = cert.deg
    pc = np.zeros((n + 1, m + 1), dtype=complex)
    pc[:P.coeffs.shape[0], :P.coeffs.shape[1]] = P.coeffs
    blocks = ([q.coeffs for q in cert.a_list] + [pc[::-1, ::-1].conj()],
              [q.coeffs for q in cert.b_list], [q.coeffs for q in cert.c_list])
    worst = 0.0
    for z in np.exp(2j * np.pi * (np.arange(count) + 0.37) / count):
        for w in np.roots(np.polynomial.polynomial.polyval(z, p.coeffs)[::-1]):
            a, b, c = (np.array([np.polynomial.polynomial.polyval2d(z, w, q)
                                 for q in qs], dtype=complex) for qs in blocks)
            y = np.concatenate([a, b, z * c])
            gap = u @ np.concatenate([w * a, z * b, c]) - y
            worst = max(worst, float(np.linalg.norm(gap) / np.linalg.norm(y)))
    return worst


def gram_eigenvalue_range(doc, J, K):
    """Smallest and largest eigenvalue of the Gram of the monomials
    [0, J] x [0, K] of a JSON moment table, entry (a, b), (u, v) being
    c_{u-a, v-b}; numpy only: one index gather and ``eigvalsh``."""
    c = complex_grid(doc["c"])
    j, k = np.divmod(np.arange((J + 1) * (K + 1)), K + 1)
    eigs = np.linalg.eigvalsh(c[j[None, :] - j[:, None] + doc["jmax"],
                                k[None, :] - k[:, None] + doc["kmax"]])
    return float(eigs[0]), float(eigs[-1])


def blaschke_gdv(zeros, m):
    """w^m prod (1 - conj(a) z) - prod (z - a): the sheets w^m = B(z)."""
    q = np.polynomial.polynomial.polyfromroots(zeros)
    a = np.zeros((len(q), m + 1), dtype=complex)
    a[:, m] = q[::-1].conj()
    a[:, 0] -= q
    return BiPoly(a)


def random_corpus_poly(rng, max_q_deg=2, max_factors=2, allow_unstable_q=False):
    """q(z) (stable unless flipped) times products of (alpha - z w)."""
    q = BiPoly([[1.0]])
    for _ in range(int(rng.integers(0, max_q_deg + 1))):
        rho = rng.uniform(1.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
        if allow_unstable_q and rng.uniform() < 0.5:
            rho = 1.0 / np.conj(rho)
        q = q * BiPoly([[-rho], [1.0]])
    g = BiPoly([[1.0]])
    for _ in range(int(rng.integers(1, max_factors + 1))):
        alpha = rng.uniform(1.5, 3.0) * np.exp(2j * np.pi * rng.uniform())
        g = g * BiPoly([[alpha, 0.0], [0.0, -1.0]])
    return (q * g).trimmed()


def perturb_poly(seed, n, m, size=0.5):
    """Seeded 1 + e(z, w) of degree (n, m) with sum |e_jk| = size, zero-free
    on the closed bidisk when size < 1."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    e[0, 0] = 0.0
    a = size * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return BiPoly(a)


def alpha_zw_poly(alphas):
    """prod (alpha - zw) over ``alphas``: stable, ill-conditioned forms."""
    p = BiPoly([[1.0]])
    for alpha in alphas:
        p = p * BiPoly([[alpha, 0.0], [0.0, -1.0]])
    return p


def shifted_c00(table: MomentTable, n, m, ratio):
    """``table`` with c_00 lowered so that the Gram of [0,n] x [0,m], whose
    diagonal is c_00, has smallest / largest eigenvalue ``ratio``."""
    eigs = np.linalg.eigvalsh(gram_from_table(table, rect(0, n, 0, m)))
    c = table.c.copy()
    c[table.jmax, table.kmax] -= (eigs[0] - ratio * eigs[-1]) / (1.0 - ratio)
    return MomentTable(table.jmax, table.kmax, c)


def trig_abs_squared(p: BiPoly) -> TrigPoly:
    """|p(z, w)|^2 on the torus as a trig polynomial.

    On the torus |p|^2 = z^-n w^-m p reflect(p), and the product's
    coefficient grid is already centred at (n, m).
    """
    t = p.trimmed()
    n, m = t.deg
    return TrigPoly(n, m, (t * reflect(t, (n, m))).coeffs)


# ---------------------------------------------------------------------------
# subspace oracles over a MomentSpace
# ---------------------------------------------------------------------------

def monomial_basis(exps):
    """The monomials z^j w^k, (j, k) in ``exps``, as a SubspaceBasis."""
    js, ks = np.array(exps, dtype=int).reshape(-1, 2).T
    c = np.zeros((js.max(initial=-1) + 1, ks.max(initial=-1) + 1, len(js)))
    c[js, ks, np.arange(len(js))] = 1.0
    return SubspaceBasis(c)


def basis_values(b: SubspaceBasis, z, w):
    """Values of all basis polynomials at (z, w); trailing axis = index."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    rows, cols, _ = b.coeffs.shape
    js, ks = np.divmod(np.arange(rows * cols), cols)   # z-major, as b.vectors
    return (z[..., None] ** js * w[..., None] ** ks) @ b.vectors


def basis_kernel(b: SubspaceBasis, zw, zeta_eta):
    """Reproducing kernel sum_i b_i(z, w) conj(b_i(zeta, eta))."""
    return np.sum(basis_values(b, *zw) * np.conj(basis_values(b, *zeta_eta)),
                  axis=-1)


def stacked_values(polys, z, w):
    """q(z[i], w[i]) in row i and one column per polynomial q: the
    coefficient grids, zero-padded to one stack, times the power table of
    z in one product and contracted with that of w in another."""
    K = max(q.coeffs.shape[0] for q in polys)
    P = max(q.coeffs.shape[1] for q in polys)
    # (z power, q, w power)
    stack = sos._columns(polys, K, P).reshape(K, P, -1).transpose(0, 2, 1)
    rows = (z[:, None] ** np.arange(K) @ stack.reshape(K, -1)).reshape(len(z), -1, P)
    return (rows @ (w[:, None] ** np.arange(P))[:, :, None])[:, :, 0]


def assert_stacked_values_match(polys, z, w):
    """The values of the stacked evaluation against q(z, w), one
    polynomial at a time, within 1e-13 of sum |c_jk| |z|^j |w|^k."""
    values = stacked_values(polys, z, w)
    assert values.shape == (len(z), len(polys))
    for q, got in zip(polys, values.T):
        size = BiPoly(np.abs(q.coeffs))(np.abs(z), np.abs(w))
        assert np.all(np.abs(got - q(z, w)) <= 1e-13 * size)


def project(space: MomentSpace, f: BiPoly, onto: SubspaceBasis):
    """Coefficients of f along the basis, plus the residual polynomial."""
    coeffs = np.array([space.inner(f, b) for b in onto.polys()])
    residual = f
    for ci, b in zip(coeffs, onto.polys()):
        residual = residual - ci * b
    return coeffs, residual.trimmed()


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
    return float(np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2))


def containment_defect(space: MomentSpace, inner_b: SubspaceBasis,
                       outer_b: SubspaceBasis):
    """max over basis vectors v of ||v - P_outer v|| (0 = contained)."""
    if inner_b.dim == 0:
        return 0.0
    qi = space.embed_basis(inner_b)
    qo = space.embed_basis(outer_b)
    resid = qi - qo @ (qo.conj().T @ qi)
    return float(np.max(np.linalg.norm(resid, axis=0)))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def p_2zw():
    return BiPoly([[2.0, 0.0], [0.0, -1.0]])        # 2 - z w


@pytest.fixture(scope="session")
def table_2zw(p_2zw):
    return moments_from_density(p_2zw, 3, 3)


@pytest.fixture(scope="session")
def lebesgue_table():
    c = np.zeros((7, 7), dtype=complex)
    c[3, 3] = 1.0
    return MomentTable(3, 3, c)


@pytest.fixture(scope="session")
def p_perturb_8_8():
    """1 + e(z, w) of degree (8, 8) with sum |e_jk| = 0.5, zero-free on the bidisk."""
    rng = np.random.default_rng(88)
    e = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return BiPoly(a)


@pytest.fixture(scope="session")
def table_perturb_8_8(p_perturb_8_8):
    # window (16, 11) is what check_full_measure(table, 8, 8) reads
    return moments_from_density(p_perturb_8_8, 16, 11)


def cli_document(tmp_path, command, flag, doc, *args):
    """Exit code and printed document of one CLI call whose input flag
    names a file holding doc."""
    path = tmp_path / f"{command}-input.json"
    path.write_text(dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main([command, flag, str(path), *args])
    return code, json.loads(out.getvalue())
