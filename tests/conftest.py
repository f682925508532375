import numpy as np
import pytest

from bszego import BiPoly, MomentTable, UniPoly, moments_from_density
from bszego.poly import as_bipoly


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
    if kind == "H":
        ambient = rect(0, 2 * k, 0, l)
        return ambient, [u for u in ambient if u != (k, 0)]
    removed = {"E1": rect(0, k, 1, l), "F1": rect(0, k, 0, l - 1),
               "E2": rect(1, k, 0, l), "F2": rect(0, k - 1, 0, l)}[kind]
    return rect(0, k, 0, l), removed


def torus_grid(N):
    th = 2.0 * np.pi * np.arange(N) / N
    z = np.exp(1j * th)
    return np.meshgrid(z, z, indexing="ij")


def max_modulus_gap(p, q, N=256):
    """max over the N x N torus grid of | |p|^2 - |q|^2 |, absolute."""
    zz, ww = torus_grid(N)
    return float(np.max(np.abs(np.abs(p(zz, ww)) ** 2 - np.abs(q(zz, ww)) ** 2)))


def random_corpus_poly(rng, max_q_deg=2, max_factors=2, allow_unstable_q=False):
    """q(z) (stable unless flipped) times products of (alpha - z w)."""
    q = UniPoly([1.0])
    for _ in range(int(rng.integers(0, max_q_deg + 1))):
        rho = rng.uniform(1.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
        if allow_unstable_q and rng.uniform() < 0.5:
            rho = 1.0 / np.conj(rho)
        q = q * UniPoly([-rho, 1.0])
    g = BiPoly([[1.0]])
    for _ in range(int(rng.integers(1, max_factors + 1))):
        alpha = rng.uniform(1.5, 3.0) * np.exp(2j * np.pi * rng.uniform())
        g = g * BiPoly([[alpha, 0.0], [0.0, -1.0]])
    return (q.to_bipoly() * g).trimmed()


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


def pad_table(diag_fn, jmax, kmax):
    """Table with c_{j,j} = diag_fn(j) on the diagonal, zero elsewhere."""
    c = np.zeros((2 * jmax + 1, 2 * kmax + 1), dtype=complex)
    for j in range(-min(jmax, kmax), min(jmax, kmax) + 1):
        c[j + jmax, j + kmax] = diag_fn(j)
    return MomentTable(jmax, kmax, c)


def poly(rows):
    return as_bipoly(np.asarray(rows, dtype=complex))
