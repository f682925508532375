"""Seeded problem corpora for the three benchmark workloads.

Every problem is one call of the ``bszego`` CLI: a subcommand, its
arguments, the input documents it reads, and what the oracles need to
judge the answer.  Generation is pure numpy and depends only on the
seed; the moment tables of ``recover`` are filled in by ``materialize``
(set-up), which is the only place the library is called.

Polynomials are complex coefficient grids ``a[j, k]`` of ``z^j w^k``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# (2, 2) and (4, 4) come three times each: then the median recover call
# falls on the dense group of ~10 ms calls instead of on the sparse slope
# between the small and the large problems, where it moved by 14% between
# seeds; the tail and calls_per_s still rest on the large ones
RECOVER_DEGREES = ((2, 2),) * 3 + ((4, 4),) * 3 + (
    (8, 8), (12, 12), (16, 16), (8, 6), (12, 10))
CERTIFY_DEGREES = ((1, 1), (2, 2), (4, 2), (4, 4), (6, 4), (8, 8))
GDV_DEGREES = ((1, 1), (2, 1), (2, 2), (3, 2), (4, 4))
DEFAULT_SEED = 9137


@dataclass
class Problem:
    """One CLI call and what is known about its right answer."""

    pipeline: str            # CLI subcommand
    kind: str                # corpus family, for the outcome log
    deg: tuple               # (n, m) passed to or implied by the call
    flags: list              # CLI flags; "{name}" is replaced by an input path
    docs: dict               # input name -> JSON document (or a deferred spec)
    expect: dict = field(default_factory=dict)


# -- polynomial helpers -------------------------------------------------------

def polymul(a, b):
    """Product of two coefficient grids (2-D convolution)."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=complex)
    for j in range(a.shape[0]):
        for k in range(a.shape[1]):
            out[j: j + b.shape[0], k: k + b.shape[1]] += a[j, k] * b
    return out


def zpoly(roots_):
    """Grid of prod (z - r) as a polynomial in z alone (one w column)."""
    return np.polynomial.polynomial.polyfromroots(roots_).astype(complex)[:, None]


def abs_squared(a):
    """Laurent coefficients of |p|^2 on the torus, centred at (n, m)."""
    a = np.asarray(a, dtype=complex)
    flipped = np.conj(a[::-1, ::-1])
    return polymul(a, flipped)


def poly_doc(a):
    a = np.asarray(a, dtype=complex)
    return {"deg": [a.shape[0] - 1, a.shape[1] - 1],
            "coeffs": [[[v.real, v.imag] for v in row] for row in a]}


def table_doc(c):
    c = np.asarray(c, dtype=complex)
    return {"jmax": (c.shape[0] - 1) // 2, "kmax": (c.shape[1] - 1) // 2,
            "c": [[[v.real, v.imag] for v in row] for row in c]}


def _ladder(rng, count, lo, hi, jitter=0.05):
    """count points with moduli evenly spread over [lo, hi].

    Phases are evenly spaced too, turned by a random angle and jittered
    by a fraction of their spacing.  The seed thus changes every point,
    while the scale and the conditioning of the moment forms, and with
    them the code path a corpus cell takes, stay alike across seeds.
    """
    if count == 0:
        return np.zeros(0, dtype=complex)
    mods = np.linspace(lo, hi, count) if count > 1 else np.array([0.5 * (lo + hi)])
    step = 2 * np.pi / count
    phases = (rng.uniform(0, 2 * np.pi) + step * np.arange(count)
              + jitter * step * rng.uniform(-1, 1, count))
    return mods * np.exp(1j * phases)


def _alpha_product(alphas):
    """prod (alpha_i - z w)."""
    a = np.ones((1, 1), dtype=complex)
    for alpha in alphas:
        a = polymul(a, [[alpha, 0.0], [0.0, -1.0]])
    return a


def stable_kind(rng, n, m, lo=1.5, hi=3.0):
    """prod_{i<=m} (alpha_i - z w) times a z-factor with roots off the disk."""
    q = zpoly(_ladder(rng, n - m, 1.3, 3.0))
    return polymul(_alpha_product(_ladder(rng, m, lo, hi)), q)


def unstable_kind(rng, n, m):
    """(m-1) zw-factors, one (beta - w), and z-content with n2 >= 1.

    Every other z-root is flipped into the disk, the first always.  With
    |beta| = 6 the (16, 16) Gram matrix has its smallest eigenvalue well
    below the positivity test's absolute 1e-12, so that defect shows on
    every seed instead of on some.
    """
    rts = _ladder(rng, n - m + 1, 1.3, 3.0)
    rts[::2] = 1.0 / np.conj(rts[::2])
    a = polymul(_alpha_product(_ladder(rng, m - 1, 1.5, 3.0)),
                [[_ladder(rng, 1, 6.0, 6.0)[0], -1.0]])
    return polymul(a, zpoly(rts))


def perturb_kind(rng, n, m, size=0.5):
    """1 + e(z, w) with sum |e_jk| = size, so |p| >= 1 - size on the bidisk."""
    e = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    e[0, 0] = 0.0
    a = size * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return a


def disk_roots(a):
    """Number of roots of p(z, 0) in the open unit disk (numpy roots)."""
    col = np.trim_zeros(np.asarray(a)[:, 0], "b")
    if col.size <= 1:
        return 0
    return int(np.sum(np.abs(np.roots(col[::-1])) < 1.0))


def mixed_table():
    """Half Lebesgue plus half 1/|2 - zw|^2 (acceptance criterion 9)."""
    c = np.zeros((11, 9), dtype=complex)
    for j in range(-4, 5):
        c[j + 5, j + 4] = 0.5 * 2.0 ** (-abs(j)) / 3.0
    c[5, 4] += 0.5
    return c


def indefinite_table():
    """A (1, 1) moment table whose form is not positive (criterion 11)."""
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = -1.0
    return c


def non_factorable_trig():
    """|2 - zw|^2 + |2 - z - w/2|^2: positive, not a single |p|^2."""
    t = np.zeros((5, 5), dtype=complex)
    t[1:4, 1:4] += abs_squared([[2.0, 0.0], [0.0, -1.0]])
    t[1:4, 1:4] += abs_squared([[2.0, -1.0], [-0.5, 0.0]])
    return t


# -- workloads ----------------------------------------------------------------

# Failure modes the library shows at the commit that set the benchmark
# up, per corpus cell (pipeline, kind, (n, m)): (exit code, error class
# or full-test verdict).  Each cell takes the same path on every seed,
# except the (12, 12) zw cell of reconstruct and ar, which fails on about
# one seed in twenty (2 of 41 seeds tried).  Such an answer is not right (it
# counts against done_share and right_share) but it is documented, so it
# does not make a run incorrect; any other wrong answer does, and so does
# any other failure in these cells.
KNOWN_DEFECTS = {
    ("check", "unstable", (16, 16)): (2, "NotPositive"),
    ("full", "zw", (12, 10)): (1, "fail"),
    ("full", "zw", (16, 16)): (1, "fail"),
    **{(pipeline, kind, deg): defect
       for pipeline in ("reconstruct", "ar")
       for kind, deg, defect in (
           ("zw", (8, 6), (3, "DegenerateForm")),
           ("unstable", (8, 6), (3, "DegenerateForm")),
           ("zw", (12, 10), (3, "GcdUnstable")),
           ("unstable", (12, 10), (3, "GcdUnstable")),
           ("zw", (12, 12), (3, "DegenerateForm")),
           ("unstable", (12, 12), (3, "DegenerateForm")),
           ("zw", (16, 16), (3, "DegenerateForm")),
           ("unstable", (16, 16), (2, "NotPositive")))},
}


def recover(rng):
    """check / reconstruct / full / ar on moment tables of closed-face p.

    ``full`` skips the unstable kind: its windows cost the same whatever
    the z-content, and without those calls two passes fit in a run.
    """
    out = []
    kinds = (("zw", stable_kind), ("unstable", unstable_kind),
             ("perturb", perturb_kind))
    for n, m in RECOVER_DEGREES:
        for kind, make in kinds:
            a = make(rng, n, m)
            jfull, kfull = max(n + 4, 2 * n), m + 3
            moments = {"poly": a, "jmax": jfull, "kmax": kfull}
            expect = {"p": a, "n2": disk_roots(a), "exit": 0}
            small = {"table": dict(moments, window=(n, m))}
            nm = ["--n", str(n), "--m", str(m)]
            for pipeline, flag, docs in (("check", "--moments", small),
                                         ("reconstruct", "--moments", small),
                                         ("full", "--moments", {"table": moments}),
                                         ("ar", "--autocorr", small)):
                if pipeline == "full" and kind == "unstable":
                    continue
                defect = KNOWN_DEFECTS.get((pipeline, kind, (n, m)))
                out.append(Problem(pipeline, kind, (n, m), [flag, "{table}"] + nm,
                                   docs, dict(expect,
                                              defects=(defect,) if defect else ())))
    # the (1, 1) window of the mixed measure is exactly that of 42/|8 - zw|^2,
    # so the matrix condition holds there while the full test must fail
    mixed = {"table": mixed_table()}
    nm = ["--n", "1", "--m", "1"]
    out.append(Problem("check", "mixed", (1, 1), ["--moments", "{table}"] + nm,
                       mixed, {"exit": 0, "n2": 0}))
    out.append(Problem("full", "mixed", (1, 1), ["--moments", "{table}"] + nm,
                       mixed, {"exit": 1, "verdict": "fail"}))
    return out


def certify(rng):
    """moments / sos / factor / gdv on polynomials far from the torus."""
    out = []
    for n, m in CERTIFY_DEGREES:
        for kind, a in (("zw", stable_kind(rng, n, m, 2.0, 3.0)),
                        ("perturb", perturb_kind(rng, n, m, 0.4))):
            doc = {"poly": a}
            out.append(Problem("moments", kind, (n, m),
                               ["--poly", "{poly}", "--jmax", str(n),
                                "--kmax", str(m)], doc,
                               {"exit": 0, "p": a}))
            out.append(Problem("factor", kind, (n, m),
                               ["--trig", "{trig}", "--n", str(n), "--m", str(m)],
                               {"trig": abs_squared(a)}, {"exit": 0, "p": a}))
        for kind, a in (("zw", stable_kind(rng, n, m, 2.0, 3.0)),
                        ("unstable", unstable_kind(rng, n, m))):
            out.append(Problem("sos", kind, (n, m), ["--poly", "{poly}"],
                               {"poly": a},
                               {"exit": 0, "p": a, "n2": disk_roots(a),
                                "tol": 1e-8}))
    for n, m in GDV_DEGREES:
        zeros = _ladder(rng, n, 0.1, 0.6)
        a = np.zeros((n + 1, m + 1), dtype=complex)
        a[:, m] = zpoly(zeros)[::-1, 0].conj()    # prod (1 - conj(a_i) z)
        a[:, 0] -= zpoly(zeros)[:, 0]             # minus prod (z - a_i)
        out.append(Problem("gdv", "blaschke", (n, m), ["--poly", "{poly}"],
                           {"poly": a}, {"exit": 0, "p": a}))
    out.append(Problem("factor", "sum2", (2, 2),
                       ["--trig", "{trig}", "--n", "2", "--m", "2"],
                       {"trig": non_factorable_trig()},
                       {"exit": 1, "error": "NotFactorable"}))
    out.append(Problem("gdv", "2zw-z-w", (1, 1), ["--poly", "{poly}"],
                       {"poly": np.array([[0, -1], [-1, 2]], dtype=complex)},
                       {"exit": 1, "error": "NotGdv"}))
    return out


# delta bands in which quadrature of 1/|(1+d) - zw|^2 stops doubling at
# 2048^2 and 1024^2 grids, so the cost of a pass does not hinge on where
# the seed puts delta; the open-face calls reach 4096^2.  Per pass there
# are as many cheap negative controls (6) as calls dearer than the 1024^2
# ones (4 + 2), which puts the median call in the middle of the 1024^2
# group instead of at the edge between two groups.
BANDS = {2048: (0.0280, 0.0420), 1024: (0.0550, 0.0900)}
NEAR_MOMENTS = ((1, 1024), (1, 1024), (2, 1024), (1, 2048), (2, 2048))
NEAR_SOS = ((1, 1024), (1, 1024), (2, 1024), (1, 2048), (2, 2048))


def torus_zero(b, c):
    """(b + c) - b z - c w, which vanishes at (1, 1) on the torus."""
    return np.array([[b + c, -c], [-b, 0.0]], dtype=complex)


def near_torus(rng):
    """Quadrature-bound problems: closed-face (1+d) - zw and torus zeros."""
    out = []
    for pipeline, cells in (("moments", NEAR_MOMENTS), ("sos", NEAR_SOS)):
        for factors, grid in cells:
            a = np.ones((1, 1), dtype=complex)
            for d in rng.uniform(*BANDS[grid], size=factors):
                a = polymul(a, [[1.0 + d, 0.0], [0.0, -1.0]])
            kind, deg = f"1+d-zw@{grid}", (factors, factors)
            if pipeline == "moments":
                out.append(Problem("moments", kind, deg,
                                   ["--poly", "{poly}", "--jmax", str(factors),
                                    "--kmax", str(factors)],
                                   {"poly": a}, {"exit": 0, "p": a, "zw_only": True}))
            else:
                out.append(Problem("sos", kind, deg, ["--poly", "{poly}"],
                                   {"poly": a},
                                   {"exit": 0, "p": a, "n2": 0, "tol": 1e-6}))
    # 2 - z - w and a multiple of 3 - 2z - w: the open-face schedule's cost
    # moves by 2x with b / c but not with a common scale
    scale = rng.uniform(0.5, 2.0)
    for a in (torus_zero(1.0, 1.0), torus_zero(2.0 * scale, scale)):
        out.append(Problem("sos", "torus", (1, 1),
                           ["--open-face", "--tol", "5e-2", "--poly", "{poly}"],
                           {"poly": a}, {"exit": 0, "p": a, "n2": 0, "tol": 5e-2}))
    # negative controls (acceptance criterion 11): a pole on the torus,
    # polynomials sharing a factor with their reflection, and a moment
    # table that is not positive
    one_zw = np.array([[1, 0], [0, -1]], dtype=complex)
    z_w = np.array([[0, -1], [1, 0]], dtype=complex)
    for pipeline, flags, a, exit_, error in (
            ("moments", ["--jmax", "1", "--kmax", "1"], one_zw, 3, "MomentDivergence"),
            ("sos", [], one_zw, 3, "MomentDivergence"),
            ("sos", ["--open-face"], one_zw, 1, "CommonFactor"),
            ("sos", ["--open-face"], z_w, 1, "CommonFactor")):
        kind = "1-zw" if a is one_zw else "z-w"
        out.append(Problem(pipeline, kind, (1, 1), ["--poly", "{poly}"] + flags,
                           {"poly": a}, {"exit": exit_, "error": error}))
    for pipeline, flag in (("check", "--moments"), ("ar", "--autocorr")):
        out.append(Problem(pipeline, "indefinite", (1, 1),
                           [flag, "{table}", "--n", "1", "--m", "1"],
                           {"table": indefinite_table()},
                           {"exit": 2, "error": "NotPositive"}))
    return out


WORKLOADS = {"recover": recover, "certify": certify, "near_torus": near_torus}

# the calibration kernel that run.Clock times around every call: the one
# whose slowdowns on a shared machine track those of the workload's work
KERNELS = {"recover": "loops", "certify": "loops", "near_torus": "fft"}


def generate(workload, seed):
    """The corpus of a workload; the same seed gives the same problems."""
    return WORKLOADS[workload](np.random.default_rng(seed))


def materialize(problems, workdir, moments_from_density, BiPoly):
    """Write every input document to ``workdir`` and return CLI argvs.

    Moment tables of the ``recover`` corpus are computed here with the
    library's own quadrature, once per source polynomial, and windowed
    for the calls that take the (n, m) window.
    """
    os.makedirs(workdir, exist_ok=True)
    tables = {}
    argvs = []
    for idx, prob in enumerate(problems):
        paths = {}
        for name, doc in prob.docs.items():
            if isinstance(doc, dict) and "poly" in doc and "jmax" in doc:
                key = id(doc["poly"])
                if key not in tables:
                    tables[key] = moments_from_density(
                        BiPoly(doc["poly"]), doc["jmax"], doc["kmax"]).c
                c = tables[key]
                if "window" in doc:
                    n, m = doc["window"]
                    dj, dk = doc["jmax"] - n, doc["kmax"] - m
                    c = c[dj: dj + 2 * n + 1, dk: dk + 2 * m + 1]
                text = json.dumps(table_doc(c))
            elif name == "poly":
                text = json.dumps(poly_doc(doc))
            else:
                text = json.dumps(table_doc(doc))
            path = os.path.join(workdir, f"{idx:03d}-{name}.json")
            with open(path, "w") as fh:
                fh.write(text)
            paths[name] = path
        argv = [prob.pipeline] + [f.format(**paths) for f in prob.flags]
        argvs.append(argv)
    return argvs
