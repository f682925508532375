"""The pipelines at the top of the advertised degree range, (16, 16).

The answers are judged by numpy-only oracles from ``conftest``, which
share no sampler with the library.
"""

import numpy as np
import pytest

from bszego import BiPoly, moments_from_density
from bszego.jsonio import table_to_json

from conftest import cli_document, torus_modulus_gap


@pytest.fixture(scope="module")
def p_perturb_16_16():
    """1 + e(z, w) of degree (16, 16) with sum |e_jk| = 0.5, zero-free on
    the closed bidisk."""
    rng = np.random.default_rng(1616)
    e = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return a


def test_recover_pipelines_at_16_16(tmp_path, p_perturb_16_16):
    table = table_to_json(moments_from_density(BiPoly(p_perturb_16_16), 16, 16))
    nm = ("--n", "16", "--m", "16")
    code, check = cli_document(tmp_path, "check", "--moments", table, *nm)
    assert code == 0 and check["holds"] is True
    # p(z, 0) has no root in the disk, so the interval starts at 0
    assert check["d_min"] <= 0 <= check["d_max"]
    code, p = cli_document(tmp_path, "reconstruct", "--moments", table, *nm)
    assert code == 0 and p["deg"] == [16, 16]
    assert torus_modulus_gap(p, p_perturb_16_16) < 1e-12
    code, ar = cli_document(tmp_path, "ar", "--autocorr", table, *nm)
    assert code == 0 and ar["classification"] == "causal"
    assert torus_modulus_gap(ar["a"], p_perturb_16_16) < 1e-12
