"""Command-line front end.  JSON in, JSON out, exit codes by error class.

Exit codes: 0 success or affirmative answer, 1 well-posed negative
(condition fails, not factorable, not a generalized distinguished
variety), 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .arfilter import ArProblem, solve_ar
from .detrep import build_detrep
from .errors import BszegoError, InvalidInput, NotPositive
from .fullmeasure import check_full_measure
from .jsonio import (dumps, poly_from_json, poly_to_json, table_from_json,
                     table_to_json, trig_from_json)
from .moments import QuadratureConfig, is_positive, moments_from_density
from .reconstruct import factor_trig, reconstruct_p
from .sos import certificate_closed_face, certificate_open_face
from .space import MomentSpace
from .splitshift import build_operators, check_matrix_condition

COND_TOL = 1e-8
QUAD_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InvalidInput, so that they exit 2
    with the usual JSON error document."""

    def error(self, message):
        raise InvalidInput(message)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _cond_tol(args):
    return COND_TOL if args.tol is None else args.tol


def _qcfg(args):
    grid = 4096 if args.grid is None else args.grid
    tol = QUAD_TOL if args.tol is None else args.tol
    return QuadratureConfig(max_grid=grid, tol=tol)


def _positive_table(args, doc):
    table = table_from_json(doc)
    ok, lam = is_positive(table, args.n, args.m)
    if not ok:
        raise NotPositive(f"moment form not positive (eigenvalue {lam:.3e})")
    return table


def _cmd_moments(args):
    p = poly_from_json(_read_json(args.poly))
    table = moments_from_density(p, args.jmax, args.kmax, _qcfg(args))
    return table_to_json(table), 0


def _cmd_check(args):
    table = _positive_table(args, _read_json(args.moments))
    space = MomentSpace(table, args.n, args.m)
    report = check_matrix_condition(build_operators(space), tol=_cond_tol(args))
    return report.to_json(), 0 if report.holds else 1


def _cmd_reconstruct(args):
    table = _positive_table(args, _read_json(args.moments))
    p = reconstruct_p(table, args.n, args.m, tol=_cond_tol(args))
    return poly_to_json(p), 0


def _cmd_factor(args):
    t = trig_from_json(_read_json(args.trig))
    p = factor_trig(t, args.n, args.m, _qcfg(args))
    return poly_to_json(p), 0


def _cmd_sos(args):
    p = poly_from_json(_read_json(args.poly))
    if args.open_face:
        cert = certificate_open_face(p, tol=max(_cond_tol(args), 1e-8))
    else:
        cert = certificate_closed_face(p)
    return cert.to_json(), 0


def _cmd_gdv(args):
    p = poly_from_json(_read_json(args.poly))
    rep = build_detrep(p)
    return {"mu": [rep.mu.real, rep.mu.imag],
            "geometry": rep.geometry.to_json(),
            "detrep": rep.to_json()}, 0


def _cmd_full(args):
    table = table_from_json(_read_json(args.moments))
    Nmax, Mmax = (None, None)
    if args.depth:
        Nmax, Mmax = (int(x) for x in args.depth.split(","))
    report = check_full_measure(table, args.n, args.m, Nmax, Mmax,
                                tol=max(_cond_tol(args), 1e-7))
    code = {"pass": 0, "fail": 1, "inconclusive": 3}[report.verdict]
    return report.to_json(), code


def _cmd_ar(args):
    table = table_from_json(_read_json(args.autocorr))
    sol = solve_ar(ArProblem(args.n, args.m, table), tol=_cond_tol(args))
    return sol.to_json(), 0 if sol.classification != "none" else 1


@functools.cache
def build_parser():
    """The CLI parser, built on first use and shared for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance override (condition tests default "
                             "1e-8, quadrature 1e-10)")
    common.add_argument("--grid", type=int, default=None,
                        help="maximum quadrature grid per axis, a power of two "
                             "(default 4096)")

    ap = _Parser(
        prog="bszego", parents=[common],
        description="Bernstein-Szego measures on the bicircle: moments, "
                    "factorization, certificates, filters.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text):
        s = sub.add_parser(name, parents=[common], help=help_text)
        s.set_defaults(func=func)
        return s

    s = cmd("moments", _cmd_moments, "moments of dsigma/|p|^2")
    s.add_argument("--poly", required=True)
    s.add_argument("--jmax", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)

    for name, func, help_text in (
            ("check", _cmd_check, "matrix condition / stratification report"),
            ("reconstruct", _cmd_reconstruct, "recover p from moments"),
            ("full", _cmd_full, "full-measure Bernstein-Szego test")):
        s = cmd(name, func, help_text)
        s.add_argument("--moments", required=True)
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--m", type=int, required=True)
        if name == "full":
            s.add_argument("--depth", default=None, help="Nmax,Mmax")

    s = cmd("factor", _cmd_factor, "factor a positive trig polynomial")
    s.add_argument("--trig", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)

    s = cmd("sos", _cmd_sos, "sum-of-squares certificate")
    s.add_argument("--poly", required=True)
    s.add_argument("--open-face", action="store_true")

    s = cmd("gdv", _cmd_gdv, "distinguished-variety geometry and pencil")
    s.add_argument("--poly", required=True)

    s = cmd("ar", _cmd_ar, "solve the extended autoregressive model")
    s.add_argument("--autocorr", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for name in ("n", "m", "jmax", "kmax"):
            if getattr(args, name, 0) < 0:
                raise InvalidInput(f"--{name} {getattr(args, name)} is negative")
        if args.tol is not None and not 0 < args.tol < float("inf"):
            raise InvalidInput(f"--tol {args.tol} is not a positive number")
        doc, code = args.func(args)
    except BszegoError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        code = exc.exit_code
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        code = 2
    print(dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
