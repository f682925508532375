"""Command-line front end.  JSON in, JSON out, exit codes by error class.

Exit codes: 0 success or affirmative answer, 1 well-posed negative
(condition fails, not factorable, not a generalized distinguished
variety), 2 invalid input, 3 numerical failure.

This module alone writes the documents; the library returns plain data.
A complex number is [re, im]; polynomials and moment tables are as in
``jsonio``.  The keys of each subcommand's document:

    moments: a moment table; reconstruct, factor: a polynomial
    check: holds, max_violation, dimA, dimB, d_min, d_max
    sos: A, B, C (lists of polynomials), n1, n2, deg, residual, variant "L"
    gdv: mu, geometry {passed, worst_deviation, worst_z, worst_w},
        detrep {U, n1, n2, scale, residual}
    full: positivity_ok, min_eigenvalue, e2_conditions {"N,M": max},
        h_conditions {"M": max}, verdict, depth, tol (always VANISH_TOL)
    ar: classification, a (a polynomial or null), diagnostics {the check
        keys, a_operator_norm, min_eigenvalue}
    any failure: error, message
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

from . import __version__
from .arfilter import solve_ar
from .detrep import build_detrep
from .errors import BszegoError, InvalidInput
from .fullmeasure import check_full_measure
from .jsonio import (_pairs, dumps, poly_from_json, poly_to_json,
                     table_from_json, table_to_json, trig_from_json)
from .moments import moments_from_density
from .reconstruct import factor_trig, reconstruct_p
from .sos import certificate_closed_face, certificate_open_face
from .splitshift import _positive_form, build_operators, check_matrix_condition

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


def _given(args, *names):
    """The named flags the user gave, as keyword arguments: a flag left
    out keeps the library's default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _cmd_moments(args):
    p = poly_from_json(_read_json(args.poly))
    table = moments_from_density(p, args.jmax, args.kmax)
    return table_to_json(table), 0


def _check_doc(report):
    return {"holds": report.holds, "max_violation": report.max_violation,
            "dimA": report.dim_a, "dimB": report.dim_b,
            "d_min": report.d_min, "d_max": report.d_max}


def _cmd_check(args):
    table = table_from_json(_read_json(args.moments))
    space, _ = _positive_form(table, args.n, args.m)
    report = check_matrix_condition(build_operators(space))
    return _check_doc(report), 0 if report.holds else 1


def _cmd_reconstruct(args):
    table = table_from_json(_read_json(args.moments))
    return poly_to_json(reconstruct_p(table, args.n, args.m)), 0


def _cmd_factor(args):
    t = trig_from_json(_read_json(args.trig))
    p = factor_trig(t, args.n, args.m)
    return poly_to_json(p), 0


def _cmd_sos(args):
    if args.tol is not None and not args.open_face:
        raise InvalidInput("--tol applies only with --open-face")
    p = poly_from_json(_read_json(args.poly))
    cert = certificate_open_face(p, **_given(args, "tol")) if args.open_face \
        else certificate_closed_face(p)
    # each grid of a block's stack on its support, (n, m-1) or (n-1, m), as
    # it was verified: poly_to_json would trim round-off
    blocks = {name: [{"deg": [x.shape[0] - 1, x.shape[1] - 1], "coeffs": grid}
                     for grid in _pairs(x.transpose(2, 0, 1))]
              for name, x in zip("ABC", (cert.a, cert.b, cert.c))}
    return blocks | {"n1": cert.n1, "n2": cert.n2, "deg": list(cert.deg),
                     "residual": cert.residual, "variant": "L"}, 0


def _cmd_gdv(args):
    rep = build_detrep(poly_from_json(_read_json(args.poly)))
    geo = rep.geometry
    return {"mu": _pairs(rep.mu),
            "geometry": {"passed": geo.passed, "worst_deviation": geo.worst_deviation,
                         "worst_z": _pairs(geo.worst_z),
                         "worst_w": _pairs(geo.worst_w)},
            "detrep": {"U": _pairs(rep.u), "n1": rep.n1, "n2": rep.n2,
                       "scale": _pairs(rep.scale), "residual": rep.residual}}, 0


def _depth(text):
    """--depth's Nmax,Mmax as a pair of integers."""
    try:
        Nmax, Mmax = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected Nmax,Mmax, not {text!r}") from None
    return Nmax, Mmax


def _cmd_full(args):
    table = table_from_json(_read_json(args.moments))
    report = check_full_measure(table, args.n, args.m, *args.depth or (None, None))
    code = {"pass": 0, "fail": 1, "inconclusive": 3}[report.verdict]
    return {"positivity_ok": report.positivity_ok,
            "min_eigenvalue": report.min_eigenvalue,
            "e2_conditions": {f"{N},{M}": v
                              for (N, M), v in report.e2_conditions.items()},
            "h_conditions": {str(M): v for M, v in report.h_conditions.items()},
            "verdict": report.verdict,
            "depth": list(report.depth), "tol": report.tol}, code


def _cmd_ar(args):
    table = table_from_json(_read_json(args.autocorr))
    sol = solve_ar(table, args.n, args.m)
    a = None if sol.coefficients is None else poly_to_json(sol.coefficients)
    diagnostics = _check_doc(sol.report) | {
        "a_operator_norm": sol.a_operator_norm,
        "min_eigenvalue": sol.min_eigenvalue}
    return {"classification": sol.classification, "a": a,
            "diagnostics": diagnostics}, 0 if sol.classification != "none" else 1


@functools.cache
def build_parser():
    """The CLI parser, built on first use and shared for the process.

    Each subcommand declares only the flags it reads, so a flag it would
    ignore is a usage error.  The help of sos --tol gives the default of
    the library parameter it sets.
    """
    ap = _Parser(
        prog="bszego",
        description="Bernstein-Szego measures on the bicircle: moments, "
                    "factorization, certificates, filters.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # name, handler, help, then the input flag and the integer flags
    for name, func, help_text, required in (
            ("moments", _cmd_moments, "moments of dsigma/|p|^2",
             "--poly --jmax --kmax"),
            ("check", _cmd_check, "matrix condition / stratification report",
             "--moments --n --m"),
            ("reconstruct", _cmd_reconstruct, "recover p from moments",
             "--moments --n --m"),
            ("full", _cmd_full, "full-measure Bernstein-Szego test",
             "--moments --n --m"),
            ("factor", _cmd_factor, "factor a positive trig polynomial",
             "--trig --n --m"),
            ("sos", _cmd_sos, "sum-of-squares certificate", "--poly"),
            ("gdv", _cmd_gdv, "distinguished-variety geometry and pencil", "--poly"),
            ("ar", _cmd_ar, "solve the extended autoregressive model",
             "--autocorr --n --m")):
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        source, *ints = required.split()
        s.add_argument(source, required=True)
        for flag in ints:
            s.add_argument(flag, type=int, required=True)
        if name == "sos":
            s.add_argument("--open-face", action="store_true")
            tol = inspect.signature(certificate_open_face).parameters["tol"].default
            s.add_argument("--tol", type=float,
                           help=f"tolerance of certificate_open_face (default {tol:g})")
        if name == "full":
            s.add_argument("--depth", type=_depth, help="Nmax,Mmax")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for name in ("n", "m", "jmax", "kmax"):
            if getattr(args, name, 0) < 0:
                raise InvalidInput(f"--{name} {getattr(args, name)} is negative")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 < tol < float("inf"):
            raise InvalidInput(f"--tol {tol} is not a positive number")
        doc, code = args.func(args)
    except BszegoError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        code = exc.exit_code
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        code = 2
    try:
        print(dumps(doc), flush=True)
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: the exit code stands,
        # and stdout goes to devnull so that the last flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
