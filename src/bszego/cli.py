"""Command-line front end.  JSON in, JSON out, exit codes by error class.

Exit codes: 0 success or affirmative answer, 1 well-posed negative
(condition fails, not factorable, not a generalized distinguished
variety), 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
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


def _qcfg(args):
    return QuadratureConfig(**_given(args, "max_grid", "tol"))


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
    report = check_matrix_condition(build_operators(space), **_given(args, "tol"))
    return report.to_json(), 0 if report.holds else 1


def _cmd_reconstruct(args):
    table = _positive_table(args, _read_json(args.moments))
    p = reconstruct_p(table, args.n, args.m, **_given(args, "tol"))
    return poly_to_json(p), 0


def _cmd_factor(args):
    t = trig_from_json(_read_json(args.trig))
    p = factor_trig(t, args.n, args.m, _qcfg(args))
    return poly_to_json(p), 0


def _cmd_sos(args):
    if args.tol is not None and not args.open_face:
        raise InvalidInput("--tol applies only with --open-face")
    p = poly_from_json(_read_json(args.poly))
    cert = certificate_open_face(p, **_given(args, "tol")) if args.open_face \
        else certificate_closed_face(p)
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
                                **_given(args, "tol"))
    code = {"pass": 0, "fail": 1, "inconclusive": 3}[report.verdict]
    return report.to_json(), code


def _cmd_ar(args):
    table = table_from_json(_read_json(args.autocorr))
    sol = solve_ar(ArProblem(args.n, args.m, table), **_given(args, "tol"))
    return sol.to_json(), 0 if sol.classification != "none" else 1


@functools.cache
def build_parser():
    """The CLI parser, built on first use and shared for the process.

    Each subcommand declares only the flags it reads, so a flag it would
    ignore is a usage error.  The help of --tol and --grid gives the
    default of the library parameter they set.
    """
    ap = _Parser(
        prog="bszego",
        description="Bernstein-Szego measures on the bicircle: moments, "
                    "factorization, certificates, filters.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # name, handler, help, the input flag then the integer flags, and the
    # library parameter whose default --tol replaces
    for name, func, help_text, required, tol_of in (
            ("moments", _cmd_moments, "moments of dsigma/|p|^2",
             "--poly --jmax --kmax", QuadratureConfig),
            ("check", _cmd_check, "matrix condition / stratification report",
             "--moments --n --m", check_matrix_condition),
            ("reconstruct", _cmd_reconstruct, "recover p from moments",
             "--moments --n --m", reconstruct_p),
            ("full", _cmd_full, "full-measure Bernstein-Szego test",
             "--moments --n --m", check_full_measure),
            ("factor", _cmd_factor, "factor a positive trig polynomial",
             "--trig --n --m", QuadratureConfig),
            ("sos", _cmd_sos, "sum-of-squares certificate", "--poly",
             certificate_open_face),
            ("gdv", _cmd_gdv, "distinguished-variety geometry and pencil", "--poly",
             None),
            ("ar", _cmd_ar, "solve the extended autoregressive model",
             "--autocorr --n --m", solve_ar)):
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        source, *ints = required.split()
        s.add_argument(source, required=True)
        for flag in ints:
            s.add_argument(flag, type=int, required=True)
        if name == "sos":
            s.add_argument("--open-face", action="store_true")
        if name == "full":
            s.add_argument("--depth", help="Nmax,Mmax")
        if tol_of is None:
            continue
        default = inspect.signature(tol_of).parameters
        s.add_argument("--tol", type=float,
                       help=f"tolerance of {tol_of.__name__} "
                            f"(default {default['tol'].default:g})")
        if tol_of is QuadratureConfig:
            s.add_argument("--grid", dest="max_grid", metavar="GRID", type=int,
                           help="maximum quadrature grid per axis, a power of two "
                                f"(default {default['max_grid'].default})")
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
