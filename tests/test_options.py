"""Every settable option of the library is listed here.

An option is a defaulted parameter of a public function or method, or a
field of a ``*Config`` dataclass, anywhere in ``src/bszego``.  A new one
must be added to ALLOWED, so that it is seen in review.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bszego"

ALLOWED = {
    "moments.QuadratureConfig.initial_grid",
    "moments.QuadratureConfig.max_grid",
    "moments.QuadratureConfig.tol",
    "moments.moments_from_density(cfg)",
    "moments.moments_from_trig(cfg)",
    "reconstruct.factor_trig(cfg)",
    "splitshift.check_matrix_condition(tol)",
    "reconstruct.reconstruct_p(tol)",
    "arfilter.solve_ar(tol)",
    "fullmeasure.check_full_measure(Nmax)",
    "fullmeasure.check_full_measure(Mmax)",
    "fullmeasure.check_full_measure(tol)",
    "sos.certificate_closed_face(variant)",
    "sos.certificate_closed_face(seed)",
    "sos.certificate_closed_face(deg)",
    "sos.certificate_open_face(tol)",
    "sos.certificate_open_face(variant)",
    "sos.certificate_open_face(seed)",
    "sos.certificate_open_face(deg)",
    "sos.verify_certificate(seed)",
    "sos.common_factor_with_reflection(deg)",
    "detrep.build_detrep(seed)",
    "space.MomentSpace.projected_span(expect)",
    "splitshift.split_poly_from_condition(d)",
    "cli.main(argv)",
    "jsonio.dumps(indent)",
}


def _options(module, body, prefix=""):
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for arg in defaulted:
                yield f"{module}.{prefix}{node.name}({arg.arg})"
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if node.name.endswith("Config"):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        yield f"{module}.{node.name}.{stmt.target.id}"
            yield from _options(module, node.body, node.name + ".")


def test_settable_options_are_the_allowed_ones():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _options(path.stem, ast.parse(path.read_text()).body)
    assert len(found) == len(set(found))
    assert set(found) == ALLOWED
