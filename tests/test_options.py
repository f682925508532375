"""Every settable option of the library is listed here, and its public
names are counted.

An option is a defaulted parameter of a public function or method, or a
field of a ``*Config`` dataclass, anywhere in ``src/bszego``.  A new one
must be added to ALLOWED, and a new public name must raise PUBLIC_NAMES,
so that either is seen in review.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bszego"

ALLOWED = {
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
    "sos.certificate_closed_face(deg)",
    "sos.certificate_open_face(tol)",
    "sos.certificate_open_face(variant)",
    "sos.certificate_open_face(deg)",
    "sos.common_factor_with_reflection(deg)",
    "cli.main(argv)",
}

# top-level public functions and classes plus their public methods
PUBLIC_NAMES = 125


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


def settable_options():
    """Every settable option in src/bszego, in file order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _options(path.stem, ast.parse(path.read_text()).body)
    return found


def public_names():
    """Top-level public functions and classes in src/bszego, and the public
    methods of those classes, as module.name or module.Class.method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found.append(f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    found += [f"{path.stem}.{node.name}.{m.name}"
                              for m in node.body
                              if isinstance(m, ast.FunctionDef)
                              and not m.name.startswith("_")]
    return found


def test_settable_options_are_the_allowed_ones():
    found = settable_options()
    assert len(found) == len(set(found))
    assert set(found) == ALLOWED


def test_public_names_are_counted():
    found = public_names()
    assert len(found) == len(set(found))
    assert len(found) == PUBLIC_NAMES
