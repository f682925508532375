"""Every settable option of the library and every optional CLI flag is
listed here, the library's public names are counted, only the CLI may
import the JSON layer, and the library draws no random numbers.

An option is a defaulted parameter of a public function or method, or a
field of a ``*Config`` dataclass, anywhere in ``src/bszego``.  A new one
must be added to ALLOWED, a new CLI flag to CLI_FLAGS, and a new public
name must raise PUBLIC_NAMES, so that each is seen in review.
"""

import argparse
import ast
from pathlib import Path

from bszego.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "bszego"

ALLOWED = {
    "fullmeasure.check_full_measure(Nmax)",
    "fullmeasure.check_full_measure(Mmax)",
    "sos.certificate_open_face(tol)",
    "cli.main(argv)",
}

# top-level public functions and classes plus their public methods
PUBLIC_NAMES = 105

# (subcommand, flag) for each optional flag, on the subcommands that read it
CLI_FLAGS = {
    ("full", "--depth"),
    ("sos", "--tol"), ("sos", "--open-face"),
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


def cli_flags():
    """(subcommand, flag) for every optional flag of the bszego parser, the
    top-level parser's under "bszego"; --help and --version are left out."""
    top = build_parser()
    parsers = [("bszego", top)]
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.items()
    return [(name, flag) for name, parser in parsers for action in parser._actions
            if not action.required
            and not isinstance(action, (argparse._HelpAction, argparse._VersionAction))
            for flag in action.option_strings]


def test_settable_options_are_the_allowed_ones():
    found = settable_options()
    assert len(found) == len(set(found))
    assert set(found) == ALLOWED


def test_public_names_are_counted():
    found = public_names()
    assert len(found) == len(set(found))
    assert len(found) == PUBLIC_NAMES


def test_cli_flags_are_the_allowed_ones():
    found = cli_flags()
    assert len(found) == len(set(found))
    assert set(found) == CLI_FLAGS


def unused_imports():
    """Names a src/bszego module imports but never uses, as module.name;
    the re-exports of __init__.py are its purpose and are not listed."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}.{name}" for name in imported if name not in used]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def random_references():
    """Every reference to the random module or to numpy's in src/bszego, as
    module:line: a name or attribute ``random``, or an import of either."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] \
                    + [alias.name for alias in node.names]
            else:
                continue
            if any("random" in name.split(".") for name in names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_library_draws_no_random_numbers():
    # every answer is a function of the input alone: the identities are
    # checked on coefficients, not at sample points
    assert random_references() == []


def jsonio_importers():
    """The src/bszego modules that import jsonio, in any form of import and
    at any depth, function-local imports included."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("jsonio" in name.split(".") for name in names):
                found.add(path.stem)
    return found


def test_only_the_cli_imports_jsonio():
    # the layout of every output document lives in one module: the library
    # returns plain data and the CLI writes it
    assert jsonio_importers() == {"cli"}
