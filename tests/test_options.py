"""Every settable option of the library and every optional CLI flag is
listed here, the library's public names are counted, ``bszego`` exports
exactly the public top-level names of its library modules, every error
class it exports without subclasses is raised somewhere, only the CLI
may import the JSON layer, each quadrature and slice decision has one
owning module, and the library draws no random numbers.

An option is a defaulted parameter of a public function or method, or a
field of a ``*Config`` dataclass, anywhere in ``src/bszego``.  A new one
must be added to ALLOWED, a new CLI flag to CLI_FLAGS, and a new public
name must raise PUBLIC_NAMES, so that each is seen in review.  A
top-level name outside the CLI and the JSON layer is public exactly when
``bszego`` exports it.
"""

import argparse
import ast
import inspect
from pathlib import Path

import bszego
from bszego.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "bszego"

ALLOWED = {
    "fullmeasure.check_full_measure(Nmax)",
    "fullmeasure.check_full_measure(Mmax)",
    "sos.certificate_open_face(tol)",
    "cli.main(argv)",
}

# top-level public functions and classes plus their public methods
PUBLIC_NAMES = 97

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


def exported_names():
    """The names ``bszego`` exports, as module.name of the module that
    defines each; its submodules and dunder names are left out."""
    return [f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"
            for name, obj in vars(bszego).items()
            if not name.startswith("_") and not inspect.ismodule(obj)]


def test_exports_are_the_public_top_level_names():
    # the CLI and the JSON layer are no library API: cli.main is the
    # console script and jsonio's documents are the CLI's
    found = [name for name in public_names() if name.count(".") == 1
             and name.split(".")[0] not in ("cli", "jsonio")]
    assert sorted(exported_names()) == sorted(found)


def raised_names():
    """The names called in a ``raise`` statement anywhere in src/bszego."""
    return {node.exc.func.id for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)}


def test_every_exported_leaf_error_is_raised():
    # an error class whose last raise is removed goes with it
    leaves = {name for name, obj in vars(bszego).items()
              if isinstance(obj, type) and issubclass(obj, bszego.BszegoError)
              and not obj.__subclasses__()}
    assert leaves and sorted(leaves - raised_names()) == []


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


def importers(module):
    """The src/bszego modules that import ``module``, or a name from it, in
    any form of import and at any depth, function-local imports included."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(module in name.split(".") for name in names):
                found.add(path.stem)
    return found


def test_only_the_cli_imports_jsonio():
    # the layout of every output document lives in one module: the library
    # returns plain data and the CLI writes it
    assert importers("jsonio") == {"cli"}


def namers(names):
    """The src/bszego modules that refer to any of ``names``: as a name, an
    attribute or an imported name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used = [alias.name for alias in node.names]
            else:
                continue
            if set(used) & set(names):
                found.add(path.stem)
    return found


def assigners(names):
    """The src/bszego modules that assign any of ``names`` at top level."""
    return {path.stem for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)}


def test_each_decision_has_one_owner():
    # the certificate modules reach neither the shift operators nor the
    # moment space; both quadratures' constants are moments' alone, the
    # positivity bound too (its certificate lives beside is_positive), and
    # the slice verdicts' constants poly's
    for module in ("splitshift", "space"):
        assert not importers(module) & {"sos", "detrep"}, module
    assert namers({"MAX_GRID", "STOP_TOL", "POLE_MARGIN", "FIRST_LEVEL"}) \
        == {"moments"}
    assert namers({"POSITIVE_TOL"}) == {"moments"}
    assert assigners({"FACE_SAMPLES", "FACE_MARGIN"}) == {"poly"}
