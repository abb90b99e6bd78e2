"""Each package module imports only the package modules its layer allows.

A stdlib stand-in for an import-layering lint: ALLOWED lists, for every
module of the package, the package modules it may import, at the top of
the file or inside a function. Any other package import, or a module
missing from the table, fails. The numeric core (estimators, selection,
variance) sits below the drivers (study, cli): selection and variance
read the fits and raise the package errors, and know nothing of each
other; study and cli chain them.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"
NAME = PACKAGE.name

ALLOWED = {
    "__init__": {"config", "design", "errors", "estimators", "loss", "population",
                 "selection", "study", "variance"},
    "__main__": {"cli"},
    "cli": {"config", "design", "errors", "estimators", "selection", "study", "variance"},
    "config": {"design", "errors", "population", "selection"},
    "design": {"errors"},
    "errors": set(),
    "estimators": set(),
    "loss": {"estimators"},
    "population": {"errors"},
    "selection": {"errors", "estimators"},
    "study": {"design", "errors", "estimators", "population", "selection", "variance"},
    "variance": {"errors", "estimators"},
}


def package_imports(path, package=NAME):
    """The package modules that the module at path imports, by name:
    relative imports (`from .x import y`, `from . import x`) and absolute
    ones (`import package.x`, `from package.x import y`)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = ([f"{package}.{node.module}"] if node.module
                     else [f"{package}.{a.name}" for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith(package + "."))
    return found


def layering_violations(modules, allowed, package=NAME):
    """[(module, imported)] for each package import that allowed does not
    list, and (module, None) for a module that allowed has no row for."""
    bad = []
    for path in modules:
        if path.stem not in allowed:
            bad.append((path.stem, None))
            continue
        bad.extend((path.stem, dep) for dep in sorted(package_imports(path, package))
                   if dep not in allowed[path.stem])
    return bad


def test_package_modules_keep_their_layers():
    assert layering_violations(sorted(PACKAGE.glob("*.py")), ALLOWED) == []


def test_table_names_only_package_modules():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(ALLOWED) == modules
    assert set().union(*ALLOWED.values()) <= modules


def test_detects_a_forbidden_import(tmp_path):
    (tmp_path / "low.py").write_text("from .base import thing\nimport numpy as np\n")
    (tmp_path / "high.py").write_text(
        "import os\nfrom . import low\n\n"
        "def late():\n    from pkg.base import other\n    import pkg.low\n")
    (tmp_path / "extra.py").write_text("")
    (tmp_path / "base.py").write_text("from .low import thing\n")
    allowed = {"low": {"base"}, "high": {"low"}, "base": set()}
    modules = sorted(tmp_path.glob("*.py"))
    assert layering_violations(modules, allowed, "pkg") == [
        ("base", "low"), ("extra", None), ("high", "base")]
