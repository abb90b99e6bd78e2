"""Every name a package, test or demo module imports is read somewhere in
that module.

A stdlib stand-in for a linter's unused-import rule. A package
`__init__.py` re-exports what it imports from its own submodules, so
those names count as used there.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "survey_impute"
MODULES = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
           *sorted(ROOT.glob("demos/*.py"))]


def unused_imports(path):
    """[(line, name)] for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not (reexports and node.level):
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n"
                   "    x: int = 0\n")
    assert unused_imports(mod) == [(1, "os"), (2, "field")]
