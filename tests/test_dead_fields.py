"""Every field of every package dataclass is read somewhere.

A stdlib stand-in for a dead-field lint: a field that no package, test,
demo or benchmark module reads as an attribute is a number the program
computes and stores for nobody. The check goes by attribute name alone,
so a field passes when any object's attribute of that name is read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "survey_impute"
READERS = [*sorted(ROOT.glob("src/**/*.py")), *sorted(ROOT.glob("tests/*.py")),
           *sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("bench/*.py"))]


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def dead_fields(modules, readers):
    """[(module, class, field)] for each field of a dataclass in modules
    that no module in readers reads as an attribute."""
    read = set()
    for path in readers:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    dead = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            dead += [(path.name, cls.name, stmt.target.id) for stmt in cls.body
                     if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                     and stmt.target.id not in read]
    return dead


def test_no_dead_fields():
    assert dead_fields(sorted(PACKAGE.glob("*.py")), READERS) == []


def test_detects_a_dead_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import dataclasses\nfrom dataclasses import dataclass\n\n"
                   "@dataclass(frozen=True)\nclass A:\n    used: int\n    unused: float = 0.0\n\n"
                   "@dataclasses.dataclass\nclass B:\n    never: str\n\n"
                   "class Plain:\n    skipped: int\n\n"
                   "def f(a):\n    a.unused = 1\n    return a.used\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import B\nB.never\n")
    assert dead_fields([mod], [mod]) == [("mod.py", "A", "unused"), ("mod.py", "B", "never")]
    assert dead_fields([mod], [mod, user]) == [("mod.py", "A", "unused")]
