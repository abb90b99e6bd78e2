"""Every public function and class of the package is used by the package.

A stdlib stand-in for a dead-code lint: a public top-level function or
class that no package module names outside its own body is API that the
production path never runs. Each must be named, as a bare name,
somewhere in src/ other than its own definition and the package
`__init__.py`, which only re-exports. The exact general forms that the
tests check the production path against live in tests/oracles.py, not in
the package, so no name here is exempt.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dead_definitions(modules):
    """[(module name, name)] for each public top-level function or class
    of modules that no module other than an `__init__.py` names outside
    that definition's own body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            used = any(
                isinstance(n, ast.Name) and n.id == node.name and id(n) not in own
                for other, t in trees.items() if other.name != "__init__.py"
                for n in ast.walk(t)
            )
            if not used:
                dead.append((path.stem, node.name))
    return dead


def test_no_dead_functions():
    assert dead_definitions(sorted(PACKAGE.glob("*.py"))) == []


def test_detects_a_dead_function(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import exported_only\n\n__all__ = [exported_only]\n")
    mod = tmp_path / "mod.py"
    mod.write_text("def called(x):\n    return x\n\n"
                   "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
                   "def exported_only():\n    pass\n\n"
                   "def _private():\n    pass\n\n"
                   "class K:\n    def method(self):\n        return called(1)\n\n"
                   "class Built:\n    pass\n\n"
                   "class Dead:\n    def copy(self):\n        return Dead()\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import called, Built\n\n"
                    "def main():\n    return called, Built(), K\n")
    modules = [init, mod, user]
    assert dead_definitions(modules) == [
        ("mod", "recursive"), ("mod", "exported_only"), ("mod", "Dead"), ("user", "main")]
    assert dead_definitions([init, mod]) == [
        ("mod", "recursive"), ("mod", "exported_only"), ("mod", "K"), ("mod", "Built"),
        ("mod", "Dead")]
