"""Every public function of the package is called by the package.

A stdlib stand-in for a dead-code lint on functions: a public top-level
function that no package module names outside its own body is API that
the production path never runs. The exact general forms kept as test
references on purpose are listed in ORACLES; every other public function
must be named, as a bare name, somewhere in src/ other than its own def
and the package `__init__.py`, which only re-exports.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"

# exact forms that only the tests call, as references for the production
# path; they move to tests/oracles.py once the prefix-form loss is the
# production loss (ROADMAP item 3)
ORACLES = ("loss_closed_form", "mc_loss_oracle")


def dead_functions(modules, exempt=()):
    """[(module name, function)] for each public top-level function of
    modules that no module other than an `__init__.py` names outside that
    function's own def, unless it is in exempt."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    dead = []
    for path, tree in trees.items():
        for fn in tree.body:
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name.startswith("_") or fn.name in exempt):
                continue
            own = {id(n) for n in ast.walk(fn)}
            used = any(
                isinstance(n, ast.Name) and n.id == fn.name and id(n) not in own
                for other, t in trees.items() if other.name != "__init__.py"
                for n in ast.walk(t)
            )
            if not used:
                dead.append((path.stem, fn.name))
    return dead


def test_no_dead_functions():
    assert dead_functions(sorted(PACKAGE.glob("*.py")), ORACLES) == []


def test_every_oracle_is_a_package_function_nothing_calls():
    # an oracle that production starts to call, or that is deleted, leaves the list
    modules = sorted(PACKAGE.glob("*.py"))
    assert sorted(name for _, name in dead_functions(modules)) == sorted(ORACLES)


def test_detects_a_dead_function(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import exported_only\n\n__all__ = [exported_only]\n")
    mod = tmp_path / "mod.py"
    mod.write_text("def called(x):\n    return x\n\n"
                   "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
                   "def exported_only():\n    pass\n\n"
                   "def _private():\n    pass\n\n"
                   "def oracle():\n    pass\n\n"
                   "class K:\n    def method(self):\n        return called(1)\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import called\n\n"
                    "def main():\n    return called\n")
    modules = [init, mod, user]
    assert dead_functions(modules, ("oracle",)) == [
        ("mod", "recursive"), ("mod", "exported_only"), ("user", "main")]
    assert dead_functions([init, mod], ("oracle",)) == [
        ("mod", "recursive"), ("mod", "exported_only")]
