"""Every exception class the package declares is raised somewhere in it.

A stdlib stand-in for a dead-code lint on error types: an exception
class that no package module raises is a contract that callers may
still catch and that never fires. The base SurveyImputeError is exempt;
it exists to be caught, not raised.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"
BASE = "SurveyImputeError"


def dead_error_classes(errors_module, modules):
    """[class] for each class of errors_module, other than BASE, that no
    module in modules raises as `raise Name(...)`."""
    tree = ast.parse(errors_module.read_text(), filename=str(errors_module))
    declared = [n.name for n in tree.body if isinstance(n, ast.ClassDef) and n.name != BASE]
    raised = set()
    for path in modules:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                    and isinstance(n.exc.func, ast.Name)):
                raised.add(n.exc.func.id)
    return [c for c in declared if c not in raised]


def test_no_dead_error_classes():
    assert dead_error_classes(PACKAGE / "errors.py", sorted(PACKAGE.glob("*.py"))) == []


def test_detects_a_dead_error_class(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class SurveyImputeError(Exception):\n    pass\n\n"
                      "class Raised(SurveyImputeError):\n    pass\n\n"
                      "class OnlyCaught(SurveyImputeError):\n    pass\n\n"
                      "class Unraised(SurveyImputeError):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from errors import OnlyCaught, Raised, Unraised\n\n"
                    "def f(x):\n    try:\n        g(x)\n    except OnlyCaught:\n        pass\n"
                    "    if isinstance(x, Unraised):\n        raise ValueError(x)\n"
                    "    raise Raised('no')\n")
    assert dead_error_classes(errors, [errors]) == ["Raised", "OnlyCaught", "Unraised"]
    assert dead_error_classes(errors, [errors, user]) == ["OnlyCaught", "Unraised"]
