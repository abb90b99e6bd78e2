"""Every parameter of every package function is read in its body.

A stdlib stand-in for a linter's unused-argument rule: a parameter no
body reads is an input that callers must still supply and that changes
nothing.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"


def dead_parameters(path):
    """[(line, function, parameter)] for each parameter of a function or
    lambda in the module that its body never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        dead += [(fn.lineno, name, p) for p in params if p not in read]
    return dead


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_parameters(path):
    assert dead_parameters(path) == []


def test_detects_a_dead_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b, *args, c=1, **kw):\n    b = a\n    return kw\n\n"
                   "g = lambda x, y: x\n\n"
                   "def h(d):\n    def inner():\n        return d\n    return inner\n")
    assert dead_parameters(mod) == [(1, "f", "b"), (1, "f", "args"), (1, "f", "c"),
                                    (5, "<lambda>", "y")]
