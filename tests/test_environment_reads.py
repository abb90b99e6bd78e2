"""The package reads no setting from the environment.

A run depends only on its config and flags. The one exception is
`__init__.py`, which pins BLAS to one thread, for identical arithmetic
at any worker count, with `os.environ.setdefault` on the two BLAS
variables; no module reads the environment back.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survey_impute"
ENVIRONMENT = {"environ", "getenv"}
BLAS_THREADS = {"OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}


def environment_uses(path):
    """[line] of each `os.environ` or `os.getenv` in the module, or import
    of either from os, other than, in an `__init__.py`, a call
    `os.environ.setdefault` on one of BLAS_THREADS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    pinned = set()
    if path.name == "__init__.py":
        pinned = {id(n.func.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "setdefault" and n.args
                  and isinstance(n.args[0], ast.Constant) and n.args[0].value in BLAS_THREADS}
    uses = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and n.attr in ENVIRONMENT
                and isinstance(n.value, ast.Name) and n.value.id == "os"
                and id(n) not in pinned):
            uses.append(n.lineno)
        elif (isinstance(n, ast.ImportFrom) and n.module == "os"
                and any(a.name in ENVIRONMENT for a in n.names)):
            uses.append(n.lineno)
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_uses(path) == []


def test_detects_an_environment_read(tmp_path):
    source = ("import os\nfrom os import getenv\n\n"
              "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
              "os.environ.setdefault('MKL_NUM_THREADS', '1')\n"
              "os.environ.setdefault('OMP_NUM_THREADS', '1')\n"
              "seed = os.environ.get('SEED')\n"
              "level = os.getenv('LEVEL')\n"
              "path = os.path.join('a', 'b')\n")
    init, module = tmp_path / "__init__.py", tmp_path / "module.py"
    init.write_text(source)
    module.write_text(source)
    assert environment_uses(init) == [2, 6, 7, 8]
    assert environment_uses(module) == [2, 4, 5, 6, 7, 8]
