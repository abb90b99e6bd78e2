"""Every script under demos/ and tests/evidence/ and every fenced Python
block of README.md runs to completion against the package in src/; each
script prints exactly the stdout that tests/golden/regenerate.py
recorded for it; and the demos import the package through its public API
only. The evidence scripts may also read the test oracles, which the
package does not ship."""

import ast
import pathlib
import re

import pytest
from test_golden import GOLDEN, load_regenerate, print_diff

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = load_regenerate().DEMOS
PUBLIC_DEMOS = [d for d in DEMOS if d.parent == ROOT / "demos"]
PACKAGE_INIT = ROOT / "src" / "survey_impute" / "__init__.py"
TEST_MODULES = ("oracles", "conftest", "tests")
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


@pytest.mark.parametrize(
    "argv",
    [[str(d)] for d in DEMOS] + [["-c", block] for block in README_BLOCKS],
    ids=[d.name for d in DEMOS] + [f"README.md-block{i}" for i in range(len(README_BLOCKS))],
)
def test_demo_runs(argv):
    proc = load_regenerate().run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if argv[0] == "-c":
        return
    file = f"demo_{pathlib.Path(argv[0]).stem}.txt"
    want = (GOLDEN / file).read_text()
    if proc.stdout != want:
        print_diff(file, proc.stdout, want)
    assert proc.stdout == want


def test_demos_are_found():
    assert PUBLIC_DEMOS and len(PUBLIC_DEMOS) < len(DEMOS)
    assert README_BLOCKS


def exported_names(init):
    """The names a package `__init__.py` binds at top level: those it
    imports from its own submodules and those it assigns."""
    names = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def private_imports(path, exported):
    """[(line, module, name)] for each import of a demo that reaches past
    the public API: any import of the package other than
    `from survey_impute import <exported name>`, and any import of the
    test code."""
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            bad += [(node.lineno, a.name, None) for a in node.names
                    if a.name.split(".")[0] in ("survey_impute", *TEST_MODULES)]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            top = module.split(".")[0]
            if node.level or top in TEST_MODULES or (top == "survey_impute" and "." in module):
                bad += [(node.lineno, "." * node.level + module, a.name) for a in node.names]
            elif module == "survey_impute":
                bad += [(node.lineno, module, a.name) for a in node.names
                        if a.name not in exported]
    return bad


@pytest.mark.parametrize("demo", PUBLIC_DEMOS, ids=[d.name for d in PUBLIC_DEMOS])
def test_demo_uses_the_public_api_only(demo):
    assert private_imports(demo, exported_names(PACKAGE_INIT)) == []


def test_detects_an_import_past_the_public_api(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text("import numpy as np\n"
                    "from survey_impute import select, run_records\n"
                    "from survey_impute.selection import _cv_scores\n"
                    "import survey_impute.design\n"
                    "from survey_impute import _fold_sizes\n"
                    "from oracles import make_folds\n"
                    "import tests.conftest\n")
    assert private_imports(demo, exported_names(PACKAGE_INIT)) == [
        (3, "survey_impute.selection", "_cv_scores"),
        (4, "survey_impute.design", None),
        (5, "survey_impute", "_fold_sizes"),
        (6, "oracles", "make_folds"),
        (7, "tests.conftest", None),
    ]
