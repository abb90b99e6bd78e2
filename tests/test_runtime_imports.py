"""The package runs on numpy and the standard library alone: scipy is a
test dependency, used as an oracle, never imported by the program."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def loaded_modules(prefix):
    """Modules named prefix or below it after a fresh interpreter
    imports the package and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys, survey_impute, survey_impute.cli; "
            f"print(sorted(m for m in sys.modules if m == {prefix!r} "
            f"or m.startswith({prefix + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_and_cli_import_no_scipy():
    assert loaded_modules("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # only simulate --threads > 1 starts a pool, and it imports one then
    assert loaded_modules("concurrent.futures.process") == "[]"
