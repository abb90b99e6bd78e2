"""The package runs on numpy and the standard library alone: scipy is a
test dependency, used as an oracle, never imported by the program. What
a run does not use it does not import."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_fresh(code):
    """The stdout of code run by a fresh interpreter on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(prefix):
    """Modules named prefix or below it after a fresh interpreter
    imports the package and its CLI."""
    return run_fresh("import sys, survey_impute, survey_impute.cli; "
                     f"print(sorted(m for m in sys.modules if m == {prefix!r} "
                     f"or m.startswith({prefix + '.'!r})))").strip()


def test_package_and_cli_import_no_scipy():
    assert loaded_modules("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # only simulate --threads > 1 starts a pool, and it imports one then
    assert loaded_modules("concurrent.futures.process") == "[]"


def test_cli_import_loads_no_thread_pool():
    # only a study run draws replications on a helper thread, and it imports
    # the thread pool then
    assert loaded_modules("concurrent.futures.thread") == "[]"


def test_estimate_loads_numpy_random_only_for_cv(tmp_path):
    # only a cvK criterion draws from estimate's generator; that the
    # stdout is unchanged tests/test_golden.py checks on both criteria
    data = tmp_path / "sample.csv"
    rows = ["unit_id,x1,x2,y,pi"]
    for k in range(10):
        y = "" if k in (3, 7) else repr(1.0 + 2.0 * k - (k * k) % 7 + 0.1 * ((3 * k) % 5 - 2))
        rows.append(f"{k},{k},{(k * k) % 7},{y},0.2")
    data.write_text("\n".join(rows) + "\n")
    outputs = {}
    for criterion in ("bic", "cv5"):
        config = tmp_path / f"{criterion}.json"
        config.write_text(json.dumps({"criterion": criterion,
                                      "design": {"kind": "srswor", "N": 50}}))
        out = run_fresh("import sys; from survey_impute.cli import main; "
                        f"code = main(['estimate', '--data', {str(data)!r}, "
                        f"'--config', {str(config)!r}]); "
                        "print(code, 'numpy.random' in sys.modules)")
        outputs[criterion] = out.splitlines()[-1]
    assert outputs == {"bic": "0 False", "cv5": "0 True"}
