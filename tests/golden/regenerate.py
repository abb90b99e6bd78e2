"""Rewrite the golden files that tests/test_golden.py compares with:
estimate_bic.json and estimate_cv5.json, the exact stdout of `estimate`
under each criterion, and versions.json, the numpy and Python that
wrote them.

    PYTHONPATH=src python tests/golden/regenerate.py

The input is the benchmark's estimate_large sample at seed 1, made by
bench/inputs.py. Run this only for a change that alters estimate's
output on purpose, and show the diff of the files with that change.
"""

import os

# one BLAS thread, as tests/conftest.py pins it, before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import contextlib
import importlib.util
import io
import json
import pathlib
import platform
import tempfile

import numpy as np

from survey_impute.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
CRITERIA = ("bic", "cv5")
SEED = 1


def estimate_stdouts(workdir):
    """{criterion: estimate's stdout} on the estimate_large input at SEED,
    written into workdir."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data, config = workdir / "sample.csv", workdir / "est.json"
    inputs.write_estimate_inputs(inputs.make_estimate_sample(str(ROOT), SEED), data, config)
    raw = json.loads(config.read_text())
    stdouts = {}
    for criterion in CRITERIA:
        config.write_text(json.dumps(dict(raw, criterion=criterion)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["estimate", "--data", str(data), "--config", str(config)])
        if code != 0:
            raise RuntimeError(f"estimate under {criterion} exited {code}")
        stdouts[criterion] = out.getvalue()
    return stdouts


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        stdouts = estimate_stdouts(pathlib.Path(tmp))
    for criterion, text in stdouts.items():
        (GOLDEN / f"estimate_{criterion}.json").write_text(text)
    versions = {"numpy": np.__version__, "python": platform.python_version()}
    (GOLDEN / "versions.json").write_text(json.dumps(versions, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
