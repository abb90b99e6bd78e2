"""Rewrite the golden files that tests/test_golden.py compares with:

- estimate_bic.json and estimate_cv5.json, the exact stdout of
  `estimate` under each criterion;
- dry_run_simulate_<config>.json, the stdout of `simulate --dry-run` on
  each shipped config in configs/, and dry_run_estimate_<kind>.json, that
  of `estimate --dry-run` on each config of DRY_RUN_ESTIMATES;
- study_<name>_summary.csv, the summary table of each of the four
  studies the acceptance fixtures in tests/conftest.py run, and
  study_<name>_selected.csv, the label each criterion selected in each
  replication (or the error it failed with);
- demo_<name>.txt, the stdout of each script demos/<name>.py and
  tests/evidence/<name>.py, which tests/test_demos.py compares with;
- versions.json, the numpy and Python that wrote them.

    PYTHONPATH=src python tests/golden/regenerate.py

The estimate input is the benchmark's estimate_large sample at seed 1,
made by bench/inputs.py; the studies are the shipped configs with the
fixtures' overrides (STUDIES), at their full replication counts. Run
this only for a change that alters these outputs on purpose, and show
the diff of the files with that change.
"""

import os

# one BLAS thread, as tests/conftest.py pins it, before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np

from survey_impute.cli import main
from survey_impute.config import load_json, parse_study_config
from survey_impute.study import (
    SUMMARY_COLUMNS,
    candidate_labels,
    run_records,
    summarize,
    summary_rows,
)
from survey_impute.variance import Estimate

GOLDEN = pathlib.Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
# the demos, on the public API, and the evidence scripts, which also read
# the test oracles; each writes its golden as demo_<stem>.txt
DEMOS = [*sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("tests/evidence/*.py"))]
CRITERIA = ("bic", "cv5")
SEED = 1

# {config name: overrides}, as the session fixtures of tests/conftest.py
# run them; bic draws nothing from the criterion stream, so a bic-only
# run's bic rows are those of the full run
STUDIES = {
    "srswor_n500": {},
    "srswor_n200": {"criteria": ("bic",)},
    "srswor_n100": {"criteria": ("bic",)},
    "stratified_n500": {},
}

# {design kind: estimate config} whose --dry-run echo is pinned: one with
# every default left out, one that sets every field; the echo reads no data
DRY_RUN_ESTIMATES = {
    "srswor": {"criterion": "cv5", "design": {"kind": "srswor", "N": 200}},
    "stratified": {
        "criterion": "aic",
        "level": 0.9,
        "candidates": [[2, 1], [1, 3]],
        "master_seed": 7,
        "design": {"kind": "stratified", "strata": [
            {"N": 40, "sampled_units": [5, 0, 2]},
            {"N": 60, "sampled_units": [10, 11]},
        ]},
    },
}


def stdout_of(argv):
    """The stdout of main(argv), which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


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
        stdouts[criterion] = stdout_of(["estimate", "--data", str(data), "--config", str(config)])
    return stdouts


def dry_run_stdouts(workdir):
    """{golden file: stdout} of `simulate --dry-run` on each shipped
    config and of `estimate --dry-run` on each of DRY_RUN_ESTIMATES,
    whose config files are written into workdir."""
    argvs = {f"dry_run_simulate_{config.stem}.json": ["simulate", "--config", str(config)]
             for config in sorted((ROOT / "configs").glob("*.json"))}
    for kind, raw in DRY_RUN_ESTIMATES.items():
        config = workdir / f"dry_run_{kind}.json"
        config.write_text(json.dumps(raw))
        argvs[f"dry_run_estimate_{kind}.json"] = [
            "estimate", "--data", "unread.csv", "--config", str(config)]
    return {file: stdout_of([*argv, "--dry-run"]) for file, argv in argvs.items()}


def study_config(name):
    cfg = parse_study_config(load_json(ROOT / "configs" / f"{name}.json"))
    return dataclasses.replace(cfg, **STUDIES[name])


def csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def study_texts(cfg, summary, records):
    """(summary, selected) text of one study: summary_rows under the
    SUMMARY_COLUMNS header, and per replication the label each criterion
    selected, or the class name of the error it failed with."""
    labels = candidate_labels(cfg)
    selected = [[r.rep_id, *(labels[e.model] if isinstance(e, Estimate) else e
                             for e in r.criteria)] for r in records]
    return (csv_text([SUMMARY_COLUMNS, *summary_rows(summary)]),
            csv_text([("rep_id", *cfg.criteria), *selected]))


def run_script(argv):
    """The finished subprocess of `python argv` against the package in
    src/, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )


def demo_stdout(demo):
    """The stdout of one demo script, which must exit 0."""
    proc = run_script([str(demo)])
    if proc.returncode != 0:
        raise RuntimeError(f"{demo.name} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def regenerate():
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        stdouts = estimate_stdouts(pathlib.Path(tmp))
        files.update(dry_run_stdouts(pathlib.Path(tmp)))
    for criterion, text in stdouts.items():
        files[f"estimate_{criterion}.json"] = text
    for name in STUDIES:
        cfg = study_config(name)
        records = run_records(cfg)
        summary_text, selected_text = study_texts(cfg, summarize(cfg, records), records)
        files[f"study_{name}_summary.csv"] = summary_text
        files[f"study_{name}_selected.csv"] = selected_text
    for demo in DEMOS:
        files[f"demo_{demo.stem}.txt"] = demo_stdout(demo)
    for file, text in files.items():
        (GOLDEN / file).write_text(text)
    versions = {"numpy": np.__version__, "python": platform.python_version(),
                "files": sorted(files)}
    (GOLDEN / "versions.json").write_text(json.dumps(versions, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
