"""Shared fixtures: the four Monte Carlo studies used by the acceptance
suite, run once per session, plus the acceptance PASS/FAIL report hook.

BLAS threading is pinned before numpy loads so timings and results are
stable regardless of the host's core count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import dataclasses
import pathlib

import pytest

from survey_impute.config import load_json, parse_study_config
from survey_impute.study import run_records, summarize

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# collected by the acceptance tests, printed at the end of the run
ACCEPTANCE_LINES = {}


def load_config(name, **overrides):
    cfg = parse_study_config(load_json(CONFIG_DIR / f"{name}.json"))
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# each study fixture returns (cfg, summary, records); the records feed
# the studentized-error test and the golden selections

@pytest.fixture(scope="session")
def study_srswor_n500():
    """Main SRSWOR study, all criteria."""
    cfg = load_config("srswor_n500")
    records = run_records(cfg)
    return cfg, summarize(cfg, records), records


@pytest.fixture(scope="session")
def study_srswor_n200():
    # aic/cv dropped: bic draws nothing from the criterion stream, so
    # its rows are identical to the full run's
    cfg = load_config("srswor_n200", criteria=("bic",))
    records = run_records(cfg)
    return cfg, summarize(cfg, records), records


@pytest.fixture(scope="session")
def study_srswor_n100():
    cfg = load_config("srswor_n100", criteria=("bic",))
    records = run_records(cfg)
    return cfg, summarize(cfg, records), records


@pytest.fixture(scope="session")
def study_stratified_n500():
    cfg = load_config("stratified_n500")
    records = run_records(cfg)
    return cfg, summarize(cfg, records), records


@pytest.fixture
def acceptance():
    """Recorder for one acceptance criterion: call with (number, ok,
    detail); the line is printed in the terminal summary and the test
    then asserts ok."""

    def record(num, ok, detail):
        ACCEPTANCE_LINES[num] = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
        assert ok, f"criterion {num}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])
