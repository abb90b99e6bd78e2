"""Outputs against the files tests/golden/regenerate.py wrote.

- `estimate` stdout on the benchmark's estimate_large input (seed 1),
  under bic and cv5. An exact match passes. Otherwise the test prints
  the diff and passes only if the same model is selected and every
  other number is within 1e-10 relative.
- The summary table of each of the four acceptance studies (the session
  fixtures of tests/conftest.py, so no study runs twice), and the label
  each criterion selected in each replication. The selections must match
  exactly. An exact summary passes. Otherwise the test prints the diff
  and passes only if every name, selection frequency and failure share
  is identical and every other cell is within 1e-10 relative; RB cells
  also pass within 1e-10 percentage points, since a 16th-digit change
  of mu_hat moves an RB near 1e-6 by about 1e-9 relative.

The tolerances are what keep the tests meaningful on another numpy or
BLAS than the one in tests/golden/versions.json. The tests never write
the files.
"""

import csv
import difflib
import functools
import importlib.util
import io
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RTOL = 1e-10
RB_FLOOR = 1e-10  # percentage points
EXACT_COLUMNS = ("scope", "name", "freqW", "freqTrue", "freqOverfit", "failures")
STUDIES = ("srswor_n500", "srswor_n200", "srswor_n100", "stratified_n500")


@functools.cache
def load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def stdouts(tmp_path_factory):
    return load_regenerate().estimate_stdouts(tmp_path_factory.mktemp("golden"))


def leaves(obj, path=()):
    """{path: value} for every number, string or bool in a JSON value."""
    if isinstance(obj, dict):
        return {k: v for key, val in obj.items() for k, v in leaves(val, (*path, key)).items()}
    if isinstance(obj, list):
        return {k: v for i, val in enumerate(obj) for k, v in leaves(val, (*path, i)).items()}
    return {path: obj}


def differences(got, want):
    """Why the estimate stdout got is not within tolerance of want; [] if it is."""
    got, want = json.loads(got), json.loads(want)
    if got["selected"] != want["selected"]:
        return [f"selected {got['selected']} != {want['selected']}"]
    got, want = leaves(got), leaves(want)
    if got.keys() != want.keys():
        return [f"keys {sorted(map(str, got.keys() ^ want.keys()))} differ"]
    return [
        f"{'.'.join(map(str, key))}: {got[key]!r} != {want[key]!r}"
        for key in want
        if not (got[key] == want[key] or (
            isinstance(want[key], float) and abs(got[key] - want[key]) <= RTOL * abs(want[key])))
    ]


def print_diff(file, got, want):
    versions = (GOLDEN / "versions.json").read_text()
    print(f"{file} differs; written with {versions}")
    print("".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                       "golden", "now")))


@pytest.mark.parametrize("criterion", ["bic", "cv5"])
def test_estimate_matches_golden(stdouts, criterion):
    got, want = stdouts[criterion], (GOLDEN / f"estimate_{criterion}.json").read_text()
    if got == want:
        return
    print_diff(f"estimate_{criterion}.json", got, want)
    assert differences(got, want) == []


def test_tolerance_passes_rounding_and_fails_a_model_or_a_digit():
    want = (GOLDEN / "estimate_bic.json").read_text()
    parsed = json.loads(want)
    parsed["mu_hat"] *= 1 + 1e-12
    assert differences(json.dumps(parsed), want) == []
    parsed["v1"] *= 1 + 1e-8
    assert differences(json.dumps(parsed), want) == [f"v1: {parsed['v1']!r} != "
                                                      f"{json.loads(want)['v1']!r}"]
    parsed["selected"]["included"].pop()
    assert differences(json.dumps(parsed), want)[0].startswith("selected")


def cell_differences(got, want):
    """Why the summary text got is not within tolerance of want; [] if it is."""
    got, want = list(csv.reader(io.StringIO(got))), list(csv.reader(io.StringIO(want)))
    if [len(row) for row in got] != [len(row) for row in want] or got[0] != want[0]:
        return ["the tables differ in shape or header"]
    out = []
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if g == w:
                continue
            if column not in EXACT_COLUMNS and g and w:
                floor = RB_FLOOR if column == "RB" else 0.0
                if abs(float(g) - float(w)) <= max(RTOL * abs(float(w)), floor):
                    continue
            out.append(f"{want_row[0]} {want_row[1]} {column}: {g!r} != {w!r}")
    return out


@pytest.mark.parametrize("name", STUDIES)
def test_study_matches_golden(request, name):
    cfg, summary, records = request.getfixturevalue(f"study_{name}")
    regenerate = load_regenerate()
    assert cfg == regenerate.study_config(name)
    summary_text, selected_text = regenerate.study_texts(cfg, summary, records)
    want = (GOLDEN / f"study_{name}_selected.csv").read_text()
    if selected_text != want:
        print_diff(f"study_{name}_selected.csv", selected_text, want)
    assert selected_text == want
    want = (GOLDEN / f"study_{name}_summary.csv").read_text()
    if summary_text == want:
        return
    print_diff(f"study_{name}_summary.csv", summary_text, want)
    assert cell_differences(summary_text, want) == []


def test_study_tolerance_passes_rounding_and_fails_a_frequency_or_a_digit():
    want = (GOLDEN / "study_srswor_n500_summary.csv").read_text()
    rows = list(csv.reader(io.StringIO(want)))
    by_name = {row[1]: row for row in rows[1:]}

    def edited(name, column, change):
        """want with one cell moved by change; -> (text, new cell)"""
        row, j = by_name[name], rows[0].index(column)
        old = row[j]
        row[j] = new = repr(change(float(old)))
        text = load_regenerate().csv_text(rows)
        row[j] = old
        return text, new

    assert cell_differences(edited("alpha1", "RE", lambda v: v * (1 + 1e-12))[0], want) == []
    # alpha20's RB is -3.5e-6: 1e-14 is 3e-9 relative, inside the floor
    assert cell_differences(edited("alpha20", "RB", lambda v: v + 1e-14)[0], want) == []
    assert cell_differences(edited("aic", "RB", lambda v: v + 1e-9)[0], want) != []
    text, new = edited("alpha1", "RE", lambda v: v * (1 + 1e-8))
    assert cell_differences(text, want) == [f"model alpha1 RE: {new!r} != '2053.503036'"]
    text, new = edited("bic", "freqTrue", lambda v: v + 1e-12)
    assert cell_differences(text, want) == [f"criterion bic freqTrue: {new!r} != '97.65'"]
