"""`estimate` stdout on the benchmark's estimate_large input (seed 1),
under bic and cv5, against the files tests/golden/regenerate.py wrote.

An exact match passes. Otherwise the test prints the diff and passes
only if the same model is selected and every other number is within
1e-10 relative, which is what keeps it meaningful on another numpy or
BLAS than the one in tests/golden/versions.json. The test never writes
the files.
"""

import difflib
import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RTOL = 1e-10


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


@pytest.mark.parametrize("criterion", ["bic", "cv5"])
def test_estimate_matches_golden(stdouts, criterion):
    got, want = stdouts[criterion], (GOLDEN / f"estimate_{criterion}.json").read_text()
    if got == want:
        return
    versions = (GOLDEN / "versions.json").read_text()
    print(f"estimate_{criterion}.json differs; written with {versions}")
    print("".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                       "golden", "now")))
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
