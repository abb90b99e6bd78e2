"""End-to-end CLI behavior through main(), plus the data-file reader."""

import contextlib
import copy
import csv
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_rows

from survey_impute import cli
from survey_impute.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE_RATE,
    EXIT_OK,
    _round10,
    build_estimate_design,
    main,
    read_estimate_csv,
)
from survey_impute.config import parse_estimate_config
from survey_impute.design import SampleDraw
from survey_impute.errors import ConfigError
from survey_impute.estimators import build_candidates, fit_candidates, ht_mean, nested_candidates
from survey_impute.selection import select
from survey_impute.variance import estimate_model


def study_json(tmp_path, name="study.json", **tweaks):
    raw = {
        "name": "cli-t",
        "replications": 3,
        "master_seed": 5,
        "criteria": ["bic"],
        "population": {
            "N": 60,
            "p": 2,
            "covariate_law": {"name": "uniform", "low": 0.0, "high": 4.0},
            "beta": [0.0, 2.0, 0.0],
            "sigma": 1.0,
            "response_offset": 1.0,
            "response_scale": 1.0,
            "response_coefs": [0.0, 0.0],
        },
        "design": {"kind": "srswor", "n": 12},
    }
    for key, val in tweaks.items():
        if key in ("population", "design"):
            raw[key].update(val)
        else:
            raw[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def write_sample_csv(path, ids, X, y, pi, missing=(), quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=quoting)
        p = X.shape[1]
        w.writerow(["unit_id"] + [f"x{j}" for j in range(1, p + 1)] + ["y", "pi"])
        for i, uid in enumerate(ids):
            y_field = "" if i in missing else f"{y[i]:.17g}"
            w.writerow([uid] + [f"{v:.17g}" for v in X[i]] + [y_field, f"{pi[i]:.17g}"])


def sample_data(seed=3, n=10, N=50, p=2):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(N, size=n, replace=False))
    X = rng.gamma(5.0, 2.0, size=(n, p))
    y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=n)
    pi = np.full(n, n / N)
    return ids, X, y, pi


class TestSimulate:
    def test_dry_run_echoes_parseable_config(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out"), "--dry-run"])
        assert code == EXIT_OK
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["master_seed"] == 5
        assert echoed["level"] == 0.95
        assert echoed["population"]["response_offset"] == 1.0
        assert not (tmp_path / "out").exists()

    def test_run_writes_summary(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "study cli-t" in stdout
        assert "criterion" in stdout and "bic" in stdout

    def test_reps_out(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        reps = tmp_path / "reps.csv"
        code = main(["simulate", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o"), "--reps-out", str(reps)])
        assert code == EXIT_OK
        with open(reps) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + 3 replications
        capsys.readouterr()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path, design={"n": 61})
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "design.n" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_fewer_than_one_thread_exits_2(self, tmp_path, capsys, threads):
        cfg_path = study_json(tmp_path)
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                     "--threads", threads])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "--threads" in err and err.count("\n") == 1
        assert not (tmp_path / "summary.csv").exists()

    def test_population_beyond_any_address_space_exits_2(self, tmp_path, capsys):
        # N x p = 2**59 float64 covariates is 4 EiB, more than any 64-bit
        # user address space, so the allocation fails at once
        cfg_path = study_json(tmp_path, replications=1, population={"N": 2**58})
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_env_seed_equivalence(self, tmp_path, capsys, monkeypatch):
        explicit = study_json(tmp_path, name="a.json", master_seed=123)
        out_a = tmp_path / "a"
        assert main(["simulate", "--config", str(explicit), "--out-dir", str(out_a)]) == EXIT_OK

        base = study_json(tmp_path, name="b.json", master_seed=5)
        out_b = tmp_path / "b"
        monkeypatch.setenv("SURVEY_IMPUTE_SEED", "123")
        assert main(["simulate", "--config", str(base), "--out-dir", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_invalid_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg_path = study_json(tmp_path)
        monkeypatch.setenv("SURVEY_IMPUTE_SEED", "ten")
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "SURVEY_IMPUTE_SEED" in capsys.readouterr().err

    def test_failure_rate_threshold_exits_3(self, tmp_path, capsys):
        cfg_path = study_json(
            tmp_path,
            replications=40,
            master_seed=7,
            failure_threshold=0.0,
            population={
                "N": 12, "p": 3,
                "beta": [0.0, 2.0, 0.0, 0.0],
                "response_offset": 0.0, "response_scale": 0.0,
                "response_coefs": [0.0, 0.0, 0.0],
            },
            design={"n": 4},
        )
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_FAILURE_RATE
        captured = capsys.readouterr()
        assert "failure rate" in captured.err
        # the summary is still written for inspection
        assert (tmp_path / "o" / "summary.csv").exists()


def tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestOutputPaths:
    """An output path that cannot be used, or a --threads below 1, exits 2
    with one stderr line before any work, and creates no file or directory."""

    def refused(self, tmp_path, capsys, argv, flag):
        before = tree(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert flag in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert tree(tmp_path) == before

    def test_simulate_out_dir_is_a_file(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        (tmp_path / "taken").write_text("")
        self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                        "--out-dir", str(tmp_path / "taken")], "--out-dir")

    def test_simulate_out_dir_below_a_file(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        (tmp_path / "taken").write_text("")
        self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                        "--out-dir", str(tmp_path / "taken" / "o")], "--out-dir")

    @pytest.mark.parametrize("reps", ["missing/reps.csv", "existing_dir"])
    def test_simulate_reps_out_unwritable(self, tmp_path, capsys, reps):
        cfg_path = study_json(tmp_path)
        (tmp_path / "existing_dir").mkdir()
        with mock.patch.object(cli, "run_study") as run_study:
            self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                            "--out-dir", str(tmp_path / "o"),
                                            "--reps-out", str(tmp_path / reps)], "--reps-out")
        run_study.assert_not_called()

    def test_simulate_refused_threads_leave_no_out_dir(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                        "--out-dir", str(tmp_path / "thr" / "out"),
                                        "--threads", "0"], "--threads")

    def test_estimate_out_dir_is_a_file(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        write_sample_csv(tmp_path / "d.csv", ids, X, y, pi, missing={2})
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        (tmp_path / "taken").write_text("")
        self.refused(tmp_path, capsys, ["estimate", "--data", str(tmp_path / "d.csv"),
                                        "--config", str(cfg),
                                        "--out-dir", str(tmp_path / "taken")], "--out-dir")

    def test_simulate_summary_csv_is_a_directory(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        (tmp_path / "o" / "summary.csv").mkdir(parents=True)
        with mock.patch.object(cli, "run_study") as run_study:
            self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                            "--out-dir", str(tmp_path / "o")], "--out-dir")
        run_study.assert_not_called()

    def test_estimate_json_is_a_directory(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        write_sample_csv(tmp_path / "d.csv", ids, X, y, pi, missing={2})
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        (tmp_path / "o" / "estimate.json").mkdir(parents=True)
        self.refused(tmp_path, capsys, ["estimate", "--data", str(tmp_path / "d.csv"),
                                        "--config", str(cfg),
                                        "--out-dir", str(tmp_path / "o")], "--out-dir")

    @pytest.mark.parametrize("out", ["existing", "new"])
    def test_simulate_reps_out_is_the_summary_csv(self, tmp_path, capsys, out):
        cfg_path = study_json(tmp_path)
        (tmp_path / "existing").mkdir()
        reps = tmp_path / out / "." / "summary.csv"
        with mock.patch.object(cli, "run_study") as run_study:
            self.refused(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                            "--out-dir", str(tmp_path / out),
                                            "--reps-out", str(reps)], "--reps-out")
        run_study.assert_not_called()

    def refused_untouched(self, tmp_path, capsys, argv, flag):
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with mock.patch.object(cli, "run_study") as run_study, \
                mock.patch.object(cli, "read_estimate_csv") as read_data:
            self.refused(tmp_path, capsys, argv, flag)
        run_study.assert_not_called()
        read_data.assert_not_called()
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("how", ["same", "dotted", "symlink"])
    def test_simulate_reps_out_is_the_config(self, tmp_path, capsys, how):
        cfg_path = study_json(tmp_path)
        reps = {"same": cfg_path, "dotted": tmp_path / "." / cfg_path.name,
                "symlink": tmp_path / "link.csv"}[how]
        if how == "symlink":
            reps.symlink_to(cfg_path)
        self.refused_untouched(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                                  "--out-dir", str(tmp_path / "o"),
                                                  "--reps-out", str(reps)], "--reps-out")

    def test_simulate_summary_csv_is_the_config(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path, name="summary.csv")
        self.refused_untouched(tmp_path, capsys, ["simulate", "--config", str(cfg_path),
                                                  "--out-dir", str(tmp_path)], "--out-dir")

    @pytest.mark.parametrize("clash", ["--config", "--data"])
    def test_estimate_json_is_an_input(self, tmp_path, capsys, clash):
        ids, X, y, pi = sample_data()
        d = tmp_path / "d"
        d.mkdir()
        data = d / ("estimate.json" if clash == "--data" else "d.csv")
        cfg = d / ("estimate.json" if clash == "--config" else "est.json")
        write_sample_csv(data, ids, X, y, pi, missing={2})
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        self.refused_untouched(tmp_path, capsys, ["estimate", "--data", str(data),
                                                  "--config", str(cfg),
                                                  "--out-dir", str(d)], "--out-dir")

    def test_reps_out_may_go_into_the_new_out_dir(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        out = tmp_path / "a" / "b"
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out),
                     "--reps-out", str(out / "reps.csv")])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (out / "summary.csv").exists() and (out / "reps.csv").exists()


class TestRefusedWrites:
    """An output path that passes the pre-check but that the OS refuses
    when it is written (here a 300-character name, past any file
    system's name limit) exits 2 with one stderr line, no traceback and
    nothing on stdout."""

    LONG = "x" * 300

    def refused(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith(f"config error at {flag}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_simulate_out_dir_name_too_long(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        self.refused(capsys, ["simulate", "--config", str(cfg_path),
                              "--out-dir", str(tmp_path / self.LONG)], "--out-dir")

    def test_simulate_reps_out_name_too_long(self, tmp_path, capsys):
        cfg_path = study_json(tmp_path)
        self.refused(capsys, ["simulate", "--config", str(cfg_path),
                              "--out-dir", str(tmp_path / "o"),
                              "--reps-out", str(tmp_path / self.LONG)], "--reps-out")
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_estimate_out_dir_name_too_long(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        write_sample_csv(tmp_path / "d.csv", ids, X, y, pi, missing={2})
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        self.refused(capsys, ["estimate", "--data", str(tmp_path / "d.csv"),
                              "--config", str(cfg),
                              "--out-dir", str(tmp_path / self.LONG)], "--out-dir")


class TestReadEstimateCsv:
    def test_round_trip_and_sorting(self, tmp_path):
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data()
        shuffled = np.random.default_rng(0).permutation(len(ids))
        write_sample_csv(path, ids[shuffled], X[shuffled], y[shuffled], pi[shuffled],
                         missing={0, 1})
        got_ids, got_X, got_y, got_pi, resp = read_estimate_csv(path)
        assert np.array_equal(got_ids, ids)
        order = np.argsort(ids[shuffled], kind="stable")
        assert np.allclose(got_X, X[shuffled][order], rtol=1e-12)
        assert resp.sum() == len(ids) - 2
        assert np.all(np.isnan(got_y[~resp]))

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda rows: rows[0].__setitem__(0, "id"), "header"),
            (lambda rows: rows[1].__setitem__(3, "oops"), "line 2"),
            (lambda rows: rows[2].__setitem__(0, rows[1][0]), "unit_id"),
            (lambda rows: rows[1].__setitem__(4, "1.5"), "pi"),
        ],
    )
    def test_malformed_data(self, tmp_path, mutate, field):
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=4)
        write_sample_csv(path, ids, X, y, pi)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        mutate(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ConfigError) as err:
            read_estimate_csv(path)
        assert field in err.value.field

    @pytest.mark.parametrize("col,value", [(1, "nan"), (3, "inf"), (4, "nan")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, col, value):
        # columns: unit_id, x1, x2, y, pi
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=4)
        write_sample_csv(path, ids, X, y, pi)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[2][col] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        code = main(["estimate", "--data", str(path), "--config", str(cfg)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 3" in err and rows[0][col] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("later", [(4, 1, "abc"), (4, 0, None)],
                             ids=["bad-value", "duplicate-id"])
    def test_first_faulty_line_is_named(self, tmp_path, capsys, later):
        # a nan in x1 on line 3 and, on line 5, a bad value or the
        # duplicate of line 2's unit id: line 3 is the one named
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=4)
        write_sample_csv(path, ids, X, y, pi)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[2][1] = "nan"
        row, col, value = later
        rows[row][col] = rows[1][col] if value is None else value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        code = main(["estimate", "--data", str(path), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == "config error at line 3: x1 is not a finite number\n"

    def test_all_missing_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=4)
        write_sample_csv(path, ids, X, y, pi, missing={0, 1, 2, 3})
        with pytest.raises(ConfigError) as err:
            read_estimate_csv(path)
        assert err.value.field == "y"


    @pytest.mark.parametrize("uid", ["99999999999999999999", "-99999999999999999999"])
    def test_unit_id_outside_int64_exits_2(self, tmp_path, capsys, uid):
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=3)
        write_sample_csv(path, ids, X, y, pi)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[1][0] = uid
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        code = main(["estimate", "--data", str(path), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "line 2" in err and uid in err

    @pytest.mark.parametrize("uid", ["3.7", "2.0", "5.", "1e3"])
    def test_non_integer_unit_id_exits_2(self, tmp_path, capsys, uid):
        # a float-looking id is a bad value, never truncated to an integer
        path = tmp_path / "d.csv"
        ids, X, y, pi = sample_data(n=4)
        write_sample_csv(path, ids, X, y, pi)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        rows[2][0] = uid
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        code = main(["estimate", "--data", str(path), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "line 3" in err and "bad value" in err

    def test_unbalanced_quote_in_a_large_file_exits_2(self, tmp_path, capsys):
        # the quoted field runs on past the csv module's field size limit
        ids, X, y, pi = sample_data(n=4)
        path = tmp_path / "d.csv"
        write_sample_csv(path, ids, X, y, pi)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = '"' + lines[1]
        path.write_text("".join(lines) + "".join(lines[2:]) * 5000)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        code = main(["estimate", "--data", str(path), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "line 2" in err


def read_by_row_loop(path):
    """read_estimate_csv with the oracle's csv-module row loop in place
    of the np.loadtxt parse."""
    with mock.patch.object(cli, "_load_columns", read_rows):
        return read_estimate_csv(path)


def read_outcome(read, path):
    """-> ("ok", arrays) or ("error", ConfigError field)."""
    try:
        return "ok", read(path)
    except ConfigError as exc:
        return "error", exc.field


NOT_A_NUMBER = ["abc", "1.2.3", "--1", "1e", "0x10", '"1,5"', "1 5", "1_000"]
FAULTS = ["bad value", "short row", "long row", "# cell", "non-finite x or pi",
          "non-finite y", "duplicate id", "id outside int64", "non-integer id"]


@st.composite
def sample_csv_texts(draw):
    """A small sample CSV in the accepted dialect: quoted cells, blank
    or "" y, spaces and tabs around numbers, CRLF or LF line ends, blank
    lines and ids in any order; with at most one fault. -> (text, fault)."""
    p = draw(st.integers(1, 3), label="p")
    n = draw(st.integers(1, 6), label="n")
    ids = draw(st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n, unique=True),
               label="ids")
    value = st.floats(-1e300, 1e300, allow_nan=False)
    fmt = st.sampled_from([repr, "{:.17g}".format, "{:.6e}".format, "{:+.3f}".format])
    blank_y = st.sampled_from(["", " ", '""', '" "', "\t"])

    def cell(text):
        pad = st.sampled_from(["", " ", "  ", "\t"])
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    rows = []
    for uid in ids:
        row = [cell(draw(st.sampled_from([str, "{:+d}".format]))(uid))]
        row += [cell(draw(fmt)(draw(value))) for _ in range(p)]
        row.append(draw(blank_y) if draw(st.booleans()) else cell(draw(fmt)(draw(value))))
        row.append(cell(draw(fmt)(draw(st.floats(1e-3, 1.0)))))
        rows.append(row)

    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS), label="fault")
    i = draw(st.integers(0, n - 1), label="faulty row")
    col = draw(st.integers(0, p + 2), label="faulty column")
    if fault == "bad value":
        rows[i][col] = draw(st.sampled_from(NOT_A_NUMBER))
    elif fault == "short row":
        rows[i].pop()
    elif fault == "long row":
        rows[i].append(rows[i][-1])
    elif fault == "# cell":
        rows[i][col] = "#" + rows[i][col]
    elif fault == "non-finite x or pi":
        col = draw(st.sampled_from([*range(1, p + 1), p + 2]))
        rows[i][col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif fault == "non-finite y":
        rows[i][p + 1] = draw(st.sampled_from(["nan", "-nan", "inf", '"nan"']))
    elif fault == "duplicate id":
        rows.append(list(rows[i]))
    elif fault == "id outside int64":
        rows[i][0] = draw(st.sampled_from(["99999999999999999999", "-9223372036854775809"]))
    elif fault == "non-integer id":
        uid = ids[i]
        rows[i][0] = cell(draw(st.sampled_from([f"{uid}.7", f"{uid}.0", f"{uid}.", "1e3"])))

    lines = [",".join(["unit_id", *(f"x{j}" for j in range(1, p + 1)), "y", "pi"])]
    for row in draw(st.permutations(rows), label="row order"):
        lines += [""] * draw(st.integers(0, 2), label="blank lines")
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans(), label="no final line end"):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), fault


def assert_bit_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # NaN equal to NaN, 0.0 unequal to -0.0


class TestVectorisedParse:
    """read_estimate_csv parses the data rows with np.loadtxt alone and
    names the first faulty line from it; the oracle's csv-module row
    loop is the reference for both."""

    @settings(max_examples=300, deadline=None)
    @given(sample_csv_texts())
    def test_matches_the_row_loop(self, case):
        text, fault = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            got = read_outcome(read_estimate_csv, path)
            want = read_outcome(read_by_row_loop, path)
            if fault is None:  # the rows in file order, before any check on them all
                assert_bit_equal(cli._load_columns(path), read_rows(path))
            else:
                assert got[0] == "error"
        assert got[0] == want[0]
        if got[0] == "ok":
            assert_bit_equal(got[1], want[1])
        else:
            assert got[1] == want[1]

    def test_header_only_file_has_no_rows_and_no_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("unit_id,x1,y,pi\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no rows"):
                read_estimate_csv(path)

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
    @pytest.mark.parametrize("cell,calls", [(None, 1), ("nan", 1), ("abc", 2)],
                             ids=["clean", "nan", "abc"])
    def test_loadtxt_calls(self, tmp_path, quoting, cell, calls):
        # a clean file is parsed once; a faulty one at most twice: the
        # call that fails and the parse of the rows before the fault
        ids, X, y, pi = sample_data()
        path = tmp_path / "d.csv"
        write_sample_csv(path, ids, X, y, pi, missing={1, 4}, quoting=quoting)
        if cell is not None:
            rows = path.read_text().splitlines(keepends=True)
            rows[-1] = rows[-1].replace(f"{X[-1, 0]:.17g}", cell)
            path.write_text("".join(rows))
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            if cell is None:
                got_ids, got_X, got_y, got_pi, resp = read_estimate_csv(path)
                assert np.array_equal(got_ids, ids)
                assert np.array_equal(got_X, X) and np.array_equal(got_pi, pi)
                assert np.flatnonzero(~resp).tolist() == [1, 4]
                assert np.array_equal(got_y[resp], y[resp])
            else:
                with pytest.raises(ConfigError, match="x1") as err:
                    read_estimate_csv(path)
                assert err.value.field == f"line {len(ids) + 1}"
        assert loadtxt.call_count == calls


def sample_text(lines):
    return "".join(line + "\n" for line in lines)


def with_x1(line, cell):
    """A data line with its x1 cell replaced."""
    cells = line.split(",")
    cells[1] = cell
    return ",".join(cells)


class TestFaultyLine:
    """The line a data fault is named at, as the csv module numbers it:
    the header is line 1 and a blank line is a line. Cases the property
    test does not draw."""

    def lines(self, n=4):
        ids, X, y, pi = sample_data(n=n)
        return ["unit_id,x1,x2,y,pi"] + [
            ",".join([str(uid), *(f"{v:.17g}" for v in (*X[i], y[i], pi[i]))])
            for i, uid in enumerate(ids)
        ]

    def field_and_message(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            read_estimate_csv(path)
        assert read_outcome(read_by_row_loop, path) == ("error", err.value.field)
        return err.value.field, err.value.message

    @pytest.mark.parametrize("blanks", [0, 2])
    @pytest.mark.parametrize("row", [0, 3], ids=["first", "last"])
    @pytest.mark.parametrize("fault,message", [
        ("bad value", "bad value in x1: could not convert string 'abc' to float64"),
        ("short row", "expected 5 fields, got 4"),
    ], ids=["bad-value", "short-row"])
    def test_fault_after_blank_lines(self, tmp_path, fault, message, row, blanks):
        lines = self.lines()
        line = lines[1 + row]
        line = with_x1(line, "abc") if fault == "bad value" else line.rsplit(",", 1)[0]
        lines[1 + row:2 + row] = [""] * blanks + [line]
        got = self.field_and_message(tmp_path, sample_text(lines))
        assert got == (f"line {2 + row + blanks}", message)

    @pytest.mark.parametrize("first,later,want", [
        ("nan", "abc", "x1 is not a finite number"),
        ("abc", "nan", "bad value in x1: could not convert string 'abc' to float64"),
    ], ids=["nan-then-abc", "abc-then-nan"])
    def test_first_of_two_faults(self, tmp_path, first, later, want):
        lines = self.lines()
        lines[2], lines[4] = with_x1(lines[2], first), with_x1(lines[4], later)
        lines[2:2] = [""]  # a blank line before both
        assert self.field_and_message(tmp_path, sample_text(lines)) == ("line 4", want)

    @pytest.mark.parametrize("cell", ["1_000", "\uff11"], ids=["underscore", "fullwidth-1"])
    @pytest.mark.parametrize("col,name", [(0, "unit_id"), (1, "x1"), (3, "y"), (4, "pi")])
    def test_only_python_reads_it(self, tmp_path, cell, col, name):
        # int() and float() read these; the one accepted dialect does not
        lines = self.lines()
        cells = lines[2].split(",")
        cells[col] = cell
        lines[2] = ",".join(cells)
        field, message = self.field_and_message(tmp_path, sample_text(lines))
        assert field == "line 3" and message.startswith(f"bad value in {name}: ")

    def test_quoted_line_break_starts_no_line(self, tmp_path):
        lines = self.lines()
        # a valid number whose quoted cell spans three file lines, one of them blank
        lines[2] = with_x1(lines[2], '"1.5\n\n"')
        lines[4] = with_x1(lines[4], "abc")
        got = self.field_and_message(tmp_path, sample_text(lines))
        assert got == ("line 5", "bad value in x1: could not convert string 'abc' to float64")

    def test_undecodable_byte_past_the_header_read(self, tmp_path):
        # far enough in that np.loadtxt, not the header's read, decodes it
        path = tmp_path / "d.csv"
        rows = "".join(f"{k},1.5,2.5,3.5,0.5\n" for k in range(10**4))
        path.write_bytes(("unit_id,x1,x2,y,pi\n" + rows).encode() + b"\xff1,2,3,4,0.5\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            with pytest.raises(ConfigError) as err:
                read_estimate_csv(path)
        assert loadtxt.call_count == 1
        assert err.value.field == str(path)
        assert err.value.message == "data file is not valid utf-8 text: invalid start byte"

    def test_fault_without_a_row_names_the_file(self, tmp_path, capsys):
        ids, X, y, pi = sample_data(n=4)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        with mock.patch.object(np, "loadtxt", side_effect=ValueError("no place given")):
            code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error at {data}: malformed data: no place given\n"


class TestUnreadableInput:
    """Undecodable or unreadable files exit 2 with one stderr line."""

    def run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_undecodable_data_cell(self, tmp_path, capsys):
        ids, X, y, pi = sample_data(n=4)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi)
        raw = data.read_bytes().splitlines(keepends=True)
        raw[2] = b"\xff" + raw[2]
        data.write_bytes(b"".join(raw))
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        err = self.run(["estimate", "--data", str(data), "--config", str(cfg)], capsys)
        assert str(data) in err

    def test_undecodable_config(self, tmp_path, capsys):
        cfg = study_json(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b"cli-t", b"cli-\xff"))
        err = self.run(["simulate", "--config", str(cfg), "--dry-run"], capsys)
        assert str(cfg) in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        err = self.run(["simulate", "--config", str(tmp_path), "--dry-run"], capsys)
        assert str(tmp_path) in err


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet
    programs write it, reads the same as the plain file."""

    def stdout(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_OK, err
        return out

    def test_data_file(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_sample_csv(plain, ids, X, y, pi, missing={1, 4})
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}))
        want = self.stdout(["estimate", "--data", str(plain), "--config", str(cfg)], capsys)
        got = self.stdout(["estimate", "--data", str(marked), "--config", str(cfg)], capsys)
        assert got == want

    def test_config_file(self, tmp_path, capsys):
        plain = study_json(tmp_path, name="plain.json")
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want = self.stdout(["simulate", "--config", str(plain),
                            "--out-dir", str(tmp_path / "a")], capsys)
        got = self.stdout(["simulate", "--config", str(marked),
                           "--out-dir", str(tmp_path / "b")], capsys)
        assert got == want


class TestEstimate:
    def est_config(self, tmp_path, **extra):
        raw = {"criterion": "bic", "design": {"kind": "srswor", "N": 50}}
        raw.update(extra)
        path = tmp_path / "est.json"
        path.write_text(json.dumps(raw))
        return path

    def test_dry_run(self, tmp_path, capsys):
        cfg = self.est_config(tmp_path)
        code = main(["estimate", "--data", "unused.csv", "--config", str(cfg), "--dry-run"])
        assert code == EXIT_OK
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["design"] == {"kind": "srswor", "N": 50}

    def test_matches_in_process_pipeline(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        data = tmp_path / "d.csv"
        missing = {2, 5}
        write_sample_csv(data, ids, X, y, pi, missing=missing)
        cfg = self.est_config(tmp_path)

        code = main(["estimate", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_OK
        got = json.loads(capsys.readouterr().out)

        # independent route: construct the design by hand
        n, N = len(ids), 50
        sample = SampleDraw(np.arange(n), np.zeros(n, dtype=np.int64), (N,))
        r = np.ones(n, dtype=bool)
        r[list(missing)] = False
        fits = fit_candidates(X[r], y[r], nested_candidates(2))
        model, _ = select("bic", fits, y[r])
        est = estimate_model(sample, r, X, np.where(r, y, np.nan), model, fits[model], 0.95)
        assert got["selected"]["included"] == list(est.model.included)
        assert got["mu_hat"] == _round10(est.mu_hat)
        assert got["v1"] == _round10(est.v1)
        assert got["v2"] == _round10(est.v2)
        assert got["ci"]["lower"] == _round10(est.lower)
        assert got["ci"]["upper"] == _round10(est.upper)
        assert got["n_respondents"] == n - len(missing)

        on_disk = json.loads((tmp_path / "o" / "estimate.json").read_text())
        assert on_disk == got

    def test_fully_observed_equals_ht(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi)
        cfg = self.est_config(tmp_path)
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        assert code == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        n, N = len(ids), 50
        sample = SampleDraw(np.arange(n), np.zeros(n, dtype=np.int64), (N,))
        assert got["mu_hat"] == _round10(ht_mean(sample, y))

    def test_cv_criterion_is_reproducible(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={1})
        cfg = self.est_config(tmp_path, criterion="cv3", master_seed=77)
        outs = []
        for _ in range(2):
            assert main(["estimate", "--data", str(data), "--config", str(cfg)]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_cv_with_too_few_respondents_fails_cleanly(self, tmp_path, capsys):
        ids, X, y, pi = sample_data(n=5)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={0, 1})
        cfg = self.est_config(tmp_path, criterion="cv5")
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "cv5 needs at least 5 respondents" in capsys.readouterr().err

    def test_every_candidate_rank_deficient_exits_2(self, tmp_path, capsys):
        # a constant x1 is collinear with the intercept, and every nested
        # candidate keeps x1
        ids, X, y, pi = sample_data()
        X[:, 0] = 4.0
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={1})
        cfg = self.est_config(tmp_path)
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "rank deficient" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_no_residual_degrees_of_freedom_exits_2(self, tmp_path, capsys):
        # three respondents and three coefficients: the fit interpolates
        # and leaves nothing to estimate sigma^2 from
        ids, X, y, pi = sample_data(n=5)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={0, 1})
        cfg = self.est_config(tmp_path, candidates=[[1, 2]])
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "degrees of freedom" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_huge_finite_data_with_non_finite_variance_exits_2(self, tmp_path, capsys):
        # y ~ 1e161 is finite, but its squares overflow: sigma^2 and the
        # variance come out infinite, which is no interval to print
        ids, X, y, pi = sample_data(n=30, N=300)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, 1e161 * y, pi, missing=set(range(0, 30, 4)))
        cfg = self.est_config(tmp_path, design={"kind": "srswor", "N": 300})
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "non-finite" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    def test_interpolating_candidate_loses_to_one_with_residual_df(
        self, tmp_path, capsys, criterion
    ):
        # three respondents: [1, 2] interpolates and has no sigma^2, so
        # the selection must fall back to [1], which leaves one residual
        # degree of freedom
        ids, X, y, pi = sample_data(n=5)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={0, 1})
        cfg = self.est_config(tmp_path, criterion=criterion)
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert json.loads(captured.out)["selected"]["included"] == [1]

    def test_pi_inconsistent_with_design_exits_2(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, np.full_like(pi, 0.3))
        cfg = self.est_config(tmp_path)
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "pi" in capsys.readouterr().err

    def test_pi_off_by_more_than_a_relative_1e9_exits_2(self, tmp_path, capsys):
        # N = 1e12 and n = 200 give a design pi of 2e-10; a pi column 5
        # times too large is still within 1e-9 of it in absolute terms
        ids, X, y, pi = sample_data(n=200, N=1000)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, np.full_like(pi, 1e-9), missing={2})
        cfg = self.est_config(tmp_path, design={"kind": "srswor", "N": 10**12})
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "config error at pi" in captured.err

    @pytest.mark.parametrize("N", [10**10, 10**12])
    def test_v1_at_huge_N_is_the_srswor_closed_form(self, tmp_path, capsys, N):
        # eta does not depend on N (pi c'z does not), so v1 = (1 - n/N)
        # s^2 / n moves with N only through 1 - n/N, which an int64
        # product N (N - n), wrapping from N about 3.04e9 on, would break
        ids, X, y, _ = sample_data(n=200, N=1000)
        data = tmp_path / "d.csv"
        got = {}
        for big_N in (10**9, N):
            write_sample_csv(data, ids, X, y, np.full(200, 200 / big_N), missing={2, 5, 11})
            cfg = self.est_config(tmp_path, design={"kind": "srswor", "N": big_N})
            assert main(["estimate", "--data", str(data), "--config", str(cfg)]) == EXIT_OK
            got[big_N] = json.loads(capsys.readouterr().out)
        ratio = (1.0 - 200 / N) / (1.0 - 200 / 10**9)
        assert got[N]["v1"] == pytest.approx(got[10**9]["v1"] * ratio, rel=1e-9)
        assert got[N]["mu_hat"] == got[10**9]["mu_hat"]

    def test_candidate_index_beyond_data_exits_2(self, tmp_path, capsys):
        ids, X, y, pi = sample_data()
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi)
        cfg = self.est_config(tmp_path, candidates=[[1], [1, 7]])
        code = main(["estimate", "--data", str(data), "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "candidates" in capsys.readouterr().err

    def test_stratified_route(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        ids = np.array([0, 1, 2, 3, 10, 11, 12])
        X = rng.gamma(5.0, 2.0, size=(7, 2))
        y = 2.0 + X @ [1.0, 0.5] + rng.normal(size=7)
        pi = np.array([4 / 40] * 4 + [3 / 60] * 3)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi, missing={3, 6})
        cfg_path = tmp_path / "est.json"
        cfg_path.write_text(json.dumps({
            "criterion": "aic",
            "design": {"kind": "stratified", "strata": [
                {"N": 40, "sampled_units": [0, 1, 2, 3]},
                {"N": 60, "sampled_units": [10, 11, 12]},
            ]},
        }))
        code = main(["estimate", "--data", str(data), "--config", str(cfg_path)])
        assert code == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["n"] == 7 and got["n_respondents"] == 5
        assert got["v_total"] >= 0.0

    def test_stratified_rows_run_in_stratum_major_order(self, tmp_path, capsys):
        # the strata interleave ids and stratum 0 holds the larger ones, so
        # sorted-id order is not the sample's order: stratum by stratum in
        # config order, by id within a stratum. cv5's fold split follows
        # that order, and on these data the wrong order picks another model.
        s0 = [3, 9, 12, 20, 25, 31, 40, 44, 47, 52, 58, 61]
        s1 = [1, 5, 7, 10, 15, 22, 27, 33, 38, 50]
        rng = np.random.default_rng(2)
        X = rng.gamma(5.0, 2.0, size=(22, 3))
        y = 2.0 + X @ [1.0, 0.3, 0.15] + rng.normal(size=22) * 2
        r = rng.random(22) < 0.8
        ids = np.array(s0 + s1)  # stratum-major rows
        pi = np.repeat([12 / 80, 10 / 60], [12, 10])
        shuffled = np.random.default_rng(3).permutation(22)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids[shuffled], X[shuffled], y[shuffled], pi[shuffled],
                         missing=set(np.flatnonzero(~r[shuffled]).tolist()))
        cfg_path = tmp_path / "est.json"
        cfg_path.write_text(json.dumps({
            "criterion": "cv5", "master_seed": 2,
            "design": {"kind": "stratified", "strata": [
                {"N": 80, "sampled_units": s0[::-1]},
                {"N": 60, "sampled_units": s1[::-1]},
            ]},
        }))
        code = main(["estimate", "--data", str(data), "--config", str(cfg_path)])
        assert code == EXIT_OK
        got = json.loads(capsys.readouterr().out)

        def in_process(order):
            sample = SampleDraw(np.arange(22), np.repeat([0, 1], [12, 10])[order], (80, 60))
            Xo, yo, ro = X[order], y[order], r[order]
            rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
            fits = fit_candidates(Xo[ro], yo[ro], nested_candidates(3))
            model, _ = select("cv5", fits, yo[ro], rng)
            return estimate_model(sample, ro, Xo, np.where(ro, yo, np.nan), model,
                                  fits[model], 0.95)

        est = in_process(np.arange(22))
        assert got["selected"]["included"] == list(est.model.included)
        assert got["mu_hat"] == _round10(est.mu_hat)
        assert got["v1"] == _round10(est.v1)
        assert got["v2"] == _round10(est.v2)
        assert got["sigma2_hat"] == _round10(est.sigma2_hat)
        assert got["ci"]["lower"] == _round10(est.lower)
        assert got["ci"]["upper"] == _round10(est.upper)
        assert in_process(np.argsort(ids)).model != est.model

    def test_stratified_allocations_are_the_sampled_unit_counts(self):
        # strata list their ids out of id order and interleaved: n_h is
        # still each stratum's count of sampled_units, and the rows (given
        # in sorted-id order) map onto the sample stratum by stratum
        strata = [[41, 2, 17, 30], [8, 55, 3], [60, 12, 49, 1, 26]]
        sizes = [30, 40, 50]
        cfg = parse_estimate_config({
            "criterion": "bic",
            "design": {"kind": "stratified", "strata": [
                {"N": N_h, "sampled_units": units} for N_h, units in zip(sizes, strata)
            ]},
        })
        ids = np.sort(np.concatenate(strata))
        label_of = {u: h for h, units in enumerate(strata) for u in units}
        pi = np.array([len(strata[label_of[u]]) / sizes[label_of[u]] for u in ids])
        sample, order = build_estimate_design(cfg, ids, pi)
        assert np.array_equal(sample.allocations, [len(units) for units in strata])
        assert np.array_equal(sample.population_sizes, sizes)
        assert np.array_equal(sample.strata, [label_of[u] for u in ids[order]])
        assert np.array_equal(ids[order], [u for units in strata for u in sorted(units)])
        assert np.array_equal(sample.pi_first, pi[order])

    def test_stratified_id_mismatch_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        ids = np.array([0, 1, 2, 3, 10, 11, 12])
        X = rng.gamma(5.0, 2.0, size=(7, 2))
        y = X @ [1.0, 0.5]
        pi = np.array([4 / 40] * 4 + [3 / 60] * 3)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, pi)
        cfg_path = tmp_path / "est.json"
        cfg_path.write_text(json.dumps({
            "criterion": "aic",
            "design": {"kind": "stratified", "strata": [
                {"N": 40, "sampled_units": [0, 1, 2, 3]},
                {"N": 60, "sampled_units": [10, 11, 99]},
            ]},
        }))
        code = main(["estimate", "--data", str(data), "--config", str(cfg_path)])
        assert code == EXIT_CONFIG
        assert "strata" in capsys.readouterr().err

    def test_stratified_id_beyond_int64_exits_2(self, tmp_path, capsys):
        ids, X, y, pi = sample_data(n=4)
        data = tmp_path / "d.csv"
        write_sample_csv(data, ids, X, y, np.full(4, 0.1))
        cfg_path = tmp_path / "est.json"
        cfg_path.write_text(json.dumps({
            "criterion": "aic",
            "design": {"kind": "stratified", "strata": [
                {"N": 20, "sampled_units": [int(ids[0]), int(ids[1])]},
                {"N": 20, "sampled_units": [int(ids[2]), 2**64]},
            ]},
        }))
        code = main(["estimate", "--data", str(data), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "sampled_units do not match" in err and err.count("\n") == 1


def test_round10_formatting():
    assert _round10(511.03956972345) == 511.0395697
    assert _round10(0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tiny_estimate_inputs_exit_0_or_2(data):
    """Tiny, often degenerate samples: estimate exits 0 or 2, never with a
    traceback, and an exit 2 prints one stderr line. Under aic or bic it
    exits 0 exactly when some candidate's respondent fit is nonsingular
    and leaves residual degrees of freedom."""
    n = data.draw(st.integers(2, 8), label="n")
    p = data.draw(st.integers(1, 3), label="p")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.gamma(2.0, 2.0, size=(n, p))
    j = data.draw(st.integers(0, p - 1), label="column")
    shape = data.draw(st.sampled_from(["plain", "constant", "rounded"]), label="shape")
    if shape == "constant":
        X[:, j] = 3.0
    elif shape == "rounded":
        X[:, j] = np.round(X[:, j])
    y = 1.0 + X.sum(axis=1) + rng.normal(size=n)
    r = rng.random(n) < data.draw(st.floats(0.3, 1.0), label="response rate")
    r[data.draw(st.integers(0, n - 1), label="sure respondent")] = True
    criterion = data.draw(st.sampled_from(["aic", "bic", "cv2", "cv3"]), label="criterion")
    if data.draw(st.booleans(), label="explicit"):
        idx = data.draw(st.sets(st.integers(1, p), min_size=1), label="candidate")
        candidates = [sorted(idx)]
    else:
        candidates = "nested"
    N = n + data.draw(st.integers(0, 20), label="N - n")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_sample_csv(path, np.arange(n), X, y, np.full(n, n / N),
                         missing=set(np.flatnonzero(~r).tolist()))
        cfg = os.path.join(tmp, "est.json")
        with open(cfg, "w") as fh:
            json.dump({"criterion": criterion, "candidates": candidates,
                       "design": {"kind": "srswor", "N": N}}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", "--data", path, "--config", cfg])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.count("\n") == 1, err
    if criterion in ("aic", "bic"):
        models = build_candidates(candidates, p)
        fits = fit_candidates(X[r], y[r], models)
        usable = any(f is not None and f.resid.size > m.p_alpha for m, f in fits.items())
        assert (code == EXIT_OK) == usable, err


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_malformed_csv_exits_0_or_2(data):
    """A sample CSV truncated at a random byte, with stray or unbalanced
    quotes, a UTF-8 byte order mark, or duplicated or reordered header
    columns: estimate exits 0 or 2, never with a traceback, and an exit
    2 prints one stderr line."""
    ids, X, y, pi = sample_data(n=6)
    quoting = data.draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]), label="quoting")
    missing = data.draw(st.sets(st.integers(0, 5), max_size=3), label="missing")
    fault = data.draw(st.sampled_from(["truncated", "stray quote", "unbalanced quote", "bom",
                                       "duplicated header", "reordered header"]), label="fault")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_sample_csv(path, ids, X, y, pi, missing=missing, quoting=quoting)
        with open(path, "rb") as fh:
            raw = fh.read()
        if fault == "truncated":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
        elif fault == "stray quote":
            at = data.draw(st.integers(0, len(raw)), label="at")
            raw = raw[:at] + b'"' + raw[at:]
        elif fault == "unbalanced quote":
            quotes = [i for i, b in enumerate(raw) if b == ord('"')]
            if quotes:
                at = data.draw(st.sampled_from(quotes), label="dropped quote")
                raw = raw[:at] + raw[at + 1:]
            else:
                raw = b'"' + raw
        elif fault == "bom":
            raw = b"\xef\xbb\xbf" + raw
        else:
            header, rest = raw.split(b"\r\n", 1)
            names = header.split(b",")
            if fault == "duplicated header":
                j = data.draw(st.integers(0, len(names) - 1), label="column")
                names.insert(data.draw(st.integers(0, len(names)), label="at"), names[j])
            else:
                names = data.draw(st.permutations(names), label="order")
            raw = b",".join(names) + b"\r\n" + rest
        with open(path, "wb") as fh:
            fh.write(raw)
        cfg = os.path.join(tmp, "est.json")
        with open(cfg, "w") as fh:
            json.dump({"criterion": "bic", "design": {"kind": "srswor", "N": 50}}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", "--data", path, "--config", cfg])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.count("\n") == 1, err


# a valid estimate config for each design kind, and the ids and pi of the
# eight-row sample it declares
FUZZ_CONFIGS = {
    "srswor": ({"criterion": "bic", "level": 0.9, "candidates": "nested", "master_seed": 4,
                "design": {"kind": "srswor", "N": 40}},
               np.arange(8), np.full(8, 8 / 40)),
    "stratified": ({"criterion": "cv3", "candidates": [[1], [1, 2]],
                    "design": {"kind": "stratified", "strata": [
                        {"N": 20, "sampled_units": [6, 0, 4, 2]},
                        {"N": 30, "sampled_units": [1, 3, 7, 5]},
                    ]}},
                   np.arange(8), np.array([4 / 20, 4 / 30] * 4)),
}
FUZZ_VALUES = [None, True, False, 0, -1, 1, 3.5, "7", "", [], {}, [1], 2**63 - 1, 2**63,
               2**64, -(2**63) - 1, 10**30, float("inf")]


def config_paths(node, path=()):
    """Every (path, node) below the root of a JSON value."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from config_paths(child, path + (key,))


def targeted_fault(data, cfg, fault):
    """A bad unit id, too small an N or N_h, or a repeated id, on an
    intact config."""
    strata = cfg["design"].get("strata")
    if fault == "unit":
        value = data.draw(st.sampled_from([True, -1, 2**63, 2**70, 1.0, "3", None]), label="id")
        if strata is None:
            cfg["design"]["N"] = value
            return
        units = strata[data.draw(st.integers(0, len(strata) - 1), label="h")]["sampled_units"]
        units[data.draw(st.integers(0, len(units) - 1), label="j")] = value
    elif fault == "too many units":
        if strata is None:
            cfg["design"]["N"] = data.draw(st.integers(1, 7), label="N")
            return
        entry = strata[data.draw(st.integers(0, len(strata) - 1), label="h")]
        entry["N"] = len(entry["sampled_units"]) - data.draw(st.integers(1, 3), label="short")
    else:
        h = data.draw(st.integers(0, len(strata) - 1), label="h")
        to = h if fault == "duplicate within" else 1 - h
        unit = data.draw(st.sampled_from(strata[h]["sampled_units"]), label="unit")
        strata[to]["sampled_units"].append(unit)


def generic_fault(data, cfg):
    """Replace or delete any value, or add an unknown key to any object."""
    fault = data.draw(st.sampled_from(["replace", "delete", "unknown key"]), label="fault")
    paths = [path for path, _ in config_paths(cfg)]
    if fault == "unknown key":
        paths = [()] + [path for path, node in config_paths(cfg) if isinstance(node, dict)]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths), label="path")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if fault == "unknown key":
        (parent[path[-1]] if path else parent)["bogus"] = 1
    elif fault == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES), label="value"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_estimate_config_exits_0_or_2(data):
    """A valid SRSWOR or stratified estimate config with one to three
    faults: wrong types, bool, negative or beyond-int64 ids, ids repeated
    within or across strata, more units than N_h, missing or unknown keys.
    estimate exits 0 or 2, never with a traceback, and an exit 2 prints
    one stderr line."""
    kind = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)), label="kind")
    base, ids, pi = FUZZ_CONFIGS[kind]
    cfg = copy.deepcopy(base)
    targeted = ["unit", "too many units"]
    if kind == "stratified":
        targeted += ["duplicate within", "duplicate across"]
    fault = data.draw(st.sampled_from([None] + targeted), label="targeted fault")
    if fault is not None:
        targeted_fault(data, cfg, fault)
    for _ in range(data.draw(st.integers(0 if fault else 1, 2), label="generic faults")):
        generic_fault(data, cfg)
    rng = np.random.default_rng(0)
    X = rng.gamma(5.0, 2.0, size=(8, 2))
    y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_sample_csv(path, ids, X, y, pi, missing={1})
        cfg_path = os.path.join(tmp, "est.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", "--data", path, "--config", cfg_path])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.count("\n") == 1, err


# a valid study config for each design kind, small enough that one
# replication takes milliseconds
FUZZ_STUDIES = {
    "srswor": {"name": "fuzz", "replications": 1, "master_seed": 3, "level": 0.9,
               "criteria": ["aic", "cv3"], "candidates": "nested", "failure_threshold": 0.5,
               "population": {"N": 60, "p": 2,
                              "covariate_law": {"name": "gamma", "shape": 5.0, "scale": 2.0},
                              "beta": [0.0, 2.0, 0.0], "sigma": 1.0, "response_offset": 1.0,
                              "response_scale": 1.0, "response_coefs": [0.0, 0.0]},
               "design": {"kind": "srswor", "n": 20}},
    "stratified": {"replications": 1, "master_seed": 3, "criteria": ["bic"],
                   "candidates": [[1], [1, 2]],
                   "population": {"N": 80, "p": 2,
                                  "covariate_law": {"name": "uniform", "low": 0.0, "high": 4.0},
                                  "beta": [1.0, 2.0, -1.0], "sigma": 1.0,
                                  "response_offset": 1.0, "response_scale": 1.0,
                                  "response_coefs": [0.5, 0.0]},
                   "design": {"kind": "stratified", "n": 24, "sort_coefs": [1.0, 0.0],
                              "alloc_covariate": 2, "fractions": [0.5, 0.5]}},
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_malformed_study_config_exits_0_or_2(data):
    """A valid SRSWOR or stratified study config with one to three
    generic faults: a value replaced by a wrong type, bool, negative,
    beyond-int64 or infinite one, a field deleted, an unknown key added.
    simulate --dry-run exits 0 or 2 and a one-replication simulate exits
    0 or 2, or 3 when its one replication fails (the documented
    failure-rate exit); never a traceback, and an exit 2 prints one
    stderr line. A fault that leaves replications a valid count is run
    as one replication, since a count like 2**63 - 1 is valid but would
    never finish."""
    cfg = copy.deepcopy(FUZZ_STUDIES[data.draw(st.sampled_from(sorted(FUZZ_STUDIES)),
                                               label="kind")])
    for _ in range(data.draw(st.integers(1, 3), label="faults")):
        generic_fault(data, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "study.json")
        for dry_run in (True, False):
            B = cfg.get("replications") if isinstance(cfg, dict) else None
            if not dry_run and type(B) is int and B > 1:
                cfg["replications"] = 1
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            argv = ["simulate", "--config", cfg_path, "--out-dir", os.path.join(tmp, "out")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--dry-run"] if dry_run else argv)
            err = err.getvalue()
            allowed = (EXIT_OK, EXIT_CONFIG) if dry_run else (EXIT_OK, EXIT_CONFIG,
                                                              EXIT_FAILURE_RATE)
            assert code in allowed, err
            assert "Traceback" not in err
            if code == EXIT_CONFIG:
                assert err.count("\n") == 1, err
