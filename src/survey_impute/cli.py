"""Command line front end.

survey-impute simulate --config study.json [--out-dir D] [--threads K]
                       [--reps-out reps.csv] [--dry-run]
survey-impute estimate --data sample.csv --config est.json
                       [--out-dir D] [--dry-run]

SURVEY_IMPUTE_SEED overrides the config's master_seed. Data and config
files are read as UTF-8, with or without a byte-order mark. Exit codes:
0 success, 2 malformed config, data or output path, data that no
candidate model can fit, data whose estimate or variance is not finite,
or a run that does not fit in memory, 3 failure rate above the
configured threshold, 1 anything else.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .config import (
    load_json,
    parse_estimate_config,
    parse_study_config,
    resolved_estimate_config,
    resolved_study_config,
)
from .design import SampleDraw
from .errors import ConfigError, EstimationFailureError, SelectionFailureError, SurveyImputeError
from .estimators import build_candidates, fit_candidates
from .selection import select
from .study import SUMMARY_COLUMNS, float_text, reps_to_csv, run_study, summary_to_csv
from .variance import estimate_model

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_FAILURE_RATE = 3


def _round10(x):
    """x as study.float_text writes it, as a float."""
    return float(float_text(x))


def _with_env_seed(cfg):
    """cfg with SURVEY_IMPUTE_SEED, when set, as its master_seed."""
    raw = os.environ.get("SURVEY_IMPUTE_SEED")
    if raw is None or raw == "":
        return cfg
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError("SURVEY_IMPUTE_SEED", f"not an integer: {raw!r}")
    if seed < 0:
        raise ConfigError("SURVEY_IMPUTE_SEED", "must be >= 0")
    return dataclasses.replace(cfg, master_seed=seed)


def _check_outputs(out_dir, name, inputs, reps_out=None):
    """Refuse, before any work and creating nothing, an out_dir whose
    nearest existing ancestor is not a directory, an output file
    out_dir/name that is a directory or an input file, or a reps_out
    that names no file in an existing directory or in out_dir, or names
    out_dir/name or an input. A path the OS refuses for another reason,
    such as a name too long, fails only when written (see _writing)."""
    top = os.path.abspath(out_dir)
    while not os.path.lexists(top):
        top = os.path.dirname(top)
    if not os.path.isdir(top):
        raise ConfigError("--out-dir", f"{top} is not a directory")
    target = os.path.join(out_dir, name)
    if os.path.isdir(target):
        raise ConfigError("--out-dir", f"cannot write {name}: {target} is a directory")
    if reps_out is not None:
        where = os.path.abspath(os.path.dirname(reps_out))
        if (not os.path.basename(reps_out) or os.path.isdir(reps_out)
                or not (os.path.isdir(where) or where == os.path.abspath(out_dir))):
            raise ConfigError("--reps-out", f"cannot write a file at {reps_out!r}")
        if os.path.realpath(reps_out) == os.path.realpath(target):
            raise ConfigError("--reps-out", f"{reps_out!r} is the {name} of --out-dir")
    read = {os.path.realpath(path) for path in inputs}
    for flag, path in (("--out-dir", target), ("--reps-out", reps_out)):
        if path is not None and os.path.realpath(path) in read:
            raise ConfigError(flag, f"cannot write {path!r}: it is an input file")


@contextlib.contextmanager
def _writing(flag):
    """An OSError from making or writing the output of flag, as a
    ConfigError at flag."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(flag, f"cannot write output: {exc}")


def _print_summary_table(cfg, summary, text, out):
    """The summary table, text as summary_rows formats it, in aligned columns."""
    print(
        f"study {cfg.name}: B={summary.replications} design={cfg.design_kind} "
        f"N={cfg.N} n={cfg.n} seed={cfg.master_seed}",
        file=out,
    )
    widths = [max(len(c), *(len(r[i]) for r in text)) for i, c in enumerate(SUMMARY_COLUMNS)]
    print("  ".join(c.ljust(w) for c, w in zip(SUMMARY_COLUMNS, widths)), file=out)
    for r in text:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)), file=out)


def cmd_simulate(args):
    cfg = _with_env_seed(parse_study_config(load_json(args.config)))
    if args.dry_run:
        print(json.dumps(resolved_study_config(cfg), indent=2))
        return EXIT_OK

    out_dir = args.out_dir or "."
    _check_outputs(out_dir, "summary.csv", (args.config,), args.reps_out)
    # run_study refuses --threads < 1 before any work, so a refused run creates nothing
    summary, records = run_study(cfg, threads=args.threads)
    with _writing("--out-dir"):
        os.makedirs(out_dir, exist_ok=True)
        rows = summary_to_csv(summary, os.path.join(out_dir, "summary.csv"))
    if args.reps_out is not None:
        with _writing("--reps-out"):
            reps_to_csv(records, args.reps_out, cfg)
    _print_summary_table(cfg, summary, rows, sys.stdout)

    if summary.failure_rate > cfg.failure_threshold:
        print(
            f"error: failure rate {summary.failure_rate:.4f} exceeds "
            f"threshold {cfg.failure_threshold:.4f}",
            file=sys.stderr,
        )
        return EXIT_FAILURE_RATE
    return EXIT_OK


@contextlib.contextmanager
def _data_file(path):
    """(header, fh): the data file's checked header, and the file read on
    after it. An undecodable byte anywhere in the file is a ConfigError."""
    try:
        # utf-8-sig: spreadsheet programs start a UTF-8 CSV with a byte-order mark
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read data file: {exc}")
    with fh:
        try:
            yield _data_header(csv.reader(fh)), fh
        except UnicodeDecodeError as exc:
            raise ConfigError(str(path), f"data file is not valid {exc.encoding} text: {exc.reason}")


def _data_header(reader):
    """Read and check the header row; -> its stripped column names."""
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("header", "data file is empty")
    except csv.Error as exc:
        raise ConfigError("header", f"malformed CSV: {exc}")
    header = [h.strip() for h in header]
    p = len(header) - 3
    expected = ["unit_id"] + [f"x{j}" for j in range(1, p + 1)] + ["y", "pi"]
    if p < 1 or header != expected:
        raise ConfigError(
            "header",
            # the list's repr keeps a quoted newline in a name on one line
            f"expected columns unit_id, x1..xp, y, pi; got {header}",
        )
    return header


def _y_value(text):
    """One y cell for np.loadtxt: blank is missing (NaN). Otherwise it
    reads as an x cell does, with no non-ASCII digit or "_", except that
    a written-out nan reads as inf: a fault, not a missing value."""
    text = text.strip()
    if text == "":
        return np.nan
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    value = float(text)
    return np.inf if math.isnan(value) else value


def _parse(path, max_rows=None):
    """(header, rows): the checked header and np.loadtxt's parse of the
    data rows, or of the first max_rows of them; blank lines are no rows."""
    with _data_file(path) as (header, fh):
        p = len(header) - 3
        dtype = [("id", np.int64), ("x", np.float64, (p,)), ("y", np.float64),
                 ("pi", np.float64)]
        with warnings.catch_warnings():
            # a header-only file has no rows, and a blank line is no row of max_rows
            warnings.filterwarnings("ignore", ".*contained no data")
            # older numpy reads an id such as 3.7 as a float and truncates
            # it, with only this warning; as an error it is a ValueError
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            return header, np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                      comments=None, ndmin=1, converters={p + 1: _y_value},
                                      max_rows=max_rows)


def _line_of(path, row):
    """The line number of data row `row`, counted from 0 as np.loadtxt
    counts, where the csv module puts it: the header is line 1, a blank
    line is a line, and a quoted line break starts none."""
    with _data_file(path) as (_, fh):
        lineno, quoted = 1, False
        for text in fh:
            if not quoted:  # the text starts a line
                lineno += 1
                row -= text not in ("\n", "\r\n")  # a blank line is no row
                if row < 0:
                    break
            if '"' in text:
                quoted ^= text.count('"') % 2 == 1
    return lineno


def _check_finite(path, header, rows):
    """Name the first row with a non-finite x or pi or an infinite y (a
    missing y is the only NaN allowed) and its first such cell."""
    bad = np.column_stack([~np.isfinite(rows["x"]), np.isinf(rows["y"]),
                           ~np.isfinite(rows["pi"])])
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise ConfigError(f"line {_line_of(path, k)}", f"{header[1 + j]} is not a finite number")


# np.loadtxt's two row faults: a cell it cannot convert, at a row counted
# from 0, and a wrong number of cells, at a row counted from 1
_BAD_VALUE = re.compile(r"(.*) at row (\d+), column (\d+)\.", re.S)
_BAD_COUNT = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")


def _load_columns(path):
    """The data rows in one np.loadtxt parse: (ids, X, y, pi, resp) in
    file order. The first faulty row is a ConfigError at its line: where
    np.loadtxt stops, the rows before are parsed again for a non-finite cell."""
    try:
        header, rows = _parse(path)
    except ValueError as exc:
        value, count = _BAD_VALUE.fullmatch(str(exc)), _BAD_COUNT.search(str(exc))
        if not (value or count):
            raise ConfigError(str(path), f"malformed data: {exc}")
        row = int(value[2]) if value else int(count[3]) - 1
        header, rows = _parse(path, max_rows=row)
        _check_finite(path, header, rows)
        message = (f"bad value in {header[int(value[3]) - 1]}: {value[1]}" if value
                   else f"expected {count[1]} fields, got {count[2]}")
        raise ConfigError(f"line {_line_of(path, row)}", message)
    _check_finite(path, header, rows)
    return rows["id"], rows["x"], rows["y"], rows["pi"], ~np.isnan(rows["y"])


def read_estimate_csv(path):
    """sample CSV with header unit_id, x1..xp, y, pi; empty y = missing.

    Returns (unit_ids, X, y, pi, respondent mask) in unit-id-sorted order.
    """
    ids, X, y, pi, resp = _load_columns(path)
    if ids.size == 0:
        raise ConfigError(str(path), "data file has no rows")
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    if np.any(ids[1:] == ids[:-1]):
        raise ConfigError("unit_id", "duplicate unit ids")
    X, y, pi, resp = X[order], y[order], pi[order], resp[order]
    if np.any(pi <= 0.0) or np.any(pi > 1.0):
        raise ConfigError("pi", "inclusion probabilities must lie in (0, 1]")
    if not resp.any():
        raise ConfigError("y", "no respondents: every y is missing")
    return ids, X, y, pi, resp


def build_estimate_design(cfg, ids, pi):
    """The sample the estimate config declares, and the order of the data
    rows (given in sorted-id order) within it.

    Original unit ids are opaque labels here: the inclusion probabilities
    and V1 depend only on N_h, n_h and each unit's stratum, so the sample
    numbers its units 0..n-1, stratum by stratum in config order and by
    id within a stratum. Its n_h are the counts of each stratum's
    sampled_units.
    """
    n = ids.size
    if cfg.design_kind == "srswor":
        if n > cfg.N:
            raise ConfigError("design.N", f"{n} sampled units exceed N={cfg.N}")
        sizes = (cfg.N,)
        labels = np.zeros(n, dtype=np.int64)
    else:
        sizes = [N_h for N_h, _ in cfg.strata]
        try:
            declared = np.array([u for _, units in cfg.strata for u in units], dtype=np.int64)
            by_id = np.argsort(declared)
            matched = declared.size == n and np.array_equal(declared[by_id], ids)
        except OverflowError:  # an id beyond int64 matches no data row
            matched = False
        if not matched:
            raise ConfigError(
                "design.strata", "sampled_units do not match the data file's unit ids"
            )
        counts = [len(units) for _, units in cfg.strata]
        labels = np.repeat(np.arange(len(cfg.strata)), counts)[by_id]
    order = np.argsort(labels, kind="stable")
    sample = SampleDraw(np.arange(n), labels[order], sizes)
    if np.any(np.abs(pi[order] - sample.pi_first) > 1e-9 * sample.pi_first):
        raise ConfigError("pi", "pi column inconsistent with the declared design")
    return sample, order


def cmd_estimate(args):
    cfg = _with_env_seed(parse_estimate_config(load_json(args.config)))
    if args.dry_run:
        print(json.dumps(resolved_estimate_config(cfg), indent=2))
        return EXIT_OK
    if args.out_dir:
        _check_outputs(args.out_dir, "estimate.json", (args.config, args.data))

    ids, X, y, pi, resp = read_estimate_csv(args.data)
    p = X.shape[1]
    if cfg.candidates != "nested":
        bad = [m for m in cfg.candidates if m[-1] > p]
        if bad:
            raise ConfigError("candidates", f"covariate index {bad[0][-1]} exceeds p={p}")

    sample, order = build_estimate_design(cfg, ids, pi)
    X, y, resp = X[order], y[order], resp[order]
    # missing y stay NaN: every downstream read goes through resp, so a
    # stray NaN in the output would expose a bookkeeping bug loudly

    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0]))
    # finite but huge data can overflow; the estimate or variance then is
    # not finite and confidence_interval reports it as the one error line
    with np.errstate(over="ignore", invalid="ignore"):
        fits = fit_candidates(X[resp], y[resp], build_candidates(cfg.candidates, p))
        model, _ = select(cfg.criterion, fits, y[resp], rng)
        est = estimate_model(sample, resp, X, y, model, fits[model], cfg.level)

    out = {
        "criterion": cfg.criterion,
        "selected": {
            "included": list(est.model.included),
            "with_intercept": True,  # every candidate has one
        },
        "n": int(ids.size),
        "n_respondents": int(resp.sum()),
        "mu_hat": _round10(est.mu_hat),
        "v1": _round10(est.v1),
        "v2": _round10(est.v2),
        "v_total": _round10(est.v_total),
        "sigma2_hat": _round10(est.sigma2_hat),
        "ci": {
            "lower": _round10(est.lower),
            "upper": _round10(est.upper),
            "level": cfg.level,
        },
    }
    text = json.dumps(out, indent=2)
    if args.out_dir:
        # written before printing: a refused write leaves stdout empty
        with _writing("--out-dir"):
            os.makedirs(args.out_dir, exist_ok=True)
            with open(os.path.join(args.out_dir, "estimate.json"), "w") as fh:
                fh.write(text + "\n")
    print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="survey-impute",
        description="Regression imputation for survey samples: simulation "
        "studies and single-dataset estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON config")
    sim.add_argument("--config", required=True, help="study config (JSON)")
    sim.add_argument("--out-dir", default=".", help="directory for summary.csv")
    sim.add_argument("--threads", type=int, default=1, help="worker processes")
    sim.add_argument("--reps-out", default=None, help="also write raw records to this CSV")
    sim.add_argument("--dry-run", action="store_true",
                     help="validate and echo the resolved config, run nothing")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="select, impute, and build a CI on one dataset")
    est.add_argument("--data", required=True, help="sample CSV: unit_id, x1..xp, y, pi")
    est.add_argument("--config", required=True, help="estimation config (JSON)")
    est.add_argument("--out-dir", default=None, help="also write estimate.json here")
    est.add_argument("--dry-run", action="store_true",
                     help="validate and echo the resolved config, run nothing")
    est.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.field}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    except (SelectionFailureError, EstimationFailureError) as exc:
        # a study counts these per replication, so only estimate gets here
        print(f"error: the data admit no usable estimate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SurveyImputeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # e.g. a population within config's 64-bit bound that no host can hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
