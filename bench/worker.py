"""Runs one workload's closed loop in a fresh process.

    python3 bench/worker.py SPEC.json RESULT.json

One caller, single process: each CLI call starts when the previous one
returned. Calls go through survey_impute.cli.main in this process, so
interpreter start-up and imports are paid once here and measured
separately as set-up time. Call 0 is a warm-up and is not timed. With
"trace" in the spec the loop runs untraced for half the time and traced
for the other half, and the difference is the tracing overhead.
"""

import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import sys
import time


def _cli_call(cli, argv):
    """-> (seconds, exit code or None, exception class or None, stdout,
    traceback seen on stderr)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # the CLI would have died with a traceback
        exc = type(e).__name__
    dt = time.perf_counter() - t0
    return dt, rc, exc, out.getvalue(), "Traceback" in err.getvalue()


def _reps_failure_classes(path, criteria):
    """Failures by exception class from a --reps-out file. Criterion
    failures carry the class in <crit>_selected; a failed candidate fit
    leaves its mu_ column empty and has no class in the file."""
    counts = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key, val in row.items():
                if key.startswith("mu_") and key != "mu_true" and val == "":
                    counts["candidate fit (class not recorded)"] = counts.get(
                        "candidate fit (class not recorded)", 0) + 1
            for crit in criteria:
                sel = row[f"{crit}_selected"]
                if sel.endswith("Error") or sel == "failed":
                    counts[sel] = counts.get(sel, 0) + 1
    return counts


class StudyLoop:
    def __init__(self, spec, cli, inputs):
        self.spec, self.cli, self.inputs = spec, cli, inputs
        self.base = inputs.load_base(spec["root"], inputs.STUDY_BASE[spec["workload"]])
        self.reps = spec["reps_per_call"]
        self.rows = self.base["population"]["p"] + len(self.base["criteria"])
        work = spec["work"]
        self.cfg_path = os.path.join(work, "study.json")
        self.out_dir = os.path.join(work, "out")
        self.reps_path = os.path.join(work, "reps.csv")
        self.summaries = []
        self.attempted = self.failed = 0
        self.classes = {}

    def call(self, i):
        """One simulate call -> (seconds, replications done)."""
        seed = self.inputs.study_master_seed(self.spec["seed"], i)
        self.inputs.write_study_config(self.base, self.cfg_path, seed, self.reps)
        for path in (os.path.join(self.out_dir, "summary.csv"), self.reps_path):
            if os.path.exists(path):
                os.remove(path)
        dt, rc, exc, _, tb = _cli_call(self.cli, [
            "simulate", "--config", self.cfg_path, "--out-dir", self.out_dir,
            "--threads", "1", "--reps-out", self.reps_path,
        ])
        ops = self.reps * self.rows
        self.attempted += ops
        # exit 3 (failure rate above the threshold) still writes the
        # summary; its failures column counts the failed ops
        if rc not in (0, self.cli.EXIT_FAILURE_RATE) or exc or tb:
            self.failed += ops
            key = exc or ("traceback on stderr" if tb else f"exit {rc}")
            self.classes[key] = self.classes.get(key, 0) + ops
            self.summaries.append(None)
            return dt, 0
        with open(os.path.join(self.out_dir, "summary.csv")) as fh:
            text = fh.read()
        self.summaries.append(text)
        for row in csv.DictReader(io.StringIO(text)):
            self.failed += round(float(row["failures"]) * self.reps / 100.0)
        for key, n in _reps_failure_classes(self.reps_path, self.base["criteria"]).items():
            self.classes[key] = self.classes.get(key, 0) + n
        return dt, self.reps

    def result(self):
        return {"summaries": self.summaries}


class EstimateLoop:
    def __init__(self, spec, cli, inputs):
        self.cli = cli
        self.argv = ["estimate", "--data", spec["data"], "--config", spec["config"]]
        self.outputs = {}
        self.attempted = self.failed = 0
        self.classes = {}

    def call(self, i):
        dt, rc, exc, out, tb = _cli_call(self.cli, self.argv)
        self.attempted += 1
        if rc != 0 or exc or tb:
            self.failed += 1
            key = exc or ("traceback on stderr" if tb else f"exit {rc}")
            self.classes[key] = self.classes.get(key, 0) + 1
            return dt, 0
        self.outputs[out] = self.outputs.get(out, 0) + 1
        return dt, 1

    def result(self):
        return {"outputs": [{"text": t, "calls": n} for t, n in self.outputs.items()]}


def _run_for(loop, first_call, seconds):
    """Closed loop for `seconds` -> (next call index, [(seconds, ops)])."""
    timings = []
    i = first_call
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        timings.append(loop.call(i))
        i += 1
    return i, timings


def op_ms(timings):
    """Wall ms per op of each call that completed its ops."""
    return [1000.0 * dt / ops for dt, ops in timings if ops]


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import inputs
    import numpy
    import scipy
    from survey_impute import cli

    loop = (StudyLoop if spec["workload"].startswith("study_") else EstimateLoop)(spec, cli, inputs)
    loop.call(0)  # warm-up, checked with the rest but not timed
    seconds = spec["seconds"]
    result = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    if not spec["trace"]:
        _, timings = _run_for(loop, 1, seconds)
        result["timings"] = timings
    else:
        import tracing
        nxt, plain = _run_for(loop, 1, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = _run_for(loop, nxt, seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(spec["work"], "spans.jsonl"))
        n_ops = sum(ops for _, ops in traced)
        metrics, idle = tracing.summarize_spans(tracer.spans, n_ops)
        plain_ms, traced_ms = op_ms(plain), op_ms(traced)
        overhead = 100.0 * (statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0) \
            if plain_ms and traced_ms else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        result.update(
            timings=plain + traced, traced_ops=n_ops, metrics=metrics,
            idle=idle, absent=tracer.absent,
        )
    result.update(loop.result())
    result.update(
        attempted=loop.attempted, failed=loop.failed, failure_classes=loop.classes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
