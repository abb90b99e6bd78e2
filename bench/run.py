"""survey_impute benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads (see BENCHMARK.json for why each exists):

  study_srswor      `simulate` on configs/srswor_n500.json
  study_stratified  `simulate` on configs/stratified_n500.json
  estimate_large    `estimate` on a generated stratified sample, n=6000

Each study call runs REPS_PER_CALL replications with a master_seed
derived from --seed and the call index; the estimate workload repeats
one call on one generated dataset. All calls go through
survey_impute.cli.main with --threads 1, in a fresh worker process, one
caller in a closed loop.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import the package and parse the workload's config),
median wall time per op, and the worker's peak RSS; ops per second and
the p90 per op are printed beside them. An op is one replication
(studies) or one estimate call.
--trace 1 prints the per-layer metrics of an in-process traced run
instead. Outputs are checked after the timed region in both modes. The
last stdout line is the result as one JSON object; the exit code is 0
only when every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import quantile  # noqa: E402
from worker import op_ms as per_op_ms  # noqa: E402

WORKLOADS = ("study_srswor", "study_stratified", "estimate_large")
DEFAULT_SEED = 1
REPS_PER_CALL = 8
RUN_SECONDS = 30  # run_seconds in BENCHMARK.json
SETUP_SPAWNS = 9
# on top of --seconds: input generation, set-up spawns, warm-up call, checks
MARGIN_S = 140
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

PROBE = (
    "import sys; import survey_impute.config as c; "
    "parse = c.parse_study_config if sys.argv[1] == 'study' else c.parse_estimate_config; "
    "parse(c.load_json(sys.argv[2]))"
)


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("SURVEY_IMPUTE_SEED", None)  # would override the derived seeds
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in BLAS_ENV:
        env[name] = "1"
    return env


def _run_child(argv, env, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=left,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {argv[:3]}")
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(kind, config_path, env, deadline):
    """Median wall seconds of a fresh interpreter that imports the
    package and parses the config. One untimed spawn first loads the
    files into the page cache, as for a user who runs the CLI often."""
    _run_child([sys.executable, "-c", PROBE, kind, config_path], env, deadline)
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", PROBE, kind, config_path], env, deadline)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def end_to_end(result, setup_s):
    """-> (metrics, per-op ms of every timed call). ops per second and
    p90 are printed but not metrics: with one caller in a closed loop
    ops per second is 1/mean(per-op ms), the same calls as op_ms_p50 but
    less robust to outliers; p90's run-to-run spread on a shared 2-core
    host (about 0.2 of its median) is too wide for any bound the
    benchmark may set."""
    op_ms = per_op_ms(result["timings"])
    if len(op_ms) < 2:
        raise BenchError(f"only {len(op_ms)} timed calls completed")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }, op_ms


def study_problems(workload, seed, summaries):
    problems = []
    for i, text in enumerate(summaries):
        if text is not None:
            problems += [f"call {i}: {p}" for p in checks.check_summary_finite(text)]
    if seed != DEFAULT_SEED:
        return problems, "finite numbers (no reference for this seed)"
    ref_path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(ref_path) as fh:
        ref = json.load(fh)
    if ref["reps_per_call"] != REPS_PER_CALL:
        raise BenchError(f"{ref_path} was written for {ref['reps_per_call']} reps per call")
    compared = 0
    for i, ref_text in enumerate(ref["summaries"][: len(summaries)]):
        if summaries[i] is not None:
            problems += [f"call {i}: {p}" for p in checks.compare_summary(summaries[i], ref_text)]
            compared += 1
    return problems, f"finite numbers; {compared} summary.csv files against the reference"


def estimate_problems(sample, outputs):
    oracle = checks.estimate_oracle(sample)
    problems = []
    if len(outputs) > 1:
        problems.append(f"{len(outputs)} different outputs for the same input")
    for out in outputs:
        problems += checks.check_estimate(json.loads(out["text"]), oracle)
    return problems, "every call against a least-squares / closed-form v1 oracle"


def run(args):
    deadline = time.monotonic() + args.seconds + MARGIN_S
    if not os.path.isfile(os.path.join(ROOT, "src", "survey_impute", "cli.py")):
        raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
    # one directory per workload and mode, so repeated runs do not pile up
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    env = _child_env()

    spec = {"root": ROOT, "work": work, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace), "reps_per_call": REPS_PER_CALL}
    sample = None
    if args.workload == "estimate_large":
        sample = inputs.make_estimate_sample(ROOT, args.seed)
        spec["data"] = os.path.join(work, "sample.csv")
        spec["config"] = os.path.join(work, "estimate.json")
        inputs.write_estimate_inputs(sample, spec["data"], spec["config"])
        probe = ("estimate", spec["config"])
    else:
        probe_cfg = os.path.join(work, "probe.json")
        base = inputs.load_base(ROOT, inputs.STUDY_BASE[args.workload])
        inputs.write_study_config(base, probe_cfg, inputs.study_master_seed(args.seed, 0),
                                  REPS_PER_CALL)
        probe = ("study", probe_cfg)

    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = measure_setup(*probe, env, deadline)

    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    _run_child([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
               env, deadline)
    with open(result_path) as fh:
        result = json.load(fh)

    if sample is None:
        problems, checked = study_problems(args.workload, args.seed, result["summaries"])
    else:
        problems, checked = estimate_problems(sample, result["outputs"])
    if result["failed"]:
        problems.append(f"{result['failed']} failed ops: {result['failure_classes']}")

    print("env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": result["python"], "numpy": result["numpy"],
        "scipy": result["scipy"], "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env_set": {k: env[k] for k in BLAS_ENV},
        "blas_env_inherited": {k: os.environ.get(k) for k in BLAS_ENV},
        "reps_per_call": REPS_PER_CALL if sample is None else None,
    }))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failures: attempted={attempted} failed={failed} "
          f"failed_pct={100.0 * failed / attempted:.4g} % by_class={result['failure_classes']}")
    print(f"checks: {checked}: " + ("ok" if not problems else f"{len(problems)} problems"))
    for p in problems[:20]:
        print(f"  {p}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
        print(f"trace: {result['traced_ops']} traced ops; spans in {work}/spans.jsonl")
        print(f"trace: absent names {result['absent'] or 'none'}")
        print("trace: not called on this workload, their metrics read 0: "
              + (", ".join(result["idle"]) or "none"))
        shares = sorted(((k, m["value"]) for k, m in metrics.items() if k.endswith(".self_pct")),
                        key=lambda kv: -kv[1])
        print("trace: self time share " + ", ".join(f"{k[:-9]} {v:.1f}%" for k, v in shares)
              + f"; selection including its fits {metrics['selection.incl_pct']['value']:.1f}%")
    else:
        metrics, op_ms = end_to_end(result, setup_s)
        print(f"setup: {SETUP_SPAWNS} fresh interpreters, s: "
              + ", ".join(f"{t:.4f}" for t in setup_times))
        timings = result["timings"]
        ops = sum(n for _, n in timings)
        p90 = quantile(op_ms, 0.90)
        print(f"timed: {len(op_ms)} calls, {ops} ops; "
              f"ops_per_s = {ops / sum(dt for dt, _ in timings):.6g} 1/s; "
              f"op_ms_p90 = {p90:.6g} ms ({sum(1 for x in op_ms if x > p90)} calls beyond it)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
