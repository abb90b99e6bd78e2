"""Compare the outputs of this checkout with those of another checkout,
byte for byte:

    python tests/golden/compare_trees.py OTHER_CHECKOUT

In each tree, with PYTHONPATH=<tree>/src and nothing else on it, it runs
in a fresh directory:

- `simulate` on each shipped config in configs/ (its own replication
  count), with --threads 2, --out-dir and --reps-out: summary.csv, the
  --reps-out file and stdout;
- `simulate --dry-run` on each: stdout;
- `estimate` under bic and cv5 on the benchmark's estimate_large input
  at seed 1, built from this checkout's bench/inputs.py as
  regenerate.py builds it, the same files for both trees: stdout;
- `estimate --dry-run` on each of those two configs: stdout;
- every script in demos/ and tests/evidence/: stdout, keyed by file
  name, so a script that moved between the two is still paired.

It prints one line per output, "identical" or "differs" (or "only in"
one tree), and exits 1 if any output is not identical, else 0. A run
that exits non-zero has its exit code and stderr compared too. This is
not a test module: a full comparison runs eight studies of 2000
replications.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parent.parent.parent
CRITERIA = ("bic", "cv5")
SEED = 1
THREADS = "2"


def estimate_inputs(workdir):
    """{criterion: config path} and the data path of the estimate_large
    input at SEED, written into workdir by bench/inputs.py."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data, config = workdir / "sample.csv", workdir / "est.json"
    inputs.write_estimate_inputs(inputs.make_estimate_sample(str(ROOT), SEED), data, config)
    raw = json.loads(config.read_text())
    configs = {}
    for criterion in CRITERIA:
        configs[criterion] = workdir / f"est_{criterion}.json"
        configs[criterion].write_text(json.dumps(dict(raw, criterion=criterion)))
    return data, configs


def run(tree, workdir, argv):
    """stdout of `python argv` against tree's package, run in workdir; a
    non-zero exit appends its code and stderr."""
    # older trees let SURVEY_IMPUTE_SEED replace the configs' master_seed
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SURVEY_IMPUTE_SEED")}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=3600)
    if proc.returncode != 0:
        return proc.stdout + f"\n[exit {proc.returncode}]\n".encode() + proc.stderr
    return proc.stdout


def outputs(tree, workdir, data, est_configs):
    """{output name: bytes} of every run in tree, working in workdir."""
    out = {}
    for config in sorted((ROOT / "configs").glob("*.json")):
        name = config.stem
        sim = ["-m", "survey_impute", "simulate", "--config", str(config)]
        run_dir, reps = workdir / name, workdir / f"{name}_reps.csv"
        out[f"simulate {name} stdout"] = run(
            tree, workdir,
            [*sim, "--threads", THREADS, "--out-dir", str(run_dir), "--reps-out", str(reps)])
        for label, path in (("summary.csv", run_dir / "summary.csv"), ("--reps-out", reps)):
            if path.exists():
                out[f"simulate {name} {label}"] = path.read_bytes()
        out[f"simulate --dry-run {name} stdout"] = run(tree, workdir, [*sim, "--dry-run"])
    for criterion, config in est_configs.items():
        est = ["-m", "survey_impute", "estimate", "--data", str(data), "--config", str(config)]
        out[f"estimate {criterion} stdout"] = run(tree, workdir, est)
        out[f"estimate --dry-run {criterion} stdout"] = run(tree, workdir, [*est, "--dry-run"])
    for demo in [*tree.glob("demos/*.py"), *tree.glob("tests/evidence/*.py")]:
        out[f"demo {demo.name} stdout"] = run(tree, workdir, [str(demo)])
    return out


def main(argv):
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "src" / "survey_impute").is_dir():
        print("usage: compare_trees.py OTHER_CHECKOUT (a tree with src/survey_impute)",
              file=sys.stderr)
        return 2
    trees = (ROOT, pathlib.Path(argv[0]).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "input").mkdir()
        data, est_configs = estimate_inputs(tmp / "input")
        results = []
        for i, tree in enumerate(trees):
            (tmp / str(i)).mkdir()
            results.append(outputs(tree, tmp / str(i), data, est_configs))
    here, other = results
    differ = 0
    for name in sorted(here.keys() | other.keys()):
        if name not in other or name not in here:
            verdict = f"only in {trees[0] if name in here else trees[1]}"
        else:
            verdict = "identical" if here[name] == other[name] else "differs"
        differ += verdict != "identical"
        print(f"{verdict:>9}  {name}")
    print(f"{differ} of {len(here.keys() | other.keys())} outputs not identical "
          f"between {trees[0]} and {trees[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
