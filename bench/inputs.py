"""Seeded inputs for the benchmark workloads.

Everything here uses numpy only, never the package under test, so a
change to the program cannot change what it is fed. The same seed gives
the same files.
"""

import json
import os

import numpy as np

STUDY_BASE = {
    "study_srswor": "configs/srswor_n500.json",
    "study_stratified": "configs/stratified_n500.json",
}
# the large sample reuses the population model, strata and allocation
# rule of the shipped stratified study, scaled up twelvefold
ESTIMATE_BASE = "configs/stratified_n500.json"
ESTIMATE_POPULATION = 60_000
ESTIMATE_SAMPLE = 6_000


def load_base(root, rel):
    with open(os.path.join(root, rel)) as fh:
        return json.load(fh)


def study_master_seed(seed, call):
    """Distinct master_seed for every simulate call of a run."""
    return seed * 100_000 + call


def write_study_config(base, path, master_seed, reps):
    cfg = dict(base, master_seed=master_seed, replications=reps)
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def _largest_remainder(weights, total):
    quota = np.asarray(weights, dtype=np.float64) * (total / np.sum(weights))
    base = np.floor(quota).astype(np.int64)
    order = np.lexsort((np.arange(quota.size), -(quota - base)))
    base[order[: total - int(base.sum())]] += 1
    return base


def make_estimate_sample(root, seed):
    """A stratified sample with item nonresponse, as a dict of arrays
    (kept for the oracle) plus the design it was drawn under."""
    base = load_base(root, ESTIMATE_BASE)
    pop, des = base["population"], base["design"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    N, n, p = ESTIMATE_POPULATION, ESTIMATE_SAMPLE, pop["p"]
    law = pop["covariate_law"]
    if law["name"] != "gamma":
        raise ValueError(f"{ESTIMATE_BASE}: expected a gamma covariate law")
    X = rng.gamma(law["shape"], law["scale"], size=(N, p))
    beta = np.asarray(pop["beta"], dtype=np.float64)
    y = beta[0] + X @ beta[1:] + pop["sigma"] * rng.standard_normal(N)
    arg = pop["response_scale"] * (pop["response_offset"] + X @ np.asarray(pop["response_coefs"]))
    resp_prob = 1.0 / (1.0 + np.exp(-arg))

    sizes = _largest_remainder(des["fractions"], N)
    order = np.argsort(X @ np.asarray(des["sort_coefs"]), kind="stable")
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    alloc_x = X[:, des["alloc_covariate"] - 1]
    sds = np.array([np.std(alloc_x[b], ddof=1) for b in blocks])
    alloc = _largest_remainder(sizes * sds, n)  # Neyman allocation
    if np.any(alloc < 2) or np.any(alloc > sizes):
        raise ValueError(f"Neyman allocation {alloc.tolist()} outside [2, N_h]")

    strata = []
    ids, pis, labels = [], [], []
    for h, (block, n_h) in enumerate(zip(blocks, alloc)):
        picked = np.sort(rng.choice(block, size=int(n_h), replace=False))
        strata.append((int(block.size), picked))
        ids.append(picked)
        pis.append(np.full(picked.size, int(n_h) / int(block.size)))
        labels.append(np.full(picked.size, h))
    ids = np.concatenate(ids)
    order = np.argsort(ids)
    ids = ids[order]
    responded = rng.random(ids.size) < resp_prob[ids]
    y_s = np.where(responded, y[ids], np.nan)
    return {
        "ids": ids,
        "X": X[ids],
        "y": y_s,
        "pi": np.concatenate(pis)[order],
        "stratum": np.concatenate(labels)[order],
        "strata": strata,
        "N": N,
        "master_seed": seed,
    }


def write_estimate_inputs(sample, csv_path, config_path):
    """The sample CSV (floats at full precision, so the program's check
    that pi matches the declared design holds) and the estimate config."""
    p = sample["X"].shape[1]
    header = ["unit_id"] + [f"x{j}" for j in range(1, p + 1)] + ["y", "pi"]
    lines = [",".join(header)]
    for uid, x, yv, pv in zip(sample["ids"], sample["X"], sample["y"], sample["pi"]):
        y_txt = "" if np.isnan(yv) else repr(float(yv))
        lines.append(",".join([str(int(uid)), *map(repr, x.tolist()), y_txt, repr(float(pv))]))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = {
        "criterion": "bic",
        "level": 0.95,
        "candidates": "nested",
        "master_seed": sample["master_seed"],
        "design": {
            "kind": "stratified",
            "strata": [
                {"N": N_h, "sampled_units": units.tolist()} for N_h, units in sample["strata"]
            ],
        },
    }
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
