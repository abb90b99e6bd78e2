"""Output checks, run after the timed region.

Studies: summary.csv against a stored reference on the default seed
(selected-class frequencies identical, every other number equal to the
printed precision), finiteness on any seed. Estimate: the CLI's JSON
against an oracle computed here with plain numpy least squares and the
stratum-wise closed form of the design variance.
"""

import csv
import io
import math

import numpy as np

FREQ_COLUMNS = ("freqW", "freqTrue", "freqOverfit")
REL_TOL = 1e-10
# the CLI prints 10 significant digits, so half a unit in the last one
# (5e-10 relative at most) plus arithmetic differences stays below this
ORACLE_REL_TOL = 1e-9


def parse_summary(text):
    """summary.csv text -> {(scope, name): {column: float or None}}."""
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row.pop("scope"), row.pop("name"))
        rows[key] = {k: (float(v) if v != "" else None) for k, v in row.items()}
    return rows


def _close_printed(a, b):
    """Equal to REL_TOL relative, or to one unit in the tenth significant
    digit: summary.csv prints 10 significant digits, so that is the
    finest difference the file can show."""
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    last_digit = 10.0 ** (math.floor(math.log10(scale)) - 9)
    return abs(a - b) <= max(REL_TOL * scale, 1.01 * last_digit)


def compare_summary(text, ref_text):
    """-> list of mismatch descriptions (empty when the files agree)."""
    got, ref = parse_summary(text), parse_summary(ref_text)
    if list(got) != list(ref):
        return [f"rows differ: {list(got)} vs {list(ref)}"]
    problems = []
    for key, ref_row in ref.items():
        for col, r in ref_row.items():
            g = got[key].get(col)
            if (g is None) != (r is None):
                problems.append(f"{key} {col}: {g} vs reference {r}")
            elif g is None:
                continue
            elif col in FREQ_COLUMNS and g != r:
                problems.append(f"{key} {col}: {g} vs reference {r} (must be identical)")
            elif not _close_printed(g, r):
                problems.append(f"{key} {col}: {g!r} vs reference {r!r}")
    return problems


def check_summary_finite(text):
    """-> list of problems: a non-finite number, or a failures cell
    that is missing."""
    problems = []
    for key, row in parse_summary(text).items():
        if row.get("failures") is None:
            problems.append(f"{key}: failures column empty")
        for col, v in row.items():
            if v is not None and not math.isfinite(v):
                problems.append(f"{key} {col}: {v}")
    return problems


def _lstsq(Z, y):
    beta, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ beta
    return beta, float(resid @ resid)


def estimate_oracle(sample):
    """Independent BIC selection over the nested models, the imputed HT
    mean, and the reverse-framework v1 (closed form per stratum) and v2."""
    X, y, pi, N = sample["X"], sample["y"], sample["pi"], sample["N"]
    resp = ~np.isnan(y)
    n_r = int(resp.sum())
    ones = np.ones((X.shape[0], 1))

    def design(j):
        return np.hstack([ones, X[:, :j]])

    scores = []
    for j in range(1, X.shape[1] + 1):
        _, rss = _lstsq(design(j)[resp], y[resp])
        scores.append(n_r * math.log(rss / n_r) + math.log(n_r) * (j + 1))
    j = int(np.argmin(scores)) + 1  # argmin keeps the first, i.e. smaller, model on ties

    Z = design(j)
    beta, rss = _lstsq(Z[resp], y[resp])
    pred = Z @ beta
    filled = np.where(resp, y, pred)
    mu_hat = float(np.sum(filled / pi) / N)

    Z_r, Z_m = Z[resp], Z[~resp]
    c = np.linalg.solve(Z_r.T @ Z_r, Z_m.T @ (1.0 / pi[~resp]))
    eta = pred.copy()
    eta[resp] += (1.0 + pi[resp] * (Z_r @ c)) * (y[resp] - pred[resp])

    v1 = 0.0
    for h, (N_h, units) in enumerate(sample["strata"]):
        e = eta[sample["stratum"] == h]
        n_h = units.size
        v1 += N_h * N_h * (1.0 - n_h / N_h) * np.var(e, ddof=1) / n_h
    v1 /= N * N

    sigma2 = rss / (n_r - Z.shape[1])
    r = resp.astype(np.float64)
    v2 = sigma2 * float(np.sum(((1.0 - r) + r * (pi * (Z @ c)) ** 2) / pi)) / (N * N)
    return {
        "included": list(range(1, j + 1)),
        "n": int(y.size),
        "n_respondents": n_r,
        "mu_hat": mu_hat,
        "v1": float(v1),
        "v2": v2,
        "sigma2_hat": sigma2,
    }


def check_estimate(out, oracle):
    """-> list of problems with one `estimate` JSON output."""
    problems = []
    sel = out.get("selected", {})
    if sel.get("included") != oracle["included"] or sel.get("with_intercept") is not True:
        problems.append(f"selected {sel} vs oracle {oracle['included']} with intercept")
    for key in ("n", "n_respondents"):
        if out.get(key) != oracle[key]:
            problems.append(f"{key}: {out.get(key)} vs oracle {oracle[key]}")
    for key in ("mu_hat", "v1", "v2", "sigma2_hat"):
        got, want = out.get(key), oracle[key]
        if not isinstance(got, float) or abs(got - want) > ORACLE_REL_TOL * abs(want):
            problems.append(f"{key}: {got!r} vs oracle {want!r}")
    ci = out.get("ci", {})
    lo, hi, mu, v2 = ci.get("lower"), ci.get("upper"), out.get("mu_hat"), out.get("v2")
    if not all(isinstance(v, float) and math.isfinite(v) for v in (lo, hi, mu, v2)):
        problems.append(f"non-finite output: lower={lo} upper={hi} mu_hat={mu} v2={v2}")
    else:
        if not lo <= mu <= hi:
            problems.append(f"mu_hat {mu} outside [{lo}, {hi}]")
        if v2 < 0.0:
            problems.append(f"v2 {v2} < 0")
    return problems
