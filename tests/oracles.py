"""Exact general forms that the package does not ship, kept as test
references for the production path.

joint_matrix is the pi_kl matrix of stratified SRSWOR, from the stratum
sizes N_h, the allocations n_h and the units' stratum labels alone, so
that it serves a draw (`SampleDraw` holds all three) and a whole
population alike. Its Horvitz-Thompson double sum v1_double_sum checks
`variance.v1_hat`'s O(n) stratum-wise form. make_folds is the K-fold cut that
`selection.score_candidates` applies to each candidate's permutation,
written from its definition so that a change to the production cut
shows against the refits.

The linearized variance's pieces are references for
`variance.estimate_model`, which reads them off the respondent fit.
Each is written from its definition over the model's design Z on the
whole sample, rows aligned with sample.unit_ids: c from the normal
equations, eta unit by unit, v2 as its per-unit sum, and v1 as the
double sum over joint_matrix. estimate_and_eta reads the eta that
estimate_model computes, which it keeps internal, where it is passed to
v1_hat.

read_rows is the data-file reader written as a csv-module loop, one row
at a time, for `cli.read_estimate_csv`'s single np.loadtxt parse and the
line it names for the first faulty row.
"""

import csv
import math

import numpy as np
import pytest

import survey_impute.variance as variance
from survey_impute.cli import _data_file
from survey_impute.errors import ConfigError, InvalidDesignError
from survey_impute.estimators import design_matrix

INT64 = np.iinfo(np.int64)


def joint_matrix(population_sizes, allocations, strata):
    """Matrix of pi_kl over distinct units in the given strata of a
    stratified SRSWOR design of stratum sizes N_h and allocations n_h, with
    pi_kk = pi_k on the diagonal: n_h (n_h - 1) / (N_h (N_h - 1)) within
    stratum h and pi_k pi_l across strata, whose draws are independent.

    It costs O(m^2) time and memory for m units. The Horvitz-Thompson
    double sum built from it must equal the O(n) stratum-wise form that
    `variance.v1_hat` evaluates.
    """
    N_h = np.asarray(population_sizes, dtype=np.int64)
    n_h = np.asarray(allocations, dtype=np.int64)
    if np.any(N_h < 2):
        raise InvalidDesignError("joint inclusion undefined for N_h < 2")
    labels = np.asarray(strata, dtype=np.int64)
    pi = (n_h / N_h)[labels]
    # as floats: the int64 product N_h (N_h - 1) wraps past about 3e9
    within = n_h * (n_h - 1) / (N_h.astype(float) * (N_h - 1))
    same = labels[:, None] == labels[None, :]
    J = np.where(same, within[labels][:, None], pi[:, None] * pi[None, :])
    np.fill_diagonal(J, pi)
    return J


def make_folds(n, k, rng):
    """k folds of one rng.permutation(n), cut in order: each holds
    n // k units, and the first n mod k hold one more."""
    perm = rng.permutation(n)
    sizes = [n // k + (i < n % k) for i in range(k)]
    return np.split(perm, np.cumsum(sizes)[:-1])


def estimate_and_eta(sample, r, X, y, model, fit):
    """estimate_model's Estimate at level 0.95, and the eta it passes to
    variance.v1_hat, captured by wrapping that name for the one call."""
    real, seen = variance.v1_hat, []

    def capture(s, eta):
        seen.append(np.array(eta, copy=True))
        return real(s, eta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variance, "v1_hat", capture)
        est = variance.estimate_model(sample, r, X, y, model, fit, 0.95)
    (eta,) = seen
    return est, eta


def c_oracle(sample, r, X, model):
    """The c solving (sum_r z z') c = sum_m z / pi."""
    Z = design_matrix(X, model)
    Z_r = Z[r]
    w = Z[~r].T @ (1.0 / sample.pi_first[~r])
    return np.linalg.solve(Z_r.T @ Z_r, w)


def eta_oracle(sample, r, X, y, model, beta, c):
    """Per sampled unit, z'b + r_k (1 + pi_k c'z_k)(y_k - z'b) for the
    coefficients b = beta: the bare prediction on the missing."""
    Z = design_matrix(X, model)
    pred = Z @ beta
    eta = pred.copy()
    for k in np.flatnonzero(r):
        adj = 1.0 + sample.pi_first[k] * float(Z[k] @ c)
        eta[k] = pred[k] + adj * (float(y[k]) - pred[k])
    return eta


def v2_oracle(sample, r, sigma2, X, model, c):
    """sigma^2 sum_k [1 - r_k + r_k (pi_k c'z_k)^2] / (N^2 pi_k)."""
    Z = design_matrix(X, model)
    total = 0.0
    for k in range(sample.n):
        r_k = 1.0 if r[k] else 0.0
        pi_k = sample.pi_first[k]
        total += ((1.0 - r_k) + r_k * (pi_k * float(Z[k] @ c)) ** 2) / pi_k
    N = sample.population_size
    return sigma2 * total / N**2


def v1_double_sum(sample, eta):
    """(1/N^2) sum_kl (Delta_kl / pi_kl)(eta_k / pi_k)(eta_l / pi_l),
    each pi_kl read off joint_matrix, and the same sum of the terms'
    absolute values, the scale of its rounding error."""
    pi = sample.pi_first
    J = joint_matrix(sample.population_sizes, sample.allocations, sample.strata)
    t = eta / pi
    terms = (J - np.outer(pi, pi)) / J * np.outer(t, t)
    N2 = sample.population_size ** 2
    return float(terms.sum()) / N2, float(np.abs(terms).sum()) / N2


def _number(cell):
    """A number cell's text, in the one accepted dialect: ASCII, with
    no "_" even where Python's int() and float() take one."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {cell!r}")
    return text


def read_rows(path):
    """The data rows through the csv module, one at a time: (ids, X, y,
    pi, resp) in file order. The first faulty row raises a ConfigError
    at its line, the header being line 1 and a blank line a line; a
    missing y is the only NaN allowed."""
    with _data_file(path) as (header, lines):
        reader = csv.reader(lines)
        p = len(header) - 3
        ids, X, y, pi, resp = [], [], [], [], []
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != p + 3:
                    raise ConfigError(f"line {lineno}", f"expected {p + 3} fields, got {len(row)}")
                try:
                    uid = int(_number(row[0]))
                    x = [float(_number(v)) for v in row[1:p + 1]]
                    missing = row[p + 1].strip() == ""
                    y_k = np.nan if missing else float(_number(row[p + 1]))
                    pi_k = float(_number(row[p + 2]))
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}", f"bad value: {exc}")
                if not INT64.min <= uid <= INT64.max:
                    raise ConfigError(f"line {lineno}", f"unit_id {uid} does not fit in 64 bits")
                finite = [*map(math.isfinite, x), missing or math.isfinite(y_k),
                          math.isfinite(pi_k)]
                if not all(finite):  # float() reads nan and inf
                    name = header[1 + finite.index(False)]
                    raise ConfigError(f"line {lineno}", f"{name} is not a finite number")
                ids.append(uid)
                X.append(x)
                y.append(y_k)
                pi.append(pi_k)
                resp.append(not missing)
        except csv.Error as exc:  # e.g. an unbalanced quote runs past the field size limit
            raise ConfigError(f"line {lineno + 1}", f"malformed CSV: {exc}")
    return (np.asarray(ids, dtype=np.int64), np.asarray(X, dtype=np.float64).reshape(-1, p),
            np.asarray(y, dtype=np.float64), np.asarray(pi, dtype=np.float64),
            np.asarray(resp, dtype=bool))
