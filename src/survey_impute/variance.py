"""Variance estimation for the imputation estimator and the resulting
confidence interval, all read off the candidate set: the fits from
fit_candidates, which selection scores in their key order.

The estimator is linearized through per-unit values eta whose HT mean
reproduces mu_hat exactly; v1 is the design variance of that HT mean
and v2 adds the model component from predicting the missing y.
estimate_model reads both off one model's respondent fit (its Q, R and
residuals), with no design over the respondents and no new
factorization, and returns the model's Estimate; its callers pick the
model with selection.select first. confidence_interval gives (lower,
upper). The response set is the boolean array r over the sample, as
generate_response returns it: the respondents are X[r] and the missing
X[~r].
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateFitError, EstimationFailureError
from .estimators import check_response, design_matrix, imputed_means


@dataclass(frozen=True)
class Estimate:
    """One dataset's result: the selected model, its imputed mean, the
    variance components v1 and v2 with the sigma^2 behind v2, and the
    interval [lower, upper]."""

    model: object
    mu_hat: float
    v1: float
    v2: float
    sigma2_hat: float
    lower: float
    upper: float

    @property
    def v_total(self):
        return self.v1 + self.v2


def v1_hat(sample, eta):
    """Design variance of the HT mean of the eta values, stratum by
    stratum: (1/N^2) sum_h N_h^2 (1 - f_h) s_h^2 / n_h, where
    f_h = n_h / N_h and s_h^2 is the ddof=1 sample variance of eta in
    stratum h, read off the draw's stratum labels, whose counts are the
    draw's allocations n_h. SRSWOR is one stratum with N_h = N and
    n_h = n. Time and memory are O(n).

    For SRSWOR and stratified SRSWOR this equals the Horvitz-Thompson
    double sum (1/N^2) sum_kl (Delta_kl / pi_kl)(eta_k/pi_k)(eta_l/pi_l)
    exactly (Sarndal, Swensson & Wretman 1992, sections 3.7-3.8). The
    double sum over the matrix of joint inclusion probabilities is a
    test oracle in tests/oracles.py, not part of the package. A
    draw of one unit has no pairs and keeps the diagonal term
    (1 - pi)(eta/pi)^2 / N^2.
    """
    eta = np.asarray(eta, dtype=np.float64)
    N = sample.population_size
    if sample.n == 1:
        pi = float(sample.pi_first[0])
        return (1.0 - pi) * (float(eta[0]) / pi) ** 2 / (N * N)
    labels = sample.strata
    # as floats: the int64 product N_h (N_h - n_h) wraps past about 3e9
    N_h, n_h = sample.population_sizes.astype(float), sample.allocations
    mean = np.bincount(labels, weights=eta, minlength=n_h.size) / n_h
    dev2 = (eta - mean[labels]) ** 2
    s2 = np.bincount(labels, weights=dev2, minlength=n_h.size) / (n_h - 1)
    return float(np.sum(N_h * (N_h - n_h) * s2 / n_h)) / (N * N)


def sigma2_hat(fit):
    """Residual variance rss / (n_r - q) of a respondent fit, q its
    column count, read off the fit itself."""
    q = fit.R.shape[0]
    nu = fit.resid.size - q
    if nu <= 0:
        raise DegenerateFitError(
            f"no residual degrees of freedom: n_r={fit.resid.size}, p_alpha={q}"
        )
    return fit.rss / nu


def confidence_interval(point, v_total, level):
    """(lower, upper) of the normal interval point +/- z * sqrt(v_total)
    at the given confidence level, z from the lower tail (1 - level) / 2,
    which unlike (1 + level) / 2 never rounds to 1. A non-finite point or
    variance (finite data can overflow) or a negative variance raises
    EstimationFailureError."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if not (np.isfinite(point) and np.isfinite(v_total)):
        raise EstimationFailureError(f"non-finite estimate {point} or variance {v_total}")
    if v_total < 0.0:
        raise EstimationFailureError(f"negative variance estimate {v_total}")
    z = -NormalDist().inv_cdf((1.0 - level) / 2.0)
    half = z * np.sqrt(v_total)
    return float(point - half), float(point + half)


def estimate_model(sample, r, X, y, model, fit, level):
    """One model's Estimate from its respondent fit (a value of
    fit_candidates): mu_hat, v1, v2 and the interval at level. X, y and
    the boolean response array r (True for a respondent) are aligned
    with sample.unit_ids.

    c solves (sum_r z z') c = w for w = sum_m z / pi; the fit holds
    Z_r = QR, so on the respondents z'c = Q R^-T w, with no respondent
    design and no new factorization. eta is y + pi (z'c) e on the
    respondents, e the fit's residuals, and z'beta on the missing; its
    HT mean is mu_hat, and v1 = v1_hat(eta).
    v2 = sigma^2 (sum_m 1/pi + sum_r pi (z'c)^2) / N^2."""
    check_response(sample, r)
    miss = ~r
    pi = sample.pi_first
    Z_m = design_matrix(np.asarray(X)[miss], model)
    inv_m = 1.0 / pi[miss]
    zc = fit.Q @ np.linalg.solve(fit.R.T, Z_m.T @ inv_m)
    eta = np.empty(sample.n)
    eta[r] = np.asarray(y, dtype=np.float64)[r] + pi[r] * zc * fit.resid
    eta[miss] = Z_m @ fit.beta_hat
    v1 = v1_hat(sample, eta)
    s2 = sigma2_hat(fit)
    N = sample.population_size
    v2 = float(s2 * (inv_m.sum() + np.sum(pi[r] * zc**2)) / (N * N))
    mu = imputed_means(sample, r, X, y, {model: fit})[model]
    lower, upper = confidence_interval(mu, v1 + v2, level)
    return Estimate(model, mu, v1, v2, s2, lower, upper)
