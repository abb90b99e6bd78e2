"""Variance estimation for the imputation estimator and the resulting
confidence interval, all read off the candidate set: the fits from
fit_candidates, which selection scores in their key order.

The estimator is linearized through per-unit values eta_hat whose HT
mean reproduces mu_hat exactly; v1 is the design variance of that HT
mean and v2 adds the model component from predicting the missing y.
variance_for_model returns (v1, v2, sigma2_hat), confidence_interval
(lower, upper), and estimate_with_inference one Estimate per dataset
together with the selection scores, estimating each selected model once
when its callers share a memo.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateFitError, EstimationFailureError
from .estimators import design_matrix, imputed_mean
from .selection import select


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


def c_hat(sample, mask, Z, fit):
    """Solve (sum_r z z') c = sum_m z / pi for the weighting vector that
    carries the missing units' leverage back onto the respondents. Z is
    the model's design over the sample, rows aligned with
    sample.unit_ids.

    fit is the model's respondent fit from fit_candidates: sum_r z z' =
    R'R for its triangular factor R, so c solves against R' and then R,
    with no new factorization or rank check."""
    miss = mask.nonrespondents
    if miss.size == 0:
        return np.zeros(Z.shape[1])
    w = Z[miss].T @ (1.0 / sample.pi_first[miss])
    return np.linalg.solve(fit.R, np.linalg.solve(fit.R.T, w))


def eta_hat(sample, mask, Z, y, fit, zc):
    """Per-sampled-unit linearized values
    z'b + r_k (1 + pi_k c'z_k)(y_k - z'b), with Z the model's design over
    the sample (rows aligned with sample.unit_ids), b = fit.beta_hat and
    zc = Z @ c for c from c_hat; nonrespondents keep the bare prediction
    z'b. Their HT mean reproduces the imputation estimator."""
    y = np.asarray(y, dtype=np.float64)
    pred = Z @ fit.beta_hat
    eta = pred.copy()
    resp = mask.respondents
    adj = 1.0 + sample.pi_first[resp] * zc[resp]
    eta[resp] = pred[resp] + adj * (y[resp] - pred[resp])
    return eta


def v1_hat(sample, eta):
    """Design variance of the HT mean of the eta values, stratum by
    stratum: (1/N^2) sum_h N_h^2 (1 - f_h) s_h^2 / n_h, where
    f_h = n_h / N_h and s_h^2 is the ddof=1 sample variance of eta in
    stratum h, read off the draw's stratum labels (their counts are n_h,
    as `SampleDraw` checks). SRSWOR is one stratum with N_h = N and
    n_h = n. Time and memory are O(n).

    For SRSWOR and stratified SRSWOR this equals the Horvitz-Thompson
    double sum (1/N^2) sum_kl (Delta_kl / pi_kl)(eta_k/pi_k)(eta_l/pi_l)
    exactly (Sarndal, Swensson & Wretman 1992, sections 3.7-3.8). The
    double sum over `design.joint_matrix` is kept as a test oracle. A
    draw of one unit has no pairs and keeps the diagonal term
    (1 - pi)(eta/pi)^2 / N^2.
    """
    eta = np.asarray(eta, dtype=np.float64)
    design = sample.design
    N = design.population_size
    if sample.n == 1:
        pi = float(sample.pi_first[0])
        return (1.0 - pi) * (float(eta[0]) / pi) ** 2 / (N * N)
    labels = sample.strata
    # as floats: the int64 product N_h (N_h - n_h) wraps past about 3e9
    N_h, n_h = design.population_sizes.astype(float), design.allocations
    mean = np.bincount(labels, weights=eta, minlength=n_h.size) / n_h
    dev2 = (eta - mean[labels]) ** 2
    s2 = np.bincount(labels, weights=dev2, minlength=n_h.size) / (n_h - 1)
    return float(np.sum(N_h * (N_h - n_h) * s2 / n_h)) / (N * N)


def sigma2_hat(fit, model):
    nu = fit.resid.size - model.p_alpha
    if nu <= 0:
        raise DegenerateFitError(
            f"no residual degrees of freedom: n_r={fit.resid.size}, p_alpha={model.p_alpha}"
        )
    return fit.rss / nu


def v2_hat(sample, mask, sigma2, zc):
    """Model component: sigma^2 sum_k [1 - r_k + r_k (pi_k c'z_k)^2] /
    (N^2 pi_k), with zc = Z @ c as for eta_hat. Every summand is
    nonnegative."""
    pi = sample.pi_first
    r = np.zeros(pi.size)
    r[mask.respondents] = 1.0
    term = (1.0 - r) + r * (pi * zc) ** 2
    N = sample.design.population_size
    return float(sigma2 * np.sum(term / pi) / (N * N))


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


def variance_for_model(sample, mask, X, y, model, fit):
    """(v1, v2, sigma^2) of the model's imputation estimator. The
    model's design Z over the sample is built once, for c_hat and
    eta_hat, and Z @ c once, for eta_hat and v2_hat."""
    Z = design_matrix(X, model)
    zc = Z @ c_hat(sample, mask, Z, fit)
    v1 = v1_hat(sample, eta_hat(sample, mask, Z, y, fit, zc))
    s2 = sigma2_hat(fit, model)
    v2 = v2_hat(sample, mask, s2, zc)
    return v1, v2, s2


def estimate_with_inference(sample, mask, X, y, fits, criterion, level, rng=None,
                            estimates=None):
    """Full pipeline on one dataset: select a model on the respondents,
    impute, estimate the variance, and build the interval, all from the
    candidate set fits (from fit_candidates), scored in its key order.
    estimates, when given, is a {model: Estimate} memo shared by the
    calls on one dataset at one level: a model already in it is not
    estimated again, and a new one is added, so criteria that pick the
    same model share one Estimate.
    -> (Estimate, the selection's {model: score})."""
    y_r = np.asarray(y, dtype=np.float64)[mask.respondents]
    model, scores = select(criterion, fits, y_r, rng)
    if estimates is None:
        estimates = {}
    if model not in estimates:
        fit = fits[model]
        mu = imputed_mean(sample, mask, X, y, model, fit)
        v1, v2, s2 = variance_for_model(sample, mask, X, y, model, fit)
        lower, upper = confidence_interval(mu, v1 + v2, level)
        estimates[model] = Estimate(model, mu, v1, v2, s2, lower, upper)
    return estimates[model], scores
