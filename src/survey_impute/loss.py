"""Oracle loss of an imputation model, conditional on the realized
sample, response set, and covariates.

Both routes below target the same quantity: with G denoting the HT-sum
gap over the missing units, sum_{S_m} (z_k' beta_hat - y_k) / pi_k,

    E[G^2] = l1 + l2 + sigma^2 * sum_{S_m} pi_k^{-2},

where l1 is the squared omitted-variable bias pushed through the
response-set projection and l2 is the estimation variance term. The
last term does not involve the model and is subtracted off, so l1 + l2
is what separates candidate models. A model that fit_candidates cannot
fit on the respondents has no loss: both routes return None for it.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import check_response, design_matrix, fit_candidates


@dataclass(frozen=True)
class LossValue:
    l1: float
    l2: float

    @property
    def total(self):
        return self.l1 + self.l2


def _noiseless_fit(sample, r, X, model, beta_true):
    """The noiseless respondent means mu_r under the full generating
    model, the model's fit to them (None where it cannot be fitted),
    w = sum_m z/pi over the missing and their noiseless HT total t1."""
    miss = ~r
    mu_r = beta_true[0] + X[r] @ beta_true[1:]
    fit = fit_candidates(X[r], mu_r, [model])[model]
    pi_m = sample.pi_first[miss]
    w = design_matrix(X[miss], model).T @ (1.0 / pi_m)
    t1 = float(np.sum((beta_true[0] + X[miss] @ beta_true[1:]) / pi_m))
    return mu_r, fit, w, t1


def loss_closed_form(sample, r, X, model, beta_true, sigma):
    """Exact l1 and l2 for one model on one realized configuration, or
    None where the model cannot be fitted.

    X and the boolean response array r (True for a respondent) are
    aligned with sample.unit_ids; beta_true has length p + 1 with the
    intercept first.
    """
    X = np.asarray(X, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    check_response(sample, r)
    if r.all():
        return LossValue(0.0, 0.0)
    _, fit, w, t1 = _noiseless_fit(sample, r, X, model, beta_true)
    if fit is None:
        return None
    u = np.linalg.solve(fit.R.T, w)
    l1 = (t1 - float(w @ fit.beta_hat)) ** 2
    l2 = sigma * sigma * float(u @ u)
    return LossValue(l1, l2)


def mc_loss_oracle(sample, r, X, model, beta_true, sigma, draws, rng,
                   chunk=50_000):
    """Monte Carlo estimate of l1 + l2 by redrawing the noise vector with
    the sample, response set, and covariates held fixed.

    Returns (estimate, standard_error), or None where the model cannot
    be fitted. Matches loss_closed_form up to MC error; the model-free
    sigma^2 * sum pi^-2 term is subtracted.
    """
    X = np.asarray(X, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    check_response(sample, r)
    if r.all():
        return 0.0, 0.0
    mu_r, fit, w, t1 = _noiseless_fit(sample, r, X, model, beta_true)
    if fit is None:
        return None
    inv_pi_m = 1.0 / sample.pi_first[~r]
    const = sigma * sigma * float(inv_pi_m @ inv_pi_m)

    samples = np.empty(draws, dtype=np.float64)
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        E_r = rng.standard_normal((mu_r.size, b))
        Y_r = mu_r[:, None] + sigma * E_r
        # beta_hat for every draw at once: R beta = Q'Y
        B = np.linalg.solve(fit.R, fit.Q.T @ Y_r)
        e_m = rng.standard_normal((inv_pi_m.size, b))
        G = w @ B - t1 - sigma * (inv_pi_m @ e_m)
        samples[done:done + b] = G * G - const
        done += b

    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("nan")
    return est, se
