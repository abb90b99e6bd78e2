"""Build the variance estimator piece by piece and verify its key identity.

The imputed estimator is linearized by treating the regression fit as an
estimating-equation solution: each respondent's value is expanded into a
pseudo-value eta that absorbs both its own residual and the influence its
residual exerts on every imputed unit. The Horvitz-Thompson mean of eta
then reproduces the imputed point estimate exactly, which is the identity
that makes the plug-in variance formula legitimate. V1 is the design
variance of eta's HT mean, (1 - f) s^2 / n under SRSWOR; V2 adds
the (typically small) noise contribution from imputing rather than
observing. The script spells c, eta and V2 out from their definitions
and compares them with estimate_model, which reads the same quantities
off the respondent fit.
"""

import numpy as np

from survey_impute import (
    ModelSpec,
    confidence_interval,
    design_matrix,
    draw_srswor,
    estimate_model,
    fit_candidates,
    generate_population,
    generate_response,
    ht_mean,
    imputed_means,
    sigma2_hat,
    v1_hat,
)

N = 2_000
n = 200
p = 8
BETA = np.array([0.0, 10.0, 9.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0])
SIGMA = 40.0
RESPONSE = (-25.0, 0.1, np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
SEED = 20260816


def pseudo_values(sample, r, X, y, model, fit):
    """c and eta from their definitions, over the model's design Z on
    the whole sample: c solves (sum_r z z') c = sum_m z / pi, and eta is
    z'b + r_k (1 + pi_k c'z_k)(y_k - z'b) for the fitted b."""
    pi = sample.pi_first
    Z = design_matrix(X, model)
    w = Z[~r].T @ (1.0 / pi[~r])
    c = np.linalg.solve(Z[r].T @ Z[r], w)
    pred = Z @ fit.beta_hat
    eta = pred.copy()
    eta[r] += (1.0 + pi[r] * (Z[r] @ c)) * (y[r] - pred[r])
    return Z, c, eta


def main():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 2]))
    X, y, resp_prob = generate_population(N, p, LAW, BETA, SIGMA, RESPONSE, rng)
    mu = float(y.mean())
    sample = draw_srswor(N, n, rng)
    X_s = X[sample.unit_ids]
    y_s = y[sample.unit_ids]
    r = generate_response(resp_prob, sample.unit_ids, rng)

    model = ModelSpec((1, 2, 3))
    fit = fit_candidates(X_s[r], y_s[r], [model])[model]
    # the package's estimate, which the steps below rebuild by hand
    est = estimate_model(sample, r, X_s, y_s, model, fit, 0.95)
    mu_hat = est.mu_hat
    print(f"n={sample.n}, respondents={r.sum()}, model {model.label()},"
          f" mu_hat = {mu_hat:.6f}")

    # --- step 1: the correction vector --------------------------------------
    Z, c, eta = pseudo_values(sample, r, X_s, y_s, model, fit)
    print(f"\nc_hat = {np.array2string(c, precision=4)}")
    print("c weights each respondent residual by how much leverage it has"
          " over the imputed units")

    # --- step 2: pseudo-values and the exact identity ------------------------
    ht_eta = ht_mean(sample, eta)
    print(f"\nHT mean of eta = {ht_eta:.6f}")
    print(f"gap to mu_hat  = {abs(ht_eta - mu_hat):.2e}   (identical up to rounding)")

    # --- step 3: the two variance components ---------------------------------
    v1 = v1_hat(sample, eta)
    s2 = sigma2_hat(fit)
    # sigma^2 sum_k [1 - r_k + r_k (pi_k c'z_k)^2] / (N^2 pi_k)
    pi = sample.pi_first
    term = np.where(r, (pi * (Z @ c)) ** 2, 1.0)
    v2 = s2 * float(np.sum(term / pi)) / N**2
    print(f"\nV1 (design variance of the eta total) = {v1:.4f}")
    print(f"sigma2_hat = {s2:.1f}   (true sigma^2 = {SIGMA ** 2:.0f})")
    print(f"V2 (imputation noise)                 = {v2:.4f}")
    print(f"relative gap to estimate_model: V1 {abs(v1 - est.v1) / est.v1:.1e},"
          f" V2 {abs(v2 - est.v2) / est.v2:.1e}   (it reads them off the fit's QR)")

    lower, upper = confidence_interval(mu_hat, v1 + v2, 0.95)
    print(f"\n95% CI [{lower:.4f}, {upper:.4f}]"
          f"   true mean {mu:.4f}, covered: {lower <= mu <= upper}")

    # the identity is structural, not luck: check it across fresh draws
    worst = 0.0
    for rep in range(50):
        r2 = np.random.default_rng(np.random.SeedSequence([SEED, 3, rep]))
        s = draw_srswor(N, n, r2)
        m = generate_response(resp_prob, s.unit_ids, r2)
        if m.sum() <= model.p_alpha or m.all():
            continue
        Xs, ys = X[s.unit_ids], y[s.unit_ids]
        f = fit_candidates(Xs[m], ys[m], [model])[model]
        mu_r = imputed_means(s, m, Xs, ys, {model: f})[model]
        _, _, e = pseudo_values(s, m, Xs, ys, model, f)
        worst = max(worst, abs(ht_mean(s, e) - mu_r) / abs(mu_r))
    print(f"\nidentity over 50 fresh draws: worst relative gap = {worst:.2e}")


if __name__ == "__main__":
    main()
