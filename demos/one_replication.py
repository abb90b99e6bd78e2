"""Walk one replication end to end, printing every intermediate quantity.

The script generates a finite population in which only the first three
covariates carry signal, draws a simple random sample without replacement,
and knocks out part of the study variable through a logistic response
mechanism that depends on covariates alone. Each nested working model is
then fit on the respondents and used to fill in the missing values. The
resulting imputed estimators are compared against two references: the
full-sample Horvitz-Thompson estimator (what we would compute with no
nonresponse) and the true population mean (known here because we built
the population ourselves).

The last section lets BIC choose among the candidates and carries the
chosen model through variance estimation to a confidence interval, which
is the part a practitioner actually reports.

Run:
    python3 demos/one_replication.py
"""

import numpy as np

from survey_impute import (
    classify_model,
    draw_srswor,
    estimate_model,
    fit_candidates,
    generate_population,
    generate_response,
    ht_mean,
    imputed_means,
    nested_candidates,
    select,
    true_support,
)

N = 2_000
n = 200
p = 8
BETA = np.array([0.0, 10.0, 9.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0])
SIGMA = 40.0
# response depends on x1, x2, x4; roughly 62% of sampled units answer
RESPONSE = (-25.0, 0.1, np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
SEED = 20260816


def main():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0]))

    # --- population -------------------------------------------------------
    X, y, resp_prob = generate_population(N, p, LAW, BETA, SIGMA, RESPONSE, rng)
    support, mu = true_support(BETA), float(y.mean())
    print(f"population: N={X.shape[0]}, p={X.shape[1]}, true support={support}")
    print(f"true mean mu = {mu:.4f}")
    print(f"mean response probability = {resp_prob.mean():.3f}")

    # --- sample and response ----------------------------------------------
    sample = draw_srswor(N, n, rng)
    y_s = y[sample.unit_ids]
    X_s = X[sample.unit_ids]
    r = generate_response(resp_prob, sample.unit_ids, rng)
    print(f"\nsample: n={sample.n}, pi_k = n/N = {sample.pi_first[0]:.3f} for every unit")
    print(f"respondents: {r.sum()}, missing: {(~r).sum()}")

    ht = ht_mean(sample, y_s)
    print(f"\nHorvitz-Thompson on the complete sample: {ht:.4f}"
          f"   (error {ht - mu:+.4f})")

    # --- every nested candidate -------------------------------------------
    candidates = nested_candidates(p)
    print(f"\n{'model':>8} {'class':>8} {'p_a':>4} {'rss':>12} {'mu_hat':>10} {'error':>9}")
    # one respondent fit per candidate, shared by everything below
    fits = fit_candidates(X_s[r], y_s[r], candidates)
    mu_hats = imputed_means(sample, r, X_s, y_s, fits)
    for model in candidates:
        fit = fits[model]
        mu_a = mu_hats[model]
        cls = classify_model(model, support)
        label = f"alpha{max(model.included)}"
        print(f"{label:>8} {cls:>8} {model.p_alpha:>4} {fit.rss:>12.1f}"
              f" {mu_a:>10.4f} {mu_a - mu:>+9.4f}")
    print("alpha1 is visibly biased; past alpha3 the rss plateaus and the fits chase noise")

    # --- selection, variance, interval --------------------------------------
    model, scores = select("bic", fits, y_s[r])
    chosen = f"alpha{max(model.included)}"
    print(f"\nBIC scores: " + ", ".join(
        f"alpha{max(m.included)}={s:.1f}" for m, s in list(scores.items())[:5]) + ", ...")
    print(f"BIC picks {chosen} ({classify_model(model, support)})")

    est = estimate_model(sample, r, X_s, y_s, model, fits[model], 0.95)
    print(f"\npoint estimate    {est.mu_hat:.4f}")
    print(f"sampling variance V1 = {est.v1:.4f}")
    print(f"imputation variance V2 = {est.v2:.4f}"
          f"  ({100 * est.v2 / est.v_total:.1f}% of the total)")
    print(f"95% CI [{est.lower:.4f}, {est.upper:.4f}]"
          f"   covers mu: {est.lower <= mu <= est.upper}")


if __name__ == "__main__":
    main()
