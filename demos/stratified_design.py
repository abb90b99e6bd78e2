"""Stratified SRSWOR with Neyman allocation, side by side with plain SRSWOR.

The population is ranked by a linear combination of covariates that tracks
the study variable, cut into four contiguous strata of very different
sizes, and sampled with Neyman allocation (sd-proportional, floor of two
units per stratum). The script prints the realized allocation and the
resulting inclusion probabilities, writes out the joint-inclusion rules,
and finishes with a small Monte Carlo showing the design effect carry over
from the Horvitz-Thompson estimator to the imputed estimator.
"""

import numpy as np

from survey_impute import (
    ModelSpec,
    draw_srswor,
    draw_stratified,
    fit_candidates,
    generate_population,
    generate_response,
    ht_mean,
    imputed_means,
    stratum_sizes,
)

N = 1_000
n = 100
p = 6
BETA = np.array([0.0, 10.0, 9.0, 8.0, 0.0, 0.0, 0.0])
SIGMA = 40.0
RESPONSE = (-25.0, 0.1, np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0]))
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
SORT_COEFS = np.array([-3.0, -2.0, -4.0, -5.0, 0.0, 0.0])
FRACTIONS = (0.50, 0.25, 0.20, 0.05)
SEED = 20260816
B = 400
MODEL = ModelSpec((1, 2, 3))


def one_rep(X, y, resp_prob, draw, rng):
    """Imputed mean under the true working model for one realized sample."""
    r = generate_response(resp_prob, draw.unit_ids, rng)
    X_s, y_s = X[draw.unit_ids], y[draw.unit_ids]
    if r.sum() <= MODEL.p_alpha:
        return None, None
    fit = fit_candidates(X_s[r], y_s[r], [MODEL])[MODEL]
    mu = imputed_means(draw, r, X_s, y_s, {MODEL: fit})[MODEL]
    return ht_mean(draw, y_s), mu


def main():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 4]))
    X, y, resp_prob = generate_population(N, p, LAW, BETA, SIGMA, RESPONSE, rng)
    sort_key = X @ SORT_COEFS

    draw = draw_stratified(sort_key, X[:, 1], FRACTIONS, n, rng)
    # the draw's strata: contiguous blocks of the units ranked by sort_key
    order = np.argsort(sort_key, kind="stable")
    sizes = stratum_sizes(N, FRACTIONS)
    blocks = [np.sort(b) for b in np.split(order, np.cumsum(sizes)[:-1])]
    N_h, n_h = draw.population_sizes, draw.allocations
    print(f"N={N}, n={n}, strata fractions {FRACTIONS}, Neyman on sd(x2)")
    print(f"\n{'stratum':>8} {'N_h':>5} {'sd(x2)':>8} {'n_h':>4} {'pi_h':>7}")
    for h, block in enumerate(blocks):
        sd = np.std(X[block, 1], ddof=1)
        print(f"{h:>8} {N_h[h]:>5} {sd:>8.3f} {n_h[h]:>4}"
              f" {n_h[h] / N_h[h]:>7.3f}")
    print(f"\ninclusion probabilities vary by stratum;"
          f" sum over the population = {n_h.sum()} = n")

    # joint inclusion: two units of stratum h are drawn together with
    # probability n_h (n_h - 1) / (N_h (N_h - 1)); draws in different
    # strata are independent, so a unit of stratum 0 and one of stratum 1
    # are drawn together with probability pi_k pi_l
    pi = n_h / N_h
    within = n_h[0] * (n_h[0] - 1) / (N_h[0] * (N_h[0] - 1.0))
    across = pi[0] * pi[1]
    print(f"\njoint inclusion, same stratum:  {within:.5f}"
          f"  (product would say {pi[0] ** 2:.5f})")
    print(f"joint inclusion, cross stratum: {across:.5f}"
          f"  = product {across:.5f} exactly")

    # --- design effect, HT and imputed ------------------------------------
    print(f"\nMonte Carlo over {B} samples from the same population:")
    results = {}
    for name, drawer in (
        ("srswor", lambda r: draw_srswor(N, n, r)),
        ("stratified", lambda r: draw_stratified(sort_key, X[:, 1], FRACTIONS, n, r)),
    ):
        hts, mus = [], []
        for rep in range(B):
            r = np.random.default_rng(np.random.SeedSequence([SEED, 5, rep]))
            ht, mu = one_rep(X, y, resp_prob, drawer(r), r)
            if ht is not None:
                hts.append(ht)
                mus.append(mu)
        results[name] = (np.var(hts, ddof=1), np.var(mus, ddof=1), len(hts))

    print(f"\n{'design':>12} {'var(HT)':>9} {'var(imputed)':>13} {'reps':>5}")
    for name, (vh, vm, k) in results.items():
        print(f"{name:>12} {vh:>9.2f} {vm:>13.2f} {k:>5}")
    gain_ht = results["srswor"][0] / results["stratified"][0]
    gain_mu = results["srswor"][1] / results["stratified"][1]
    print(f"\nstratification cuts variance by {gain_ht:.2f}x for HT"
          f" and {gain_mu:.2f}x for the imputed estimator")


if __name__ == "__main__":
    main()
