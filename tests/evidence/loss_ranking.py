"""Rank working models by exact prediction loss, then confirm by simulation.

Holding the sample, the response set, and the covariates fixed, the loss of
an imputed estimator splits into a squared-bias piece (l1, exactly zero for
any model containing the full true support) and a noise-propagation piece
(l2, strictly increasing as columns are added). The smallest correct model
wins both ways: no bias, least noise. A Monte Carlo oracle that redraws
only the noise vector checks the closed form on two of the candidates.

Both loss forms are test oracles, not package API, so the script reads
them from tests/oracles.py. Run:
    PYTHONPATH=src python3 tests/evidence/loss_ranking.py
"""

import pathlib
import sys

import numpy as np

from survey_impute import (
    draw_srswor,
    generate_population,
    generate_response,
    nested_candidates,
    true_support,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from oracles import loss_closed_form, mc_loss_oracle  # noqa: E402

N = 2_000
n = 200
p = 8
BETA = np.array([0.0, 10.0, 9.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0])
SIGMA = 40.0
RESPONSE = (-25.0, 0.1, np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
SEED = 20260816
MC_DRAWS = 200_000


def main():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
    X, _, resp_prob = generate_population(N, p, LAW, BETA, SIGMA, RESPONSE, rng)
    sample = draw_srswor(N, n, rng)
    X_s = X[sample.unit_ids]
    r = generate_response(resp_prob, sample.unit_ids, rng)
    print(f"N={N}, n={n}, respondents={r.sum()}, missing={(~r).sum()}, "
          f"true support={true_support(BETA)}")

    # --- closed form for every nested model ---------------------------------
    candidates = nested_candidates(p)
    losses = [loss_closed_form(sample, r, X_s, m, BETA, SIGMA) for m in candidates]
    totals = [lv.total for lv in losses]
    best = int(np.argmin(totals))

    print(f"\n{'model':>8} {'l1 (bias^2)':>14} {'l2 (noise)':>12} {'total':>12}")
    for j, (m, lv) in enumerate(zip(candidates, losses)):
        tag = "  <- minimum" if j == best else ""
        print(f"  alpha{max(m.included)} {lv.l1:>14.4g} {lv.l2:>12.4g}"
              f" {lv.total:>12.4g}{tag}")
    print("l1 vanishes from alpha3 on; l2 keeps climbing with every column")

    # --- Monte Carlo oracle on an underfit and the smallest correct model ---
    print(f"\noracle check ({MC_DRAWS:,} noise redraws):")
    for j in (1, 2):
        model = candidates[j]
        exact = losses[j].total
        est, se = mc_loss_oracle(sample, r, X_s, model, BETA, SIGMA, MC_DRAWS, rng)
        z = (est - exact) / se
        print(f"  alpha{max(model.included)}: closed form {exact:.6g},"
              f" MC {est:.6g} +/- {se:.2g}  (z = {z:+.2f})")


if __name__ == "__main__":
    main()
