"""Closed-form oracle loss and its Monte Carlo twin."""

import numpy as np
import pytest

from survey_impute.design import SampleDraw, draw_srswor
from survey_impute.estimators import ModelSpec, fit_candidates, nested_candidates
from survey_impute.loss import LossValue, loss_closed_form, mc_loss_oracle
from survey_impute.population import generate_population, generate_response

BETA = np.array([0.0, 10.0, 9.0, 9.0, 8.0, 8.0, 7.0] + [0.0] * 14)
ZETA = np.array([1, 1, 1, 1, 0, 0, 1, 1, 1] + [0] * 11, dtype=float)
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
RESPONSE = (-70.0, 0.1, ZETA)


def small_instance(seed=0, N=20, n=10, p=3, n_miss=4):
    rng = np.random.default_rng(seed)
    s = draw_srswor(N, n, rng)
    X = rng.gamma(5.0, 2.0, size=(n, p))
    r = np.ones(n, dtype=bool)
    r[rng.choice(n, size=n_miss, replace=False)] = False
    return s, r, X


class TestClosedForm:
    # x3 = 2 x1 makes (1, 3) collinear; 2 respondents cannot identify the
    # 4 coefficients of (1, 2, 3). Both oracles give None where
    # fit_candidates does
    @pytest.mark.parametrize("n_miss,included", [(4, (1, 3)), (8, (1, 2, 3))])
    def test_shares_the_fit_rank_rule(self, n_miss, included):
        s, r, X = small_instance(2, n_miss=n_miss)
        X[:, 2] = 2.0 * X[:, 0]
        m = ModelSpec(included)
        assert fit_candidates(X[r], np.zeros(r.sum()), [m])[m] is None
        assert loss_closed_form(s, r, X, m, np.zeros(4), 1.0) is None
        assert mc_loss_oracle(s, r, X, m, np.zeros(4), 1.0, 10,
                              np.random.default_rng(0)) is None

    def test_no_missing_is_zero(self):
        s, _, X = small_instance(1)
        r = np.ones(10, dtype=bool)
        lv = loss_closed_form(s, r, X, ModelSpec((1,)), np.zeros(4), 1.0)
        assert lv == LossValue(0.0, 0.0)
        assert lv.total == 0.0

    def test_correct_model_has_no_bias_term(self):
        s, r, X = small_instance(2)
        beta = np.array([1.0, 2.0, -1.0, 0.0])
        lv = loss_closed_form(s, r, X, ModelSpec((1, 2)), beta, 3.0)
        assert lv.l2 > 0
        assert lv.l1 <= 1e-9 * lv.l2

    def test_sigma_zero_correct_model_is_exact_zero(self):
        s, r, X = small_instance(3)
        beta = np.array([1.0, 2.0, -1.0, 0.5])
        lv = loss_closed_form(s, r, X, ModelSpec((1, 2, 3)), beta, 0.0)
        assert lv.l2 == 0.0
        assert lv.l1 <= 1e-16

    def test_sigma_scaling(self):
        s, r, X = small_instance(4)
        beta = np.array([0.0, 5.0, 4.0, 3.0])
        m = ModelSpec((1,))  # drops active covariates, so l1 > 0
        a = loss_closed_form(s, r, X, m, beta, 2.0)
        b = loss_closed_form(s, r, X, m, beta, 4.0)
        assert a.l1 > 0
        assert b.l1 == pytest.approx(a.l1, rel=1e-12)
        assert b.l2 == pytest.approx(4 * a.l2, rel=1e-12)
        assert b.total < 4 * a.total

    def test_l2_monotone_along_nested_chain(self):
        s, r, X = small_instance(5, N=40, n=20, p=5, n_miss=6)
        beta = np.zeros(6)
        l2 = [loss_closed_form(s, r, X, m, beta, 1.0).l2
              for m in nested_candidates(5)]
        assert all(b >= a - 1e-12 * max(abs(a), 1.0) for a, b in zip(l2, l2[1:]))

    def test_smallest_correct_model_minimizes(self):
        # among models containing the active set, extra columns only add
        # estimation variance
        s, r, X = small_instance(6, N=40, n=20, p=5, n_miss=6)
        beta = np.array([1.0, 3.0, -2.0, 0.0, 0.0, 0.0])
        totals = {m.included: loss_closed_form(s, r, X, m, beta, 2.0).total
                  for m in nested_candidates(5)}
        correct = {k: v for k, v in totals.items() if set(k) >= {1, 2}}
        assert min(correct, key=correct.get) == (1, 2)

    def test_permutation_invariance(self):
        s, r, X = small_instance(7)
        beta = np.array([0.5, 1.0, 2.0, 3.0])
        m = ModelSpec((1, 2))
        ref = loss_closed_form(s, r, X, m, beta, 1.5)
        perm = np.random.default_rng(8).permutation(s.n)
        s2 = SampleDraw(s.unit_ids[perm], s.strata[perm], s.population_sizes)
        r2 = r[perm]
        got = loss_closed_form(s2, r2, X[perm], m, beta, 1.5)
        assert got.l1 == pytest.approx(ref.l1, rel=1e-10, abs=1e-12)
        assert got.l2 == pytest.approx(ref.l2, rel=1e-10)


class TestMcOracle:
    def test_no_missing_is_zero(self):
        s, _, X = small_instance(9)
        r = np.ones(10, dtype=bool)
        est, se = mc_loss_oracle(s, r, X, ModelSpec((1,)), np.zeros(4), 1.0,
                                 1000, np.random.default_rng(0))
        assert (est, se) == (0.0, 0.0)

    def test_matches_closed_form(self):
        s, r, X = small_instance(10)
        beta = np.array([1.0, 4.0, -2.0, 1.0])
        for m in (ModelSpec((1,)), ModelSpec((1, 2, 3))):
            ref = loss_closed_form(s, r, X, m, beta, 2.0).total
            est, se = mc_loss_oracle(s, r, X, m, beta, 2.0,
                                     200_000, np.random.default_rng(11))
            assert se > 0
            assert abs(est - ref) <= 3 * se

    def test_any_chunking_stays_on_target(self):
        # chunk size changes how the noise stream is interleaved, never
        # what is being estimated
        s, r, X = small_instance(12)
        beta = np.array([0.0, 1.0, 1.0, 1.0])
        m = ModelSpec((1, 2))
        ref = loss_closed_form(s, r, X, m, beta, 1.0).total
        for chunk in (50_000, 256, 999):
            est, se = mc_loss_oracle(s, r, X, m, beta, 1.0, 50_000,
                                     np.random.default_rng(13), chunk=chunk)
            assert abs(est - ref) <= 4 * se


def test_dominant_frequency_of_smallest_correct_model():
    # across full-scale replications the loss ranking should almost always
    # bottom out at the model holding exactly the active covariates
    wins = 0
    reps = 500
    cands = nested_candidates(20)
    for rep in range(reps):
        rng = np.random.default_rng([77001, rep])
        X_pop, _, resp_prob = generate_population(5000, 20, LAW, BETA, 60.0, RESPONSE, rng)
        s = draw_srswor(5000, 500, rng)
        r = generate_response(resp_prob, s.unit_ids, rng)
        X = X_pop[s.unit_ids]
        totals = [loss_closed_form(s, r, X, m, BETA, 60.0).total for m in cands]
        if int(np.argmin(totals)) == 5:
            wins += 1
    assert wins / reps >= 0.95
