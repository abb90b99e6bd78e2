"""Linearized variance estimator, its pieces, and the interval.

estimate_model keeps z'c and eta internal, so the tests read eta where
it is passed to v1_hat, and check c through it: on a respondent,
eta = y + pi (z'c) e.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from oracles import c_oracle, estimate_and_eta, eta_oracle, joint_matrix, v2_oracle

from survey_impute.design import (
    SampleDraw,
    draw_srswor,
    draw_stratified,
)
from survey_impute.errors import DegenerateFitError, EstimationFailureError
from survey_impute.estimators import (FitResult, ModelSpec, design_matrix, fit_candidates,
                                      ht_mean, imputed_means)
from survey_impute.loss import loss_closed_form, mc_loss_oracle
from survey_impute.population import generate_population, generate_response
from survey_impute.selection import select
from survey_impute.variance import (
    confidence_interval,
    estimate_model,
    sigma2_hat,
    v1_hat,
)

BETA = np.array([0.0, 10.0, 9.0, 9.0, 8.0, 8.0, 7.0] + [0.0] * 14)
ZETA = np.array([1, 1, 1, 1, 0, 0, 1, 1, 1] + [0] * 11, dtype=float)
LAW = {"name": "gamma", "shape": 5.0, "scale": 2.0}
RESPONSE = (-70.0, 0.1, ZETA)
TRUE_MODEL = ModelSpec(tuple(range(1, 7)))


def srswor_instance(seed, N=30, n=12, p=3, resp=0.6):
    rng = np.random.default_rng(seed)
    s = draw_srswor(N, n, rng)
    X = rng.gamma(5.0, 2.0, size=(n, p))
    y = 1.0 + X @ np.arange(1.0, p + 1) + rng.normal(size=n)
    r = rng.random(n) < resp
    if r.all() or r.sum() <= p + 1:
        raise AssertionError("instance seed produced a degenerate split")
    return s, r, X, y


def stratified_instance(seed, p=2):
    rng = np.random.default_rng(seed)
    key = rng.normal(size=20)
    s = draw_stratified(key, np.abs(key) + 1.0, (0.5, 0.5), 8, rng)
    n = s.n
    X = rng.gamma(5.0, 2.0, size=(n, p))
    y = 2.0 + X @ np.arange(1.0, p + 1) + rng.normal(size=n)
    r = rng.random(n) < 0.6
    if r.all() or r.sum() <= p + 1:
        raise AssertionError("instance seed produced a degenerate split")
    return s, r, X, y


def respondent_fit(r, X, y, model):
    return fit_candidates(X[r], y[r], [model])[model]


class TestCHat:
    def test_full_response_is_zero(self):
        # w = 0, so z'c = 0: eta is y itself and v2 vanishes
        s, _, X, y = srswor_instance(1)
        r = np.ones(s.n, dtype=bool)
        m = ModelSpec((1, 2))
        est, eta = estimate_and_eta(s, r, X, y, m, respondent_fit(r, X, y, m))
        assert np.array_equal(eta, y)
        assert est.v2 == 0.0

    def test_intercept_only_scalar(self):
        s, r, X, y = srswor_instance(2)
        m = ModelSpec(())
        fit = respondent_fit(r, X, y, m)
        _, eta = estimate_and_eta(s, r, X, y, m, fit)
        pi = s.n / s.population_size
        c = (~r).sum() / (pi * r.sum())
        assert np.allclose(eta[r], y[r] + pi * c * fit.resid, rtol=1e-12, atol=0.0)

    def test_dense_solve_oracle(self):
        s, r, X, y = srswor_instance(3)
        m = ModelSpec((1, 3))
        fit = respondent_fit(r, X, y, m)
        _, eta = estimate_and_eta(s, r, X, y, m, fit)
        zc = design_matrix(X, m) @ c_oracle(s, r, X, m)
        want = y[r] + s.pi_first[r] * zc[r] * fit.resid
        assert np.allclose(eta[r], want, atol=1e-10)

    @pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9])
    def test_near_collinear_design_that_the_fit_accepts(self, eps):
        # x2 = x1 + eps * noise passes the QR rank rule of the fit, but
        # Z'Z squares its condition number past what a Cholesky factor
        # of the normal equations survives; z'c must come from the fit
        rng = np.random.default_rng(3)
        n = 40
        s = draw_srswor(200, n, rng)
        x = rng.gamma(5.0, 2.0, size=n)
        X = np.column_stack([x, x + eps * rng.normal(size=n)])
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        r = rng.random(n) < 0.7
        m = ModelSpec((1, 2))
        est, eta = estimate_and_eta(s, r, X, y, m, respondent_fit(r, X, y, m))
        assert np.isfinite(est.v1 + est.v2)
        assert np.all(np.isfinite(eta))
        assert ht_mean(s, eta) == pytest.approx(est.mu_hat, rel=1e-6)


class TestEta:
    def test_nonrespondents_keep_prediction(self):
        s, r, X, y = srswor_instance(4)
        m = ModelSpec((1, 2, 3))
        fit = respondent_fit(r, X, y, m)
        _, eta = estimate_and_eta(s, r, X, y, m, fit)
        miss = ~r
        assert np.allclose(eta[miss], design_matrix(X[miss], m) @ fit.beta_hat, atol=1e-12)

    def test_zero_residual_respondent_keeps_prediction(self):
        s, r, X, _ = srswor_instance(5)
        # noiseless y: every respondent residual is exactly zero
        y = 3.0 + 2.0 * X[:, 0]
        m = ModelSpec((1,))
        _, eta = estimate_and_eta(s, r, X, y, m, respondent_fit(r, X, y, m))
        assert np.allclose(eta, 3.0 + 2.0 * X[:, 0], rtol=1e-9)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_ht_mean_of_eta_reproduces_estimator(self, seed):
        s, r, X, y = srswor_instance(seed)
        m = ModelSpec((1, 2))
        est, eta = estimate_and_eta(s, r, X, y, m, respondent_fit(r, X, y, m))
        assert ht_mean(s, eta) == pytest.approx(est.mu_hat, rel=1e-10)

    def test_identity_holds_on_stratified_draw(self):
        s, r, X, y = stratified_instance(9)
        m = ModelSpec((1, 2))
        est, eta = estimate_and_eta(s, r, X, y, m, respondent_fit(r, X, y, m))
        assert ht_mean(s, eta) == pytest.approx(est.mu_hat, rel=1e-10)

    @pytest.mark.parametrize("build,seed,m", [("srswor", 6, (1, 2)), ("srswor", 7, (1, 2, 3)),
                                              ("stratified", 9, (1, 2))],
                             ids=["srswor-i1+2", "srswor-i1+2+3", "stratified-i1+2"])
    def test_matches_the_literal_form(self, build, seed, m):
        make = srswor_instance if build == "srswor" else stratified_instance
        s, r, X, y = make(seed)
        m = ModelSpec(m)
        fit = respondent_fit(r, X, y, m)
        _, eta = estimate_and_eta(s, r, X, y, m, fit)
        want = eta_oracle(s, r, X, y, m, fit.beta_hat, c_oracle(s, r, X, m))
        assert np.allclose(eta, want, rtol=1e-12, atol=0.0)


def v1_loop(sample, eta):
    # literal double sum over pairs, each pi_kl read off joint_matrix
    pi = sample.pi_first
    J = joint_matrix(sample.population_sizes, sample.allocations, sample.strata)
    N = sample.population_size
    total = 0.0
    for k in range(sample.n):
        for l in range(sample.n):
            pkl = J[k, l]  # pi_kk = pi_k on the diagonal
            d = pkl - pi[k] * pi[l]
            total += (d / pkl) * (eta[k] / pi[k]) * (eta[l] / pi[l])
    return total / N**2


class TestV1:
    def test_census_is_zero(self):
        s = SampleDraw(np.arange(5), np.zeros(5, dtype=np.int64), (5,))
        assert v1_hat(s, np.array([3.0, 1.0, 4.0, 1.0, 5.0])) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("build,seed", [("srswor", 10), ("stratified", 11)])
    def test_matches_literal_double_sum(self, build, seed):
        if build == "srswor":
            s, _, _, y = srswor_instance(seed)
        else:
            s, _, _, y = stratified_instance(seed)
        eta = y  # any per-unit values will do
        assert v1_hat(s, eta) == pytest.approx(v1_loop(s, eta), rel=1e-12, abs=1e-15)
        # constant eta has no design variance: the closed form gives exactly
        # 0, the literal double sum gives 0 up to its own cancellation error
        const = np.full(s.n, 2.5)
        assert v1_hat(s, const) == 0.0
        assert v1_loop(s, const) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("sizes,alloc", [((4 * 10**9,), (12,)), ((4 * 10**9, 30), (6, 5))])
    def test_matches_literal_double_sum_at_huge_N_h(self, sizes, alloc):
        # N_h (N_h - 1) and N_h (N_h - n_h) exceed int64 from N_h about 3.04e9
        labels = np.repeat(np.arange(len(alloc)), alloc)
        s = SampleDraw(np.arange(labels.size), labels, sizes)
        eta = np.random.default_rng(27).normal(size=s.n) * 5.0 + 100.0
        assert v1_hat(s, eta) == pytest.approx(v1_loop(s, eta), rel=1e-12)

    @pytest.mark.parametrize("N", [4 * 10**9, 10**10, 10**12])
    def test_srswor_closed_form_at_huge_N(self, N):
        n = 200
        s = SampleDraw(np.arange(n), np.zeros(n, dtype=np.int64), (N,))
        eta = np.random.default_rng(26).normal(size=n) * 5.0 + 100.0
        want = (1.0 - n / N) * np.var(eta, ddof=1) / n
        assert v1_hat(s, eta) == pytest.approx(want, rel=1e-12)

    def test_stratified_closed_form_with_a_huge_stratum(self):
        sizes, alloc = (5 * 10**9, 300), (40, 20)
        labels = np.repeat([0, 1], alloc)
        s = SampleDraw(np.arange(60), labels, sizes)
        eta = np.random.default_rng(28).normal(size=60) * 5.0 + 100.0
        want = sum(
            N_h**2 * (1.0 - n_h / N_h) * np.var(eta[labels == h], ddof=1) / n_h
            for h, (N_h, n_h) in enumerate(zip(sizes, alloc))
        ) / sum(sizes) ** 2
        assert v1_hat(s, eta) == pytest.approx(want, rel=1e-12)

    def test_exhaustive_unbiasedness(self):
        # E[v1_hat] over every possible draw equals the true design
        # variance of the HT mean for a fixed population vector
        N, n = 8, 3
        rng = np.random.default_rng(12)
        eta_pop = rng.normal(size=N) * 4 + 2
        mu = eta_pop.mean()
        draws = list(itertools.combinations(range(N), n))
        means, v1s = [], []
        for ids in draws:
            ids = np.asarray(ids)
            s = SampleDraw(ids, np.zeros(n, dtype=np.int64), (N,))
            means.append(ht_mean(s, eta_pop[ids]))
            v1s.append(v1_hat(s, eta_pop[ids]))
        true_var = float(np.mean([(m - mu) ** 2 for m in means]))
        assert float(np.mean(v1s)) == pytest.approx(true_var, rel=1e-12)

    def test_memory_is_linear_at_large_n(self):
        # n = 200k: an n x n intermediate would need 320 GB, the stratum-wise
        # form a few n-length arrays
        rng = np.random.default_rng(25)
        sizes, alloc = (150_000, 100_000, 100_000, 50_000), (80_000, 60_000, 40_000, 20_000)
        perm = rng.permutation(sum(sizes))
        blocks = np.split(perm, np.cumsum(sizes)[:-1])
        picks = [rng.choice(np.sort(b), n_h, replace=False) for b, n_h in zip(blocks, alloc)]
        by_id = np.argsort(np.concatenate(picks))
        ids = np.concatenate(picks)[by_id]
        s = SampleDraw(ids, np.repeat(np.arange(4), alloc)[by_id], sizes)
        eta = rng.normal(size=s.n) * 5.0 + 100.0
        tracemalloc.start()
        try:
            got = v1_hat(s, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        N = sum(sizes)
        ref = sum(
            N_h * (N_h - n_h) * np.var(eta[np.isin(ids, b)], ddof=1) / n_h
            for N_h, n_h, b in zip(sizes, alloc, blocks)
        ) / N**2
        assert got == pytest.approx(ref, rel=1e-10)


class TestSigma2:
    def test_hand_value(self):
        fit = FitResult(np.array([0.0]), rss=2.0, R=np.eye(1), Q=np.zeros((3, 1)), resid=np.ones(3))
        assert sigma2_hat(fit) == pytest.approx(1.0)

    def test_no_degrees_of_freedom(self):
        fit = FitResult(np.zeros(3), rss=0.0, R=np.eye(3), Q=np.eye(3), resid=np.zeros(3))
        with pytest.raises(DegenerateFitError, match="n_r=3, p_alpha=3"):
            sigma2_hat(fit)

    def test_noiseless_is_zero(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 2, size=(12, 2))
        y = 1.0 + X @ [2.0, 3.0]
        m = ModelSpec((1, 2))
        assert sigma2_hat(fit_candidates(X, y, [m])[m]) <= 1e-18

    def test_sampling_band_at_scale(self):
        # residual variance from the smallest correct model, full-scale
        # draws: chi-square concentration puts ~73% of fits within 10%
        vals = []
        for rep in range(400):
            rng = np.random.default_rng([88001, rep])
            X_pop, y_pop, resp_prob = generate_population(5000, 20, LAW, BETA, 60.0,
                                                          RESPONSE, rng)
            s = draw_srswor(5000, 500, rng)
            r = generate_response(resp_prob, s.unit_ids, rng)
            X = X_pop[s.unit_ids]
            y = y_pop[s.unit_ids]
            fit = respondent_fit(r, X, y, TRUE_MODEL)
            vals.append(sigma2_hat(fit))
        vals = np.asarray(vals)
        frac = float(np.mean(np.abs(vals / 3600.0 - 1.0) <= 0.10))
        assert 0.63 <= frac <= 0.82
        assert float(vals.mean()) == pytest.approx(3600.0, rel=0.02)


class TestV2:
    def test_full_response_is_zero(self):
        s, _, X, y = srswor_instance(14)
        r = np.ones(s.n, dtype=bool)
        m = ModelSpec((1,))
        est = estimate_model(s, r, X, y, m, respondent_fit(r, X, y, m), 0.95)
        assert est.v2 == pytest.approx(0.0, abs=1e-18)

    def test_zero_sigma2_is_zero(self):
        s, r, X, y = srswor_instance(15)
        m = ModelSpec((1, 2))
        fit = dataclasses.replace(respondent_fit(r, X, y, m), rss=0.0)
        est = estimate_model(s, r, X, y, m, fit, 0.95)
        assert est.sigma2_hat == 0.0
        assert est.v2 == 0.0

    def test_resummation_oracle(self):
        s, r, X, y = srswor_instance(16)
        m = ModelSpec((1, 3))
        est = estimate_model(s, r, X, y, m, respondent_fit(r, X, y, m), 0.95)
        ref = v2_oracle(s, r, est.sigma2_hat, X, m, c_oracle(s, r, X, m))
        assert est.v2 == pytest.approx(ref, rel=1e-12)

    def test_nonnegative(self):
        for seed in range(17, 22):
            s, r, X, y = srswor_instance(seed)
            m = ModelSpec((1,))
            assert estimate_model(s, r, X, y, m, respondent_fit(r, X, y, m), 0.95).v2 >= 0.0


class TestConfidenceInterval:
    def test_standard_normal_quantile(self):
        lower, upper = confidence_interval(0.0, 1.0, 0.95)
        assert upper == pytest.approx(1.959964, abs=1e-6)
        assert lower == pytest.approx(-1.959964, abs=1e-6)

    def test_hand_interval(self):
        lower, upper = confidence_interval(10.0, 4.0, 0.95)
        assert lower == pytest.approx(6.08007, abs=1e-4)
        assert upper == pytest.approx(13.91993, abs=1e-4)

    def test_zero_variance_degenerates_to_point(self):
        assert confidence_interval(7.0, 0.0, 0.9) == (7.0, 7.0)

    def test_negative_variance_raises(self):
        with pytest.raises(EstimationFailureError):
            confidence_interval(0.0, -1e-9, 0.95)

    @pytest.mark.parametrize(
        "point, v_total", [(0.0, np.inf), (0.0, np.nan), (np.inf, 1.0), (np.nan, 1.0)]
    )
    def test_non_finite_estimate_raises(self, point, v_total):
        with pytest.raises(EstimationFailureError):
            confidence_interval(point, v_total, 0.95)

    def test_level_next_to_one_gives_a_finite_interval(self):
        # (1 + level) / 2 rounds to 1.0, the upper quantile of which is inf
        lower, upper = confidence_interval(0.0, 1.0, 1.0 - 2.0**-53)
        assert 8.0 < upper < 9.0 and lower == -upper

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_level_bounds(self, level):
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, level)


class TestPipeline:
    def test_census_full_response_interval_is_the_truth(self):
        rng = np.random.default_rng(23)
        N = 25
        s = SampleDraw(np.arange(N), np.zeros(N, dtype=np.int64), (N,))
        X = rng.gamma(5.0, 2.0, size=(N, 2))
        y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=N)
        r = np.ones(N, dtype=bool)
        fits = fit_candidates(X, y, [ModelSpec((1, 2))])
        model, scores = select("bic", fits, y[r])
        est = estimate_model(s, r, X, y, model, fits[model], 0.95)
        assert list(scores) == list(fits)
        mu = float(y.mean())
        assert est.mu_hat == pytest.approx(mu, rel=1e-12)
        assert est.v_total == pytest.approx(0.0, abs=1e-15)
        assert est.lower == pytest.approx(mu, rel=1e-12)
        assert est.upper == pytest.approx(mu, rel=1e-12)

    def test_estimate_model_assembles_pieces(self):
        s, r, X, y = srswor_instance(24)
        m = ModelSpec((1, 2))
        fit = respondent_fit(r, X, y, m)
        est = estimate_model(s, r, X, y, m, fit, 0.9)
        eta = eta_oracle(s, r, X, y, m, fit.beta_hat, c_oracle(s, r, X, m))
        assert est.model == m
        assert est.mu_hat == imputed_means(s, r, X, y, {m: fit})[m]
        assert est.v1 == pytest.approx(v1_hat(s, eta), rel=1e-12)
        assert est.sigma2_hat == sigma2_hat(fit)
        assert est.v2 == pytest.approx(v2_oracle(s, r, est.sigma2_hat, X, m,
                                                 c_oracle(s, r, X, m)), rel=1e-12)
        assert (est.lower, est.upper) == confidence_interval(est.mu_hat, est.v1 + est.v2, 0.9)
        # the pipeline's estimate of its pick is this one
        fits = {m: fit}
        model, _ = select("bic", fits, y[r])
        assert estimate_model(s, r, X, y, model, fits[model], 0.9) == est


class TestResponseSet:
    """Every entry point that reads the missing units as ~r refuses an r
    that is not a boolean array over the sample: an index array would
    turn into negative indices under ~ and give a wrong answer."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(3)
        X_pop, y_pop, resp_prob = generate_population(
            400, 3, LAW, np.array([1.0, 2.0, 3.0, 0.0]), 5.0, (0.5, 1.0, np.zeros(3)), rng)
        s = draw_srswor(400, 20, rng)
        r = generate_response(resp_prob, s.unit_ids, rng)
        X, y = X_pop[s.unit_ids], y_pop[s.unit_ids]
        m = ModelSpec((1, 2, 3))
        return s, r, X, y, m, {m: respondent_fit(r, X, y, m)}

    CALLS = {
        "imputed_means": lambda s, r, X, y, m, fits: imputed_means(s, r, X, y, fits),
        "estimate_model": lambda s, r, X, y, m, fits: estimate_model(
            s, r, X, y, m, fits[m], 0.95),
        "loss_closed_form": lambda s, r, X, y, m, fits: loss_closed_form(
            s, r, X, m, [1.0, 2.0, 3.0, 0.0], 5.0),
        "mc_loss_oracle": lambda s, r, X, y, m, fits: mc_loss_oracle(
            s, r, X, m, [1.0, 2.0, 3.0, 0.0], 5.0, 100, np.random.default_rng(0)),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_index_array_is_refused(self, entry):
        s, r, X, y, m, fits = self.instance()
        call = self.CALLS[entry]
        call(s, r, X, y, m, fits)  # the boolean array is accepted
        for bad in (np.flatnonzero(r), r.astype(np.int64), r[:-1], list(r)):
            with pytest.raises(ValueError, match="boolean array of shape"):
                call(s, bad, X, y, m, fits)
