"""Point estimators: OLS fits, HT mean, imputation estimator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survey_impute.design import SampleDraw, draw_srswor
from survey_impute.estimators import (
    RCOND_MIN,
    FitResult,
    ModelSpec,
    classify_model,
    build_candidates,
    design_matrix,
    fit_candidates,
    ht_mean,
    imputed_means,
    nested_candidates,
    _rank_deficient,
)


def sample_of(N, n, seed=0):
    return draw_srswor(N, n, np.random.default_rng(seed))


def fit_one(X, y, model):
    return fit_candidates(X, y, [model])[model]


def respondent_fit(r, X, y, model):
    return fit_one(X[r], y[r], model)


class TestModelSpec:
    def test_canonicalization(self):
        assert ModelSpec((3, 1, 2, 1)).included == (1, 2, 3)
        assert ModelSpec((3, 1, 2)) == ModelSpec((1, 2, 3))

    def test_p_alpha(self):
        assert ModelSpec((1, 2)).p_alpha == 3

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            ModelSpec((0, 1))

    def test_label(self):
        assert ModelSpec((2, 5)).label() == "i2+5"


class TestClassify:
    def test_true_overfit_wrong(self):
        support = (1, 2, 3, 4, 5, 6)
        assert classify_model(ModelSpec(range(1, 7)), support) == "true"
        assert classify_model(ModelSpec(range(1, 8)), support) == "overfit"
        assert classify_model(ModelSpec(range(1, 6)), support) == "wrong"

    def test_disjoint_superset_count_is_wrong(self):
        # swaps a needed covariate for an extra one
        assert classify_model(ModelSpec((1, 2, 4)), (1, 2, 3)) == "wrong"


class TestFitOls:
    def test_two_point_interpolation(self):
        fit = fit_one(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), ModelSpec((1,)))
        assert np.allclose(fit.beta_hat, [1.0, 2.0], atol=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 5, size=(40, 4))
        beta = np.array([1.5, 2.0, -3.0, 0.0, 0.0])
        y = beta[0] + X @ beta[1:]
        fit = fit_one(X, y, ModelSpec((1, 2, 3)))
        assert np.allclose(fit.beta_hat, [1.5, 2.0, -3.0, 0.0], atol=1e-9)
        assert fit.rss <= 1e-12 * float(y @ y)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        m = ModelSpec((1, 3, 5))
        fit = fit_one(X, y, m)
        Z = design_matrix(X, m)
        ref = np.linalg.solve(Z.T @ Z, Z.T @ y)
        assert np.allclose(fit.beta_hat, ref, atol=1e-8)
        assert fit.rss == pytest.approx(float((y - Z @ ref) @ (y - Z @ ref)), rel=1e-9)

    def test_rss_monotone_under_nesting(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        rss = [fit_one(X, y, m).rss for m in nested_candidates(6)]
        assert all(a >= b - 1e-9 for a, b in zip(rss, rss[1:]))

    def test_underdetermined_is_none(self):
        m = ModelSpec((1, 2, 3))
        assert fit_candidates(np.ones((2, 3)), np.ones(2), [m]) == {m: None}

    def test_collinear_is_none(self):
        X = np.ones((10, 2))
        X[:, 1] = 2.0  # both columns constant alongside the intercept
        m = ModelSpec((1, 2))
        assert fit_candidates(X, np.arange(10.0), [m]) == {m: None}

    def test_r_factor_reproduces_gram_matrix(self):
        rng = np.random.default_rng(4)
        X = rng.gamma(5.0, 2.0, size=(15, 3))
        m = ModelSpec((1, 3))
        fit = fit_one(X, rng.normal(size=15), m)
        Z = design_matrix(X, m)
        assert np.allclose(fit.R, np.triu(fit.R))
        assert np.allclose(fit.R.T @ fit.R, Z.T @ Z, rtol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        perm = rng.permutation(20)
        a = fit_one(X, y, ModelSpec((1, 2)))
        b = fit_one(X[perm], y[perm], ModelSpec((1, 2)))
        assert np.allclose(a.beta_hat, b.beta_hat, atol=1e-9)
        assert a.rss == pytest.approx(b.rss, rel=1e-9)


class TestHtMean:
    def test_census_equals_population_mean(self):
        y = np.array([3.0, -1.0, 4.0, 1.0])
        s = sample_of(4, 4)
        assert ht_mean(s, y) == pytest.approx(y.mean(), abs=1e-12)

    def test_srswor_equals_sample_mean(self):
        rng = np.random.default_rng(4)
        s = draw_srswor(50, 10, rng)
        y = rng.normal(size=10)
        assert ht_mean(s, y) == pytest.approx(y.mean(), abs=1e-12)

    def test_exhaustive_unbiasedness(self):
        N, n = 6, 2
        y_pop = np.array([2.0, 7.0, -3.0, 0.5, 4.0, 10.0])
        vals = []
        for ids in itertools.combinations(range(N), n):
            ids = np.array(ids)
            s = SampleDraw(ids, np.zeros(n, dtype=np.int64), (N,))
            vals.append(ht_mean(s, y_pop[ids]))
        assert np.mean(vals) == pytest.approx(y_pop.mean(), abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        s = draw_srswor(30, 8, rng)
        y, z = rng.normal(size=8), rng.normal(size=8)
        assert ht_mean(s, 2 * y + 3 * z) == pytest.approx(
            2 * ht_mean(s, y) + 3 * ht_mean(s, z), abs=1e-12
        )


class TestImputedMean:
    def test_no_missing_equals_ht(self):
        rng = np.random.default_rng(6)
        s = draw_srswor(40, 10, rng)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        r = np.ones(10, dtype=bool)
        m = ModelSpec((1, 2))
        mu = imputed_means(s, r, X, y, {m: respondent_fit(r, X, y, m)})[m]
        assert mu == pytest.approx(ht_mean(s, y), abs=1e-12)

    def test_noiseless_correct_model_equals_ht(self):
        rng = np.random.default_rng(7)
        s = draw_srswor(40, 12, rng)
        X = rng.uniform(0, 3, size=(12, 3))
        y = 2.0 + X @ [1.0, -1.0, 0.5]
        r = rng.random(12) < 0.6
        assert r.sum() >= 4 and not r.all()
        m = ModelSpec((1, 2, 3))
        mu = imputed_means(s, r, X, y, {m: respondent_fit(r, X, y, m)})[m]
        assert mu == pytest.approx(ht_mean(s, y), rel=1e-12)

    def test_resummation_oracle(self):
        rng = np.random.default_rng(8)
        s = draw_srswor(12, 6, rng)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        r = np.array([True, False, True, True, False, True])
        m = ModelSpec((1,))
        fit = respondent_fit(r, X, y, m)
        mu = imputed_means(s, r, X, y, {m: fit})[m]
        # independent two-term sum
        pred = fit.beta_hat[0] + X[:, 0] * fit.beta_hat[1]
        total = sum(
            (y[i] if r[i] else pred[i]) / s.pi_first[i] for i in range(6)
        )
        assert mu == pytest.approx(total / 12, abs=1e-12)

    def test_linear_in_y(self):
        rng = np.random.default_rng(9)
        s = draw_srswor(30, 10, rng)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        r = rng.random(10) < 0.7
        m = ModelSpec((1, 2))
        mu1 = imputed_means(s, r, X, y, {m: respondent_fit(r, X, y, m)})[m]
        mu2 = imputed_means(s, r, X, 2 * y, {m: respondent_fit(r, X, 2 * y, m)})[m]
        assert mu2 == pytest.approx(2 * mu1, rel=1e-10)

    def test_reuses_supplied_fit(self):
        rng = np.random.default_rng(10)
        s = draw_srswor(20, 5, rng)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        r = np.array([True, True, True, False, False])
        m = ModelSpec((1,))
        fit = FitResult(np.array([0.0, 0.0]), 0.0, np.eye(2), np.zeros((3, 2)), np.zeros(3),
                        np.zeros((3, 2)))
        mu = imputed_means(s, r, X, y, {m: fit})[m]
        # zero coefficients: missing contribute nothing
        expect = sum(y[i] / s.pi_first[i] for i in range(3)) / 20
        assert mu == pytest.approx(expect, abs=1e-12)


class TestFitCandidates:
    def test_one_fit_per_candidate_none_when_singular(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 3))
        X[:, 1] = 2.0 * X[:, 0]  # x2 collinear with x1
        y = rng.normal(size=8)
        cands = [ModelSpec((1,)), ModelSpec((1, 2)), ModelSpec((3,))]
        fits = fit_candidates(X, y, cands)
        assert list(fits) == cands
        assert fits[cands[1]] is None
        for m in (cands[0], cands[2]):
            ref = fit_one(X, y, m)
            assert np.array_equal(fits[m].beta_hat, ref.beta_hat)
            assert fits[m].rss == ref.rss
        # keys keep the caller's order, not the widest-first chain order
        order = [ModelSpec((2,)), ModelSpec((1, 2, 3)), ModelSpec((1,)), ModelSpec((1, 2))]
        assert list(fit_candidates(X, y, order)) == order

    def test_build_candidates(self):
        assert build_candidates("nested", 3) == nested_candidates(3)
        assert build_candidates([[2], [1, 3]], 3) == [ModelSpec((2,)), ModelSpec((1, 3))]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.sampled_from(["normal", "collinear", "short", "binary"]),
    nested=st.booleans(),
)
def test_prefix_chain_fits_match_per_model_fits(seed, data, nested):
    # every fit read off a chain's one QR equals an independent
    # per-model reference: lstsq on the model's own design, and None
    # exactly where that design has fewer rows than columns or its own
    # QR fails the rank rule. "collinear" makes x2 = 2 x1, so the
    # prefixes past it are None;
    # "short" has fewer respondents than the widest model's columns;
    # "binary" makes x3 a 10%-ones indicator beside gamma covariates
    rng = np.random.default_rng(seed)
    p = 5
    n_r = int(rng.integers(3, p + 1)) if data == "short" else int(rng.integers(8, 40))
    X = rng.normal(size=(n_r, p))
    if data == "collinear":
        X[:, 1] = 2.0 * X[:, 0]
    if data == "binary":
        X = np.column_stack([rng.gamma(5.0, 2.0, size=(n_r, 2)), rng.random(n_r) < 0.1,
                             rng.gamma(5.0, 2.0, size=(n_r, 2))])
    y = 1.0 + X @ rng.normal(size=p) + rng.normal(size=n_r)
    if nested:
        cands = nested_candidates(p)
    else:
        cands = [ModelSpec(rng.choice(np.arange(1, p + 1), size=rng.integers(1, p + 1),
                                      replace=False)) for _ in range(4)]
    fits = fit_candidates(X, y, cands)
    assert list(fits) == list(dict.fromkeys(cands))
    for m in cands:
        Z = design_matrix(X, m)
        R = np.linalg.qr(Z)[1]
        # the rank rule on the design with its columns scaled to unit norm
        norm = np.linalg.norm(Z, axis=0)
        unit = np.linalg.qr(Z / np.where(norm > 0.0, norm, 1.0))[1]
        if Z.shape[0] < Z.shape[1] or _rank_deficient(np.diag(unit))[-1]:
            assert fits[m] is None
            continue
        got = fits[m]
        assert got is not None
        beta = np.linalg.lstsq(Z, y, rcond=None)[0]
        e = y - Z @ beta
        # a QR solution agrees to eps kappa^2 at worst; 1e-12 on
        # well-conditioned designs
        kappa = np.linalg.cond(Z)
        tol = 1e-12 + 1e-14 * kappa**2
        scale = np.linalg.norm(beta)
        assert np.allclose(got.beta_hat, beta, rtol=0, atol=tol * scale)
        assert np.allclose(got.R, R, rtol=0, atol=tol * np.linalg.norm(R))
        assert got.rss == pytest.approx(float(e @ e), rel=tol, abs=tol * float(y @ y))
        assert got.resid.size == n_r
    if data == "collinear" and nested:
        assert [fits[m] is None for m in cands] == [False] + [True] * (p - 1)
    if data == "short" and nested:
        assert [fits[m] is None for m in cands] == [m.p_alpha > n_r for m in cands]


def test_rank_rule_gives_one_verdict_per_prefix():
    # entry q - 1 judges the first q diagonal entries, the cutoff
    # included; a stack of diagonals gets one row of verdicts each
    d = np.array([[2.0, -1.0, 1e-11, 3.0], [1.0, 0.5, RCOND_MIN, 1.0]])
    assert _rank_deficient(d).tolist() == [[False, False, True, True]] * 2


def test_nested_candidates_shape():
    cands = nested_candidates(4)
    assert [m.included for m in cands] == [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
