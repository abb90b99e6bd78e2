"""Criterion parsing and model selection behavior."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import make_folds

from survey_impute.errors import SelectionFailureError
from survey_impute.estimators import (
    ModelSpec,
    design_matrix,
    fit_candidates,
    nested_candidates,
)
from survey_impute.selection import (
    RSS_INTERP_REL,
    parse_criterion,
    score_candidates,
    select,
)


def refit_fold_mses(X_r, y_r, model, folds):
    """Per test fold, the held-out MSE of the model refitted on the
    other folds, or None where that training fold is singular."""
    mses = []
    for test in folds:
        train = np.ones(y_r.size, dtype=bool)
        train[test] = False
        fit = fit_candidates(X_r[train], y_r[train], [model])[model]
        if fit is None:
            mses.append(None)
            continue
        resid = y_r[test] - design_matrix(X_r[test], model) @ fit.beta_hat
        mses.append(float(resid @ resid) / test.size)
    return mses


def refit_cv_score(X_r, y_r, model, folds):
    """Oracle K-fold CV: refit the model on every training fold and
    average the held-out MSEs of the nonsingular ones; +inf when fewer
    than K - 1 training folds are nonsingular."""
    mses = [v for v in refit_fold_mses(X_r, y_r, model, folds) if v is not None]
    return float(np.mean(mses)) if len(mses) >= len(folds) - 1 else float("inf")


def split_rng(seed, i, n_r):
    """A fresh default_rng(seed) that has drawn i permutations of n_r.
    Candidate i of a cvK call on default_rng(seed) scores on the
    (i + 1)-th permutation drawn, so a one-candidate call on this rng
    scores it on the same split."""
    rng = np.random.default_rng(seed)
    for _ in range(i):
        rng.permutation(n_r)
    return rng


class TestParseCriterion:
    def test_known_names(self):
        assert parse_criterion("aic") == ("aic", None)
        assert parse_criterion("bic") == ("bic", None)
        assert parse_criterion("cv5") == ("cv", 5)
        assert parse_criterion("cv2") == ("cv", 2)

    @pytest.mark.parametrize(
        "bad", ["cv1", "cv0", "CV5", "cv", "aicc", "cv-3", "", "cv5\n", "cv05", "cv007"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_criterion(bad)


def ic_scores(criterion, rss, n_r, models):
    """score_candidates under aic or bic on n_r respondents, with every
    model's fit given this rss: the criteria read nothing else of a fit."""
    rng = np.random.default_rng(40)
    X, y = rng.normal(size=(n_r, 3)), rng.normal(size=n_r)
    fits = fit_candidates(X, y, models)
    return score_candidates(criterion, {m: dataclasses.replace(fit, rss=rss)
                                        for m, fit in fits.items()}, y)


class TestInformationCriteria:
    def test_aic_parameter_penalty(self):
        m3, m4 = ModelSpec((1, 2)), ModelSpec((1, 2, 3))
        scores = ic_scores("aic", 10.0, 50, [m3, m4])
        assert scores[m4] - scores[m3] == pytest.approx(2.0)

    def test_aic_rss_term(self):
        # halving rss at n_r = 100 drops the score by 100 ln 2
        m = ModelSpec((1, 2))
        drop = ic_scores("aic", 8.0, 100, [m])[m] - ic_scores("aic", 4.0, 100, [m])[m]
        assert drop == pytest.approx(100 * np.log(2.0), rel=1e-12)

    def test_bic_penalizes_harder(self):
        m = ModelSpec((1, 2, 3))
        for n_r in (8, 20, 200):
            assert ic_scores("bic", 5.0, n_r, [m])[m] > ic_scores("aic", 5.0, n_r, [m])[m]

    def test_interpolation_scores_neg_inf(self):
        m = ModelSpec((1,))
        assert ic_scores("aic", 0.0, 10, [m])[m] == float("-inf")
        assert ic_scores("bic", 0.0, 10, [m])[m] == float("-inf")

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    def test_interpolation_cutoff_is_inclusive(self, criterion):
        # rss at RSS_INTERP_REL * tss is an exact interpolation; one ulp
        # above it is scored by the formula
        rng = np.random.default_rng(41)
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        m = ModelSpec((1, 2))
        fit = fit_candidates(X, y, [m])[m]
        cutoff = RSS_INTERP_REL * float(np.sum((y - y.mean()) ** 2))
        above = np.nextafter(cutoff, np.inf)
        at = score_candidates(criterion, {m: dataclasses.replace(fit, rss=cutoff)}, y)[m]
        over = score_candidates(criterion, {m: dataclasses.replace(fit, rss=above)}, y)[m]
        penalty = 2.0 if criterion == "aic" else np.log(20)
        assert at == float("-inf")
        assert over == 20 * np.log(above / 20) + penalty * 3

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    def test_zero_respondents_score_inf_without_warnings(self, criterion):
        cands = nested_candidates(2)
        y = np.empty(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = score_candidates(criterion, fit_candidates(np.empty((0, 2)), y, cands), y)
        assert scores == dict.fromkeys(cands, float("inf"))


class TestCvScore:
    def test_leave_one_out_identity(self):
        # cv10 on 10 respondents holds out one unit per fold, in any
        # order: the score equals the classical sum of (e_k / (1 - h_k))^2 / n
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        m = ModelSpec((1, 2))
        got = score_candidates("cv10", fit_candidates(X, y, [m]), y, rng)[m]

        Z = design_matrix(X, m)
        H = Z @ np.linalg.solve(Z.T @ Z, Z.T)
        e = y - H @ y
        ref = float(np.mean((e / (1 - np.diag(H))) ** 2))
        assert got == pytest.approx(ref, rel=1e-8)

    def test_noiseless_duplicated_rows_score_zero(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(1, 2, size=(6, 2))
        X = np.vstack([base, base])
        y = 1.0 + X @ [2.0, 3.0]
        m = ModelSpec((1, 2))
        fits = fit_candidates(X, y, [m])
        assert score_candidates("cv3", fits, y, np.random.default_rng(4))[m] <= 1e-18

    def test_binary_covariate_data_match_the_refit_rank_rule(self):
        # two gamma covariates and a ~10%-ones indicator on 30
        # respondents: a training fold often holds no ones, so it is
        # singular though the full fit is not. Only the test fold that
        # holds every one can leave such a training fold, and the score
        # leaves out exactly the training fold whose refit fails
        # qr_checked, where the parent rule scored the candidate +inf
        rng = np.random.default_rng(20)
        m = ModelSpec((1, 2, 3))
        singular = 0
        for _ in range(400):
            X = np.column_stack([rng.gamma(5.0, 2.0, size=(30, 2)), rng.random(30) < 0.1])
            y = 1.0 + X @ [1.0, 2.0, 3.0] + rng.normal(size=30)
            fit = fit_candidates(X, y, [m])[m]
            if fit is None:
                continue
            # a copy of rng draws the permutation that make_folds cuts
            score = score_candidates("cv5", {m: fit}, y, copy.deepcopy(rng))[m]
            folds = make_folds(30, 5, rng)
            bad = refit_fold_mses(X, y, m, folds).count(None)
            assert bad <= 1
            assert score == pytest.approx(refit_cv_score(X, y, m, folds), rel=1e-9)
            singular += bad
        assert singular >= 50

    @pytest.mark.parametrize("ones", [(0,), (0, 0), (0, 1)])
    def test_one_singular_fold_is_left_out(self, ones):
        # two gamma covariates, then one indicator per entry of ones,
        # whose single 1 sits in the listed fold (the i-th indicator on
        # that fold's i-th unit). Without that unit an indicator's column
        # is all zero, so the training fold of each listed fold is
        # singular while the full fit is regular. One singular fold of
        # five is left out of the mean; two make the score +inf
        n, k = 20, 5
        folds = make_folds(n, k, np.random.default_rng(40))
        rng = np.random.default_rng(41)
        X = np.column_stack([rng.gamma(5.0, 2.0, size=(n, 2)), np.zeros((n, len(ones)))])
        for i, f in enumerate(ones):
            X[folds[f][i], 2 + i] = 1.0
        y = 1.0 + X @ np.arange(1.0, X.shape[1] + 1) + rng.normal(size=n)
        m = ModelSpec(range(1, X.shape[1] + 1))
        fits = fit_candidates(X, y, [m])
        assert fits[m] is not None
        score = score_candidates(f"cv{k}", fits, y, np.random.default_rng(40))[m]
        mses = refit_fold_mses(X, y, m, folds)
        assert mses.count(None) == len(set(ones))
        if len(set(ones)) == 1:
            rest = [v for v in mses if v is not None]
            assert len(rest) == k - 1
            assert score == pytest.approx(np.mean(rest), rel=1e-10)
        else:
            assert score == float("inf")


@pytest.mark.parametrize("n_r,k", [(23, 5), (31, 4), (17, 17), (12, 12)])
def test_batched_folds_pad_unequal_and_singleton_folds(n_r, k):
    # n_r not divisible by K leaves folds of two sizes, padded with zero
    # rows to one; K = n_r is leave-one-out. Each candidate's score must
    # equal the refits' mean held-out MSE
    rng = np.random.default_rng(n_r * 100 + k)
    X = rng.normal(size=(n_r, 3))
    y = 1.0 + X @ [1.0, -2.0, 0.5] + rng.normal(size=n_r)
    cands = nested_candidates(3)
    fits = fit_candidates(X, y, cands)
    scores = score_candidates(f"cv{k}", fits, y, np.random.default_rng(7))
    fold_rng = np.random.default_rng(7)
    assert list(scores) == cands
    for m, score in scores.items():
        folds = make_folds(n_r, k, fold_rng)
        assert len({t.size for t in folds}) == (1 if n_r % k == 0 else 2)
        assert np.isfinite(score)
        assert score == pytest.approx(refit_cv_score(X, y, m, folds), rel=1e-10)


def test_scores_and_folds_follow_the_order_of_fits():
    # fit_candidates factors the chain (1, 2, 3) > (1, 2) > (1,) widest
    # first, but fits keeps the caller's order, and cvK scores in it and
    # draws each candidate's folds in it
    rng = np.random.default_rng(24)
    X = rng.normal(size=(25, 3))
    y = 1.0 + X @ [1.0, -2.0, 0.5] + rng.normal(size=25)
    cands = [ModelSpec((2,)), ModelSpec((1, 2, 3)), ModelSpec((1,)), ModelSpec((1, 2))]
    fits = fit_candidates(X, y, cands)
    scores = score_candidates("cv3", fits, y, np.random.default_rng(25))
    assert list(scores) == cands
    fold_rng = np.random.default_rng(25)
    for m, score in scores.items():
        folds = make_folds(25, 3, fold_rng)
        assert score == pytest.approx(refit_cv_score(X, y, m, folds), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_r=st.integers(min_value=8, max_value=60),
    p=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([2, 3, 5, None]),
    nested=st.booleans(),
    delta=st.sampled_from([None, 0.0, 1e-2, 1e-4]),
    binary=st.booleans(),
)
def test_cv_identity_matches_refits(seed, n_r, p, k, nested, delta, binary):
    # k None is leave-one-out; delta sets x2 = x1 + delta * noise
    # (0 makes the pair collinear); binary makes the last covariate a
    # 10%-ones indicator, which leaves some training folds singular
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_r, p))
    if delta is not None and p >= 2:
        X[:, 1] = X[:, 0] + delta * rng.normal(size=n_r)
    if binary:
        X[:, -1] = rng.random(n_r) < 0.1
    y = 1.0 + X @ rng.normal(size=p) + rng.normal(size=n_r)
    k = k or n_r
    if nested:
        cands = nested_candidates(p)
    else:
        cands = [ModelSpec(rng.choice(np.arange(1, p + 1), size=rng.integers(1, p + 1),
                                      replace=False)) for _ in range(3)]
    fits = fit_candidates(X, y, cands)
    scores = score_candidates(f"cv{k}", fits, y, np.random.default_rng(seed))

    # a random explicit list may name one model twice; fits holds it once
    assert list(scores) == list(fits)
    fold_rng = np.random.default_rng(seed)
    for (m, fit), score in zip(fits.items(), scores.values()):
        folds = make_folds(n_r, k, fold_rng)
        if fit is None or n_r <= m.p_alpha:
            ref = float("inf")
        else:
            ref = refit_cv_score(X, y, m, folds)
        if ref == float("inf"):
            assert score == float("inf")
        else:
            # the identity solves against I - Q_t'Q_t, formed at Gram
            # scale like normal equations, so its error grows with the
            # square of a training design's condition number, over the
            # nonsingular training folds that the score averages
            Z = design_matrix(X, m)
            mses = refit_fold_mses(X, y, m, folds)
            kappa = max(np.linalg.cond(np.delete(Z, test, axis=0))
                        for test, mse in zip(folds, mses) if mse is not None)
            assert score == pytest.approx(ref, rel=1e-9 + 1e-14 * kappa**2)


def count_choleskys(monkeypatch):
    """Record each np.linalg.cholesky call: its input's shape and
    whether it raised."""
    calls, real = [], np.linalg.cholesky

    def counted(a):
        try:
            out = real(a)
        except np.linalg.LinAlgError:
            calls.append((a.shape, True))
            raise
        calls.append((a.shape, False))
        return out

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_mixed_stack_matches_the_one_candidate_scorer():
    # one cv5 call on 10 respondents scores, in one stack: the nested
    # chain (1,) < (1, 2) < (1, 2, 3); unrelated chains of one; (1, 5),
    # None since x5 = x1; (1, 2, 3, 6, ..., 11), whose fit leaves no
    # residual degrees of freedom (n_r = p_alpha); and (1, 4), whose
    # indicator x4 has a single 1, so the fold holding that row leaves a
    # singular training design though the full fit is regular: that one
    # fold of five is left out of its mean
    rng = np.random.default_rng(30)
    X = rng.gamma(5.0, 2.0, size=(10, 11))
    X[:, 3] = np.arange(10) == 6
    X[:, 4] = X[:, 0]
    y = 1.0 + X[:, :3] @ [1.0, -2.0, 0.5] + rng.normal(size=10)
    cands = [ModelSpec((1,)), ModelSpec((3, 7)), ModelSpec((1, 2)), ModelSpec((1, 5)),
             ModelSpec((1, 2, 3)), ModelSpec((1, 4)), ModelSpec((2,)),
             ModelSpec((1, 2, 3, 6, 7, 8, 9, 10, 11))]
    fits = fit_candidates(X, y, cands)
    assert fits[ModelSpec((1, 5))] is None
    assert fits[ModelSpec((1, 4))] is not None
    assert fits[cands[-1]] is not None and cands[-1].p_alpha == 10

    rng = np.random.default_rng(31)
    scores = score_candidates("cv5", fits, y, rng)
    for i, (m, fit) in enumerate(fits.items()):
        solo = score_candidates("cv5", {m: fit}, y, split_rng(31, i, 10))[m]
        if solo == float("inf"):
            assert scores[m] == solo, m
        else:
            assert scores[m] == pytest.approx(solo, rel=1e-12), m
    # the split is one draw per candidate, scorable or not
    assert rng.bit_generator.state == split_rng(31, len(fits), 10).bit_generator.state
    unscorable = {m for m, s in scores.items() if s == float("inf")}
    assert unscorable == {ModelSpec((1, 5)), cands[-1]}


def test_failing_cholesky_spoils_only_its_own_candidate(monkeypatch):
    # Q's rows in a fold scaled by 3 make that fold's I - Q_t'Q_t
    # indefinite, so the stacked Cholesky raises; each (candidate, fold)
    # block is then factored alone. One failing fold is left out of its
    # candidate's mean, two make it +inf, and no other candidate changes
    rng = np.random.default_rng(32)
    X = rng.normal(size=(40, 4))
    y = 1.0 + X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=40)
    cands = nested_candidates(4)
    clean_fits = fit_candidates(X, y, cands)
    clean = score_candidates("cv5", clean_fits, y, np.random.default_rng(33))
    broken = cands[1]
    folds = make_folds(40, 5, split_rng(33, 1, 40))
    mses = refit_fold_mses(X, y, broken, folds)
    for broken_folds in ((0,), (0, 3)):
        Q = clean_fits[broken].Q.copy()
        for f in broken_folds:
            Q[folds[f]] *= 3.0
        fits = dict(clean_fits)
        fits[broken] = dataclasses.replace(fits[broken], Q=Q)
        with monkeypatch.context() as mp:
            calls = count_choleskys(mp)
            scores = score_candidates("cv5", fits, y, np.random.default_rng(33))
        assert calls[0] == ((4, 5, 5, 5), True)
        assert [raised for _, raised in calls[1:]] == [
            c == 1 and k in broken_folds for c in range(4) for k in range(5)]
        if len(broken_folds) == 1:
            rest = [v for f, v in enumerate(mses) if f not in broken_folds]
            assert scores[broken] == pytest.approx(np.mean(rest), rel=1e-10)
        else:
            assert scores[broken] == float("inf")
        for i, m in enumerate(cands):
            if m != broken:
                solo = score_candidates("cv5", {m: fits[m]}, y, split_rng(33, i, 40))[m]
                assert scores[m] == clean[m]
                assert scores[m] == pytest.approx(solo, rel=1e-12)


def test_cv_factors_every_candidate_in_one_cholesky(monkeypatch):
    rng = np.random.default_rng(34)
    X = rng.normal(size=(50, 3))
    y = 1.0 + X @ [1.0, -2.0, 0.5] + rng.normal(size=50)
    fits = fit_candidates(X, y, nested_candidates(3))
    calls = count_choleskys(monkeypatch)
    scores = score_candidates("cv5", fits, y, np.random.default_rng(35))
    assert all(np.isfinite(s) for s in scores.values())
    assert calls == [((3, 5, 4, 4), False)]


class TestScoreCandidates:
    def test_cv_requires_rng(self):
        X = np.random.default_rng(5).normal(size=(20, 2))
        y = np.random.default_rng(6).normal(size=20)
        cands = nested_candidates(2)
        with pytest.raises(ValueError):
            score_candidates("cv5", fit_candidates(X, y, cands), y)

    def test_cv_with_fewer_respondents_than_folds_fails(self):
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(3, 2)), rng.normal(size=3)
        cands = nested_candidates(2)
        with pytest.raises(SelectionFailureError):
            score_candidates("cv5", fit_candidates(X, y, cands), y, rng)
        # n_r = K is still feasible: one held-out unit per fold
        cands = nested_candidates(1)
        assert len(score_candidates("cv3", fit_candidates(X, y, cands), y, rng)) == 1

    def test_unscorable_candidate_gets_inf(self):
        X = np.ones((6, 2))  # second column collinear with the intercept
        y = np.arange(6.0)
        cands = nested_candidates(2)
        scores = score_candidates("bic", fit_candidates(X, y, cands), y)
        assert scores == {cands[0]: float("inf"), cands[1]: float("inf")}

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    def test_no_residual_degrees_of_freedom_gets_inf(self, criterion):
        # four respondents: [1, 2, 3] interpolates (n_r = p_alpha), [1, 2]
        # leaves one residual degree of freedom
        rng = np.random.default_rng(14)
        X, y = rng.normal(size=(4, 3)), rng.normal(size=4)
        cands = nested_candidates(3)
        fits = fit_candidates(X, y, cands)
        assert fits[cands[2]].resid.size == cands[2].p_alpha
        scores = score_candidates(criterion, fits, y)
        assert scores[cands[2]] == float("inf")
        assert scores[cands[1]] < float("inf")

    def test_scores_align_with_direct_formula(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        cands = nested_candidates(4)
        scores = score_candidates("bic", fit_candidates(X, y, cands), y)
        assert list(scores) == cands
        for m, score in scores.items():
            rss = fit_candidates(X, y, [m])[m].rss
            assert score == pytest.approx(30 * np.log(rss / 30) + np.log(30) * m.p_alpha)

    def test_cv_draws_folds_for_an_unscorable_candidate(self):
        # a None fit scores +inf without moving the fold stream: the
        # next candidate scores as if the first had been scorable
        rng = np.random.default_rng(16)
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        cands = nested_candidates(2)
        fits = fit_candidates(X, y, cands)
        full = score_candidates("cv4", fits, y, np.random.default_rng(3))
        fits[cands[0]] = None
        part = score_candidates("cv4", fits, y, np.random.default_rng(3))
        assert part[cands[0]] == float("inf") and full[cands[0]] < float("inf")
        assert part[cands[1]] == full[cands[1]]


class TestSelect:
    def test_noiseless_bic_picks_smallest_correct(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 4, size=(40, 5))
        y = 1.0 + 2.0 * X[:, 0] - 1.0 * X[:, 1]
        cands = nested_candidates(5)
        best, _ = select("bic", fit_candidates(X, y, cands), y)
        assert best.included == (1, 2)

    def test_tie_goes_to_smaller_model(self):
        # three rows: [1] fits exactly (score -inf); [1, 2] interpolates
        # with no residual degrees of freedom and scores +inf
        X = np.array([[0.0, 5.0], [1.0, 2.0], [2.0, 9.0]])
        y = 1.0 + 3.0 * X[:, 0]
        cands = nested_candidates(2)
        best, scores = select("aic", fit_candidates(X, y, cands), y)
        assert scores == {cands[0]: float("-inf"), cands[1]: float("inf")}
        assert best.included == (1,)

    def test_exact_fits_with_residual_df_tie_to_smaller_model(self):
        # four rows: both candidates fit exactly and keep residual
        # degrees of freedom (score -inf); the smaller p_alpha must win
        X = np.array([[0.0, 5.0], [1.0, 2.0], [2.0, 9.0], [3.0, 4.0]])
        y = 1.0 + 3.0 * X[:, 0]
        cands = nested_candidates(2)
        best, scores = select("aic", fit_candidates(X, y, cands), y)
        assert scores == dict.fromkeys(cands, float("-inf"))
        assert best.included == (1,)

    def test_y_scaling_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 4))
        y = X[:, 0] + 0.5 * rng.normal(size=50)
        cands = nested_candidates(4)
        for crit in ("aic", "bic"):
            a, _ = select(crit, fit_candidates(X, y, cands), y)
            b, _ = select(crit, fit_candidates(X, 17.0 * y, cands), 17.0 * y)
            assert a == b

    def test_single_candidate(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        cands = [ModelSpec((2,))]
        best, scores = select("aic", fit_candidates(X, y, cands), y)
        assert best == ModelSpec((2,))
        assert list(scores) == cands

    def test_all_singular_raises(self):
        X = np.ones((3, 2))
        y = np.arange(3.0)
        cands = [ModelSpec((1, 2))]
        with pytest.raises(SelectionFailureError):
            select("bic", fit_candidates(X, y, cands), y)

    def test_failure_names_both_causes(self):
        rng = np.random.default_rng(17)
        X, y = rng.normal(size=(3, 2)), rng.normal(size=3)
        cands = [ModelSpec((1, 2))]
        with pytest.raises(SelectionFailureError, match="rank deficient") as exc:
            select("bic", fit_candidates(X, y, cands), y)
        assert "no residual degrees of freedom" in str(exc.value)

    def test_no_candidates_raises(self):
        with pytest.raises(SelectionFailureError):
            select("aic", {}, np.ones(3))

    def test_cv_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        y = X[:, 0] + rng.normal(size=40)
        cands = nested_candidates(3)
        fits = fit_candidates(X, y, cands)
        a, sa = select("cv5", fits, y, np.random.default_rng(42))
        b, sb = select("cv5", fits, y, np.random.default_rng(42))
        assert a == b
        assert list(sa.items()) == list(sb.items())

    def test_cv_draws_fresh_folds_per_candidate(self):
        # each candidate consumes its own split, in the key order of fits:
        # the second scores on the second split drawn, not on the first
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        m1, m2 = ModelSpec((1,)), ModelSpec((2,))
        fits = fit_candidates(X, y, [m1, m2])
        scores = score_candidates("cv3", fits, y, np.random.default_rng(13))
        assert scores[m1] == score_candidates("cv3", {m1: fits[m1]}, y, split_rng(13, 0, 30))[m1]
        assert scores[m2] == score_candidates("cv3", {m2: fits[m2]}, y, split_rng(13, 1, 30))[m2]
        assert scores[m2] != score_candidates("cv3", {m2: fits[m2]}, y, split_rng(13, 0, 30))[m2]
