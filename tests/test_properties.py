"""Property-based invariants (hypothesis drives the instance generation;
the data itself still comes from seeded numpy generators so shrinking
stays meaningful)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (c_oracle, estimate_and_eta, eta_oracle, joint_matrix, v1_double_sum,
                     v2_oracle)

from survey_impute.design import (
    SampleDraw,
    _largest_remainder,
    draw_srswor,
    draw_stratified,
    neyman_allocation,
    stratum_sizes,
)
from survey_impute.estimators import (
    ModelSpec,
    fit_candidates,
    ht_mean,
    imputed_means,
    nested_candidates,
)
from survey_impute.loss import loss_closed_form
from survey_impute.selection import select
from survey_impute.variance import confidence_interval, estimate_model, v1_hat

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def instance(seed, N=40, n=16, p=3, resp=0.6):
    rng = np.random.default_rng(seed)
    s = draw_srswor(N, n, rng)
    X = rng.gamma(5.0, 2.0, size=(n, p))
    y = 1.0 + X @ np.arange(1.0, p + 1) + rng.normal(size=n)
    r = rng.random(n) < resp
    if r.sum() < p + 2:           # keep every fit well posed
        r[: p + 2] = True
    if r.all():
        r[-1] = False
    return s, r, X, y


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_fit_is_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    perm = rng.permutation(15)
    m = ModelSpec((1, 3))
    a, b = fit_candidates(X, y, [m])[m], fit_candidates(X[perm], y[perm], [m])[m]
    assert np.allclose(a.beta_hat, b.beta_hat, atol=1e-8)
    assert a.rss == pytest.approx(b.rss, rel=1e-8, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds, st.sampled_from(["aic", "bic"]), st.floats(min_value=0.1, max_value=100.0))
def test_selection_ignores_y_scale(seed, crit, c):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 3))
    y = X[:, 0] + 0.5 * rng.normal(size=30)
    cands = nested_candidates(3)
    a, _ = select(crit, fit_candidates(X, y, cands), y)
    b, _ = select(crit, fit_candidates(X, c * y, cands), c * y)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_rss_never_grows_with_the_model(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    rss = [fit_candidates(X, y, [m])[m].rss for m in nested_candidates(4)]
    assert all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(rss, rss[1:]))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_l2_strictly_grows_with_the_model(seed):
    s, r, X, _ = instance(seed, p=4, n=20)
    beta = np.zeros(5)
    l2 = [loss_closed_form(s, r, X, m, beta, 1.0).l2 for m in nested_candidates(4)]
    assert all(b > a for a, b in zip(l2, l2[1:]))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_ht_mean_is_linear(seed):
    rng = np.random.default_rng(seed)
    s = draw_srswor(30, 10, rng)
    y, z = rng.normal(size=10), rng.normal(size=10)
    a, b = rng.normal(), rng.normal()
    assert ht_mean(s, a * y + b * z) == pytest.approx(
        a * ht_mean(s, y) + b * ht_mean(s, z), rel=1e-9, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seeds, st.floats(min_value=0.0, max_value=50.0))
def test_v2_is_nonnegative(seed, sigma2):
    s, r, X, y = instance(seed)
    m = ModelSpec((1, 2))
    fit = fit_candidates(X[r], y[r], [m])[m]
    # an rss that makes sigma2_hat = sigma2
    fit = dataclasses.replace(fit, rss=sigma2 * (r.sum() - m.p_alpha))
    assert estimate_model(s, r, X, y, m, fit, 0.95).v2 >= 0.0


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_eta_ht_mean_reproduces_the_estimator(seed):
    s, r, X, y = instance(seed)
    m = ModelSpec((1, 2))
    fit = fit_candidates(X[r], y[r], [m])[m]
    est, eta = estimate_and_eta(s, r, X, y, m, fit)
    assert ht_mean(s, eta) == pytest.approx(est.mu_hat, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans(), st.booleans(), st.booleans())
def test_estimate_model_matches_the_literal_forms(seed, stratified, nested, full_response):
    # every candidate of a nested chain (whose fits hold views of one Q)
    # or of an explicit list, on SRSWOR or stratified draws
    rng = np.random.default_rng(seed)
    p = 3
    if stratified:
        key = rng.normal(size=60)
        s = draw_stratified(key, np.abs(key) + 1.0, (0.5, 0.3, 0.2), 20, rng)
    else:
        s = draw_srswor(60, 20, rng)
    X = rng.gamma(5.0, 2.0, size=(s.n, p))
    y = 1.0 + X @ np.arange(1.0, p + 1) + rng.normal(size=s.n)
    r = np.ones(s.n, dtype=bool) if full_response else rng.random(s.n) < 0.6
    r[: p + 2] = True
    if nested:
        cands = nested_candidates(p)
    else:
        cands = list({ModelSpec(tuple(rng.choice(np.arange(1, p + 1), size=k, replace=False)))
                      for k in rng.integers(0, p + 1, size=4)})
    fits = fit_candidates(X[r], y[r], cands)
    mus = imputed_means(s, r, X, y, fits)
    for m, fit in fits.items():
        est, eta = estimate_and_eta(s, r, X, y, m, fit)
        assert est.mu_hat == mus[m]
        c = c_oracle(s, r, X, m)
        want = eta_oracle(s, r, X, y, m, fit.beta_hat, c)
        assert np.allclose(eta, want, rtol=0.0, atol=1e-12 * np.abs(y).max())
        v1, scale = v1_double_sum(s, want)
        assert est.v1 == pytest.approx(v1, rel=1e-10, abs=1e-12 * scale)
        assert est.v2 == pytest.approx(v2_oracle(s, r, est.sigma2_hat, X, m, c), rel=1e-10)
        if full_response:
            assert np.array_equal(eta, y)
            assert est.v2 == 0.0


def random_draw(seed, stratified):
    """A random SRSWOR draw (n from 1 to N), or a stratified one whose
    first stratum has n_h = 2 and, with two or more strata, whose last
    stratum is a census (f_h = 1). Stratum units are shuffled ids."""
    rng = np.random.default_rng(seed)
    if not stratified:
        N = int(rng.integers(2, 40))
        return draw_srswor(N, int(rng.integers(1, N + 1)), rng), rng
    sizes = rng.integers(2, 15, size=int(rng.integers(1, 5)))
    alloc = [int(rng.integers(2, N_h + 1)) for N_h in sizes]
    alloc[0] = 2
    if sizes.size > 1:
        alloc[-1] = int(sizes[-1])
    blocks = np.split(rng.permutation(int(sizes.sum())), np.cumsum(sizes)[:-1])
    picks = [rng.choice(np.sort(b), n_h, replace=False) for b, n_h in zip(blocks, alloc)]
    by_id = np.argsort(np.concatenate(picks))
    strata = np.repeat(np.arange(sizes.size), alloc)[by_id]
    return SampleDraw(np.concatenate(picks)[by_id], strata, sizes), rng


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans())
def test_v1_closed_form_equals_joint_matrix_double_sum(seed, stratified):
    s, rng = random_draw(seed, stratified)
    eta = rng.normal(size=s.n) * rng.uniform(1.0, 20.0) + rng.uniform(-10.0, 10.0)
    oracle, scale = v1_double_sum(s, eta)
    # the oracle's rounding error scales with its summands, not its value:
    # sampling fractions near 1 cancel most of the sum (n = N - 1 loses
    # ~1e-12 of the value), and census strata can cancel all of it
    assert v1_hat(s, eta) == pytest.approx(oracle, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans(), st.booleans())
def test_v1_is_nonnegative(seed, stratified, constant):
    s, rng = random_draw(seed, stratified)
    eta = np.full(s.n, rng.normal()) if constant else rng.normal(size=s.n)
    assert v1_hat(s, eta) >= 0.0


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_delta_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 30))
    n = int(rng.integers(2, N + 1))
    J = joint_matrix((N,), (n,), np.zeros(N, dtype=np.int64))
    delta = J - np.outer(np.diag(J), np.diag(J))
    k, l = rng.choice(N, size=2, replace=False)
    assert delta[k, l] == pytest.approx(delta[l, k], rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=200))
def test_largest_remainder_apportions_exactly(seed, total):
    rng = np.random.default_rng(seed)
    H = int(rng.integers(1, 8))
    raw = rng.random(H) + 1e-3
    out = _largest_remainder(raw, total)
    assert out.sum() == total
    assert np.all(out >= 0)
    # deterministic
    assert np.array_equal(out, _largest_remainder(raw, total))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_neyman_allocation_is_feasible(seed):
    rng = np.random.default_rng(seed)
    H = int(rng.integers(1, 6))
    sizes = rng.integers(2, 50, size=H)
    sds = rng.random(H) * rng.integers(0, 2, size=H)  # some zero-sd strata
    lo, hi = 2 * H, int(sizes.sum())
    if lo > hi:
        return
    n = int(rng.integers(lo, hi + 1))
    alloc = neyman_allocation(sizes, sds, n)
    assert alloc.sum() == n
    assert np.all(alloc >= 2)
    assert np.all(alloc <= sizes)
    # no bound binds: the plain largest-remainder Neyman shares
    w = sizes * sds
    if w.sum() == 0:
        w = sizes.astype(np.float64)
    share = w * (n / w.sum())
    if np.all((share >= 2) & (share <= sizes)):
        assert np.array_equal(alloc, _largest_remainder(w, n))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_stratum_sizes_partition_the_population(seed):
    rng = np.random.default_rng(seed)
    H = int(rng.integers(1, 5))
    cuts = np.sort(rng.random(H - 1)) if H > 1 else np.array([])
    fractions = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    if np.any(fractions < 0.05):
        return
    N = int(rng.integers(H * 40, 1000))
    sizes = stratum_sizes(N, tuple(fractions))
    assert sizes.sum() == N
    assert np.all(sizes >= 2)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
def test_modelspec_canonicalization_is_idempotent(idx):
    once = ModelSpec(tuple(idx))
    twice = ModelSpec(once.included)
    assert once == twice
    assert list(once.included) == sorted(set(idx))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_confidence_interval_geometry(point, v, level):
    lower, upper = confidence_interval(point, v, level)
    assert lower <= point <= upper
    assert upper - point == pytest.approx(point - lower, rel=1e-9, abs=1e-9)
    from scipy.special import ndtri
    half = float(ndtri((1 + level) / 2)) * np.sqrt(v)
    assert upper - lower == pytest.approx(2 * half, rel=1e-9, abs=1e-9)
