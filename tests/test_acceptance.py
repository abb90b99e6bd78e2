"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The four session-scoped studies (2000 replications, master seed
20260816, pinned before any run) feed the quantitative criteria; the
remaining criteria use exact or near-exact oracles. Bands were fixed
up front; a failing line is reported as measured, never widened.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from conftest import CONFIG_DIR
from oracles import c_oracle, eta_oracle, loss_closed_form, mc_loss_oracle

from survey_impute.design import (
    SampleDraw,
    draw_srswor,
    draw_stratified,
)
from survey_impute.estimators import (
    ModelSpec,
    fit_candidates,
    ht_mean,
    imputed_means,
    nested_candidates,
)
from survey_impute.population import generate_population, generate_response
from survey_impute.selection import select
from survey_impute.variance import (
    Estimate,
    estimate_model,
    sigma2_hat,
    v1_hat,
)

pytestmark = pytest.mark.acceptance


def by_name(summary):
    return {c.name: c for c in summary.criterion_rows}


def discordant_pairs(a, b):
    n = len(a)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if (a[i] - a[j]) * (b[i] - b[j]) < 0
    )


def ranking_clause(summary):
    """Exact loss/RE ranking agreement with a unique minimum at the
    sixth model. Returns (ok, detail)."""
    loss = [m.loss for m in summary.model_rows]
    re = [m.re for m in summary.model_rows]
    assert all(v is not None for v in loss + re)
    exact = list(np.argsort(loss)) == list(np.argsort(re))
    min_at_6 = (
        all(loss[5] < loss[j] for j in range(20) if j != 5)
        and all(re[5] < re[j] for j in range(20) if j != 5)
    )
    disc = discordant_pairs(loss, re)
    detail = f"discordant pairs={disc}, alpha6 unique min={min_at_6}"
    return exact and min_at_6, detail


def test_criterion_01_loss_re_ranking(acceptance, study_srswor_n500):
    _, summary, _ = study_srswor_n500
    ok, detail = ranking_clause(summary)
    acceptance(1, ok, f"srswor ranking: {detail}")


def test_criterion_02_bias_bands(acceptance, study_srswor_n500):
    _, summary, _ = study_srswor_n500
    rb = [m.rb for m in summary.model_rows]
    ok1 = 3.3 <= rb[0] <= 5.3
    tail = [rb[j] for j in range(3, 20)]
    ok2 = all(-0.5 <= v <= 0.5 for v in tail)
    acceptance(
        2, ok1 and ok2,
        f"RB(alpha1)={rb[0]:.3f} in [3.3,5.3]; max|RB(alpha4..20)|={max(abs(v) for v in tail):.3f} <= 0.5",
    )


def test_criterion_03_efficiency_bands(acceptance, study_srswor_n500):
    _, summary, _ = study_srswor_n500
    re = [m.re for m in summary.model_rows]
    in_band = 136 <= re[5] <= 149
    chain = (re[8] - re[5] >= -2) and (re[19] - re[8] >= -2)
    strict_min = all(re[5] < re[j] for j in range(20) if j != 5)
    acceptance(
        3, in_band and chain and strict_min,
        f"RE(alpha6)={re[5]:.3f} in [136,149]; RE9-RE6={re[8]-re[5]:.3f}, "
        f"RE20-RE9={re[19]-re[8]:.3f} >= -2; strict min={strict_min}",
    )


def selection_clause(summary, aic_band):
    rows = by_name(summary)
    bic_t, aic_t = rows["bic"].freq_true, rows["aic"].freq_true
    cv_o = rows["cv5"].freq_overfit
    wrong = max(rows[c].freq_wrong for c in ("aic", "bic", "cv5"))
    ok = (
        94 <= bic_t <= 100
        and aic_band[0] <= aic_t <= aic_band[1]
        and 52 <= cv_o <= 69
        and wrong <= 1
    )
    detail = (
        f"BIC true={bic_t:.2f} in [94,100]; AIC true={aic_t:.2f} in "
        f"[{aic_band[0]},{aic_band[1]}]; CV overfit={cv_o:.2f} in [52,69]; "
        f"max wrong={wrong:.2f} <= 1"
    )
    return ok, detail


def test_criterion_04_selection_frequencies(acceptance, study_srswor_n500):
    _, summary, _ = study_srswor_n500
    ok, detail = selection_clause(summary, (61, 77))
    acceptance(4, ok, f"srswor n=500: {detail}")


def test_criterion_05_bic_trend(
    acceptance, study_srswor_n100, study_srswor_n200, study_srswor_n500
):
    t100 = by_name(study_srswor_n100[1])["bic"].freq_true
    t200 = by_name(study_srswor_n200[1])["bic"].freq_true
    t500 = by_name(study_srswor_n500[1])["bic"].freq_true
    ok = (t100 <= t200 + 3) and (t200 <= t500 + 3)
    acceptance(
        5, ok,
        f"BIC identification {t100:.2f} -> {t200:.2f} -> {t500:.2f} "
        "non-decreasing within 3",
    )


def test_criterion_06_coverage_and_variance_bias(
    acceptance, study_srswor_n200, study_srswor_n500
):
    bic500 = by_name(study_srswor_n500[1])["bic"]
    bic200 = by_name(study_srswor_n200[1])["bic"]
    ok = (
        93.5 <= bic500.cp <= 95.7
        and -9 <= bic500.var_rb <= 3
        and -12 <= bic200.var_rb <= 3
    )
    acceptance(
        6, ok,
        f"CP(BIC,n=500)={bic500.cp:.2f} in [93.5,95.7]; "
        f"varRB(BIC,n=500)={bic500.var_rb:.2f} in [-9,3]; "
        f"varRB(BIC,n=200)={bic200.var_rb:.2f} in [-12,3]",
    )


def test_criterion_07_stratified_replication(acceptance, study_stratified_n500):
    _, summary, _ = study_stratified_n500
    rank_ok, rank_detail = ranking_clause(summary)
    rb = [m.rb for m in summary.model_rows]
    re = [m.re for m in summary.model_rows]
    bias_ok = 3.7 <= rb[0] <= 5.7 and all(
        -0.5 <= rb[j] <= 0.5 for j in range(3, 20)
    )
    eff_ok = (
        154 <= re[5] <= 172
        and re[8] - re[5] >= -2
        and re[19] - re[8] >= -2
        and all(re[5] < re[j] for j in range(20) if j != 5)
    )
    sel_ok, sel_detail = selection_clause(summary, (60.5, 76.5))
    acceptance(
        7, rank_ok and bias_ok and eff_ok and sel_ok,
        f"stratified: ranking[{rank_detail}]; RB(alpha1)={rb[0]:.3f} in [3.7,5.7] "
        f"and tail ok={bias_ok}; RE(alpha6)={re[5]:.3f} in [154,172] ok={eff_ok}; "
        f"{sel_detail}",
    )


def test_criterion_08_loss_cross_oracle(acceptance):
    # 20 systematically seeded tiny instances, alternating through wrong,
    # exact, and overfitting working models; no seed was reseeded or
    # tuned after the first run
    models = [ModelSpec((1,)), ModelSpec((1, 2)), ModelSpec((1, 2, 3))]
    beta = np.array([1.0, 3.0, -2.0, 0.0])
    worst = 0.0
    failures = []
    for i in range(20):
        rng = np.random.default_rng([99001, i])
        N = 12 + int(rng.integers(0, 19))  # N <= 30
        n = max(6, N // 2)
        s = draw_srswor(N, n, rng)
        X = rng.gamma(5.0, 2.0, size=(n, 3))
        r = np.ones(n, dtype=bool)
        r[rng.choice(n, size=max(1, n // 3), replace=False)] = False
        if r.sum() < 5:
            # rebuild so the fit stays well posed and missing units remain
            r[:] = True
            r[5:] = False
        model = models[i % 3]
        ref = loss_closed_form(s, r, X, model, beta, 2.0).total
        est, se = mc_loss_oracle(
            s, r, X, model, beta, 2.0, 200_000, np.random.default_rng([99002, i])
        )
        z = abs(est - ref) / se
        worst = max(worst, z)
        if z > 3:
            failures.append((i, z))
    acceptance(
        8, not failures,
        f"20 instances, closed form vs MC oracle: max |z|={worst:.2f} (limit 3)"
        + (f"; failing: {failures}" if failures else ""),
    )


def test_criterion_09_l2_monotonicity(acceptance):
    violations = 0
    pairs = 0
    for seed in range(50):
        rng = np.random.default_rng([99101, seed])
        s = draw_srswor(50, 20, rng)
        X = rng.gamma(5.0, 2.0, size=(20, 5))
        r = rng.random(20) < 0.6
        if r.sum() < 8:
            r[:8] = True
        if r.all():
            r[-1] = False
        l2 = [
            loss_closed_form(s, r, X, m, np.zeros(6), 1.0).l2
            for m in nested_candidates(5)
        ]
        for a, b in zip(l2, l2[1:]):
            pairs += 1
            if not b > a:
                violations += 1
    acceptance(
        9, violations == 0 and pairs == 200,
        f"{pairs} nested pairs, l2 strict increase violations={violations}",
    )


def test_criterion_10_design_unbiasedness(acceptance):
    rng = np.random.default_rng(99201)
    worst = 0.0

    def check(sizes, samples, stratum_of):
        nonlocal worst
        N = sum(sizes)
        prob = 1.0 / len(samples)
        for _ in range(20):
            eta_pop = rng.normal(size=N) * 3.0 + 1.0
            mu = eta_pop.mean()
            hts, v1s = [], []
            for ids in samples:
                ids = np.asarray(ids)
                s = SampleDraw(ids, stratum_of(ids), sizes)
                hts.append(ht_mean(s, eta_pop[ids]))
                v1s.append(v1_hat(s, eta_pop[ids]))
            e_ht = prob * np.sum(hts)
            true_var = prob * np.sum((np.asarray(hts) - mu) ** 2)
            e_v1 = prob * np.sum(v1s)
            scale = max(abs(mu), 1.0)
            worst = max(
                worst,
                abs(e_ht - mu) / scale,
                abs(e_v1 - true_var) / max(true_var, 1e-12),
            )

    check((8,), list(itertools.combinations(range(8), 3)), np.zeros_like)

    # strata: units 0..4 and 5..8
    samples = [
        tuple(a) + tuple(b)
        for a in itertools.combinations(range(5), 2)
        for b in itertools.combinations(range(5, 9), 2)
    ]
    check((5, 4), samples, lambda ids: (ids >= 5).astype(np.int64))

    acceptance(
        10, worst <= 1e-12,
        f"exhaustive ht_mean and v1_hat unbiasedness, worst relative error={worst:.2e}",
    )


def test_criterion_11_linearization_identity(acceptance):
    worst = 0.0
    count = 0
    for seed in range(50):
        for branch, kind in enumerate(("srswor", "stratified")):
            rng = np.random.default_rng([99301, seed, branch])
            if kind == "srswor":
                s = draw_srswor(60, 18, rng)
            else:
                key = rng.normal(size=24)
                s = draw_stratified(key, np.abs(key) + 0.5, (0.5, 0.5), 10, rng)
            n = s.n
            X = rng.gamma(5.0, 2.0, size=(n, 2))
            y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=n)
            r = rng.random(n) < 0.6
            if r.sum() < 4:
                r[:4] = True
            if r.all():
                r[-1] = False
            m = ModelSpec((1, 2)) if seed % 2 else ModelSpec((1,))
            fit = fit_candidates(X[r], y[r], [m])[m]
            mu = imputed_means(s, r, X, y, {m: fit})[m]
            eta = eta_oracle(s, r, X, y, m, fit.beta_hat, c_oracle(s, r, X, m))
            worst = max(worst, abs(ht_mean(s, eta) - mu) / max(abs(mu), 1.0))
            count += 1
    acceptance(
        11, count == 100 and worst <= 1e-10,
        f"{count} instances, worst relative identity gap={worst:.2e} (limit 1e-10)",
    )


def test_criterion_12_noiseless_recovery(acceptance):
    rng = np.random.default_rng(99401)
    beta = np.array([0.5, 2.0, -1.0, 0.0, 0.0])
    X_pop, y_pop, resp_prob = generate_population(
        40, 4, {"name": "gamma", "shape": 5.0, "scale": 2.0},
        beta, 0.0, (0.5, 1.0, np.zeros(4)), rng,
    )
    s = draw_srswor(40, 15, rng)
    r = generate_response(resp_prob, s.unit_ids, rng)
    X, y = X_pop[s.unit_ids], y_pop[s.unit_ids]
    m2 = ModelSpec((1, 2))
    fit = fit_candidates(X[r], y[r], [m2])[m2]
    beta_exact = bool(np.allclose(fit.beta_hat, [0.5, 2.0, -1.0], rtol=1e-9, atol=1e-9))
    s2_zero = sigma2_hat(fit) <= 1e-18
    X_r, y_r, cands = X[r], y[r], nested_candidates(4)
    best, _ = select("bic", fit_candidates(X_r, y_r, cands), y_r)
    picks_smallest = best == m2

    cs = SampleDraw(np.arange(40), np.zeros(40, dtype=np.int64), (40,))
    census = fit_candidates(X_pop, y_pop, cands)
    model, _ = select("bic", census, y_pop)
    est = estimate_model(cs, np.ones(40, dtype=bool), X_pop, y_pop, model, census[model], 0.95)
    mu = float(y_pop.mean())
    degenerate = (
        est.lower == est.upper == est.mu_hat
        and abs(est.mu_hat - mu) <= 1e-12 * abs(mu)
    )
    acceptance(
        12, beta_exact and s2_zero and picks_smallest and degenerate,
        f"beta exact={beta_exact}, sigma2_hat=0={s2_zero}, "
        f"BIC smallest correct={picks_smallest}, census CI degenerate at mu={degenerate}",
    )


def test_criterion_13_studentized_normality(acceptance, study_srswor_n500):
    cfg, _, records = study_srswor_n500
    j = list(cfg.criteria).index("bic")
    vals = [
        (r.criteria[j].mu_hat - r.mu_true) / np.sqrt(r.criteria[j].v_total)
        for r in records
        if isinstance(r.criteria[j], Estimate)
    ]
    stat = scipy.stats.kstest(vals, "norm")
    ok = stat.pvalue >= 0.01
    acceptance(
        13, ok,
        f"KS test of {len(vals)} studentized errors vs N(0,1): "
        f"D={stat.statistic:.4f}, p={stat.pvalue:.4f} (need >= 0.01)",
    )


def test_criterion_14_thread_determinism(acceptance, tmp_path):
    raw = json.loads((CONFIG_DIR / "srswor_n500.json").read_text())
    raw["replications"] = 200
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(raw))
    outputs = []
    for threads, sub in (("1", "t1"), ("4", "t4")):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "survey_impute", "simulate",
             "--config", str(cfg_path), "--out-dir", str(out),
             "--threads", threads],
            capture_output=True, text=True, timeout=560,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "summary.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    acceptance(
        14, ok,
        f"summary.csv identical across --threads 1/4 at B=200: {ok}",
    )


# --- misspecification (criteria 15-17) -------------------------------------
# The abstract claims that omitting relevant covariates or including
# irrelevant ones affects consistency and asymptotic variance. The three
# srswor studies (n = 100, 200, 500, N = 10 n, same beta and response
# model) hold the model rows that show it. Each band is fixed from the
# theory below and from the Monte Carlo SE of the cell, computed from the
# fixtures' replication records. Each cell is a mean of per-replication
# terms (to first order for RE), and its SE is sd(terms) / sqrt(B). The
# studies share master_seed, so replication b of each draws from the
# same streams: a difference between two studies is a mean of paired
# differences of terms, with SE sd(difference) / sqrt(B).

def mc_se(terms):
    return float(np.std(terms, ddof=1) / np.sqrt(terms.size))


def rb_terms(records, j):
    """(RB of candidate j as summarize computes it, its terms 100 rel,
    rel = (mu_hat - mu) / mu per replication, whose mean RB is)."""
    rel = np.array([(r.mu_hats[j] - r.mu_true) / r.mu_true for r in records])
    return 100.0 * rel.mean(), 100.0 * rel


def re_gap_terms(records, i, j):
    """(RE(j) - RE(i), its delta-method terms): with a = e_j^2 - e_i^2
    and c = e_ht^2 per replication (e an error against mu), the gap is
    G = 100 mean(a) / mean(c), which to first order moves by the mean of
    the terms 100 (a - (G / 100) c) / mean(c)."""
    mu = np.array([r.mu_true for r in records])
    e_i = np.array([r.mu_hats[i] for r in records]) - mu
    e_j = np.array([r.mu_hats[j] for r in records]) - mu
    a = e_j**2 - e_i**2
    c = (np.array([r.ht_complete for r in records]) - mu) ** 2
    ratio = a.mean() / c.mean()
    return 100.0 * ratio, 100.0 * (a - ratio * c) / c.mean()


def paired(*studies):
    """The studies' records, after checking that they pair by rep_id."""
    records = [study[2] for study in studies]
    ids = [[r.rep_id for r in rec] for rec in records]
    assert all(i == ids[0] for i in ids)
    return records


def test_criterion_15_omitted_covariates_bias_stays(
    acceptance, study_srswor_n100, study_srswor_n500
):
    """alpha1 omits x2-x4, which drive response, so the respondents'
    regression on x1 alone does not carry over to the missing units: the
    imputation bias converges to a nonzero constant instead of vanishing.
    Margin rule: RB(alpha1) at n = 100 and at n = 500 agree within 3 SE
    of their difference."""
    rec100, rec500 = paired(study_srswor_n100, study_srswor_n500)
    rb100, t100 = rb_terms(rec100, 0)
    rb500, t500 = rb_terms(rec500, 0)
    assert rb100 == pytest.approx(study_srswor_n100[1].model_rows[0].rb, rel=1e-12)
    assert rb500 == pytest.approx(study_srswor_n500[1].model_rows[0].rb, rel=1e-12)
    se = mc_se(t100 - t500)
    gap = rb100 - rb500
    acceptance(
        15, abs(gap) <= 3 * se,
        f"RB(alpha1) n=100 {rb100:.3f} (SE {mc_se(t100):.3f}), n=500 {rb500:.3f} "
        f"(SE {mc_se(t500):.3f}); |gap|={abs(gap):.3f} <= 3 SE={3 * se:.3f}",
    )


def test_criterion_16_consistent_models_unbiased(
    acceptance, study_srswor_n100, study_srswor_n200, study_srswor_n500
):
    """alpha4 and alpha5 omit only x5 and x6, which enter y but not the
    response model and are independent of the covariates that do, so the
    intercept absorbs their mean; alpha6-alpha20 hold the true model.
    Every such model imputes without bias. Margin rule: |RB| <= 0.5 for
    alpha4-alpha20 at every n, acceptance 02's bound."""
    details, ok = [], True
    for n, (_, summary, records) in (
        (100, study_srswor_n100), (200, study_srswor_n200), (500, study_srswor_n500)
    ):
        rb = [summary.model_rows[j].rb for j in range(3, 20)]
        worst = int(np.argmax(np.abs(rb)))
        se = mc_se(rb_terms(records, 3 + worst)[1])
        ok &= all(abs(v) <= 0.5 for v in rb)
        details.append(f"n={n} max|RB|={abs(rb[worst]):.3f} at alpha{4 + worst} (SE {se:.3f})")
    acceptance(16, ok, "; ".join(details) + "; bound 0.5")


def test_criterion_17_irrelevant_covariates_cost_shrinks(
    acceptance, study_srswor_n100, study_srswor_n500
):
    """alpha20 adds x7-x20 to the true alpha6. Estimating their zero
    coefficients adds variance to the imputed mean; relative to the HT
    mean squared error the cost is O(p / n) for the covariates unrelated
    to response, and at most constant in n for x7-x9, which enter the
    response model. So D_n = RE(alpha20) - RE(alpha6) does not grow with
    n. Margin rule: D_500 - D_100 <= 1 SE of that difference."""
    rec100, rec500 = paired(study_srswor_n100, study_srswor_n500)
    d100, t100 = re_gap_terms(rec100, 5, 19)
    d500, t500 = re_gap_terms(rec500, 5, 19)
    se = mc_se(t500 - t100)
    acceptance(
        17, d500 - d100 <= se,
        f"RE(alpha20)-RE(alpha6) n=100 {d100:.2f} (SE {mc_se(t100):.2f}), n=500 {d500:.2f} "
        f"(SE {mc_se(t500):.2f}); rise {d500 - d100:.2f} <= 1 SE={se:.2f}",
    )
