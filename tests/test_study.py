"""Monte Carlo driver: metrics, record plumbing, CSV output."""

import concurrent.futures
import csv
import dataclasses

import numpy as np
import pytest
from conftest import load_config
from hypothesis import given, settings
from hypothesis import strategies as st

from survey_impute import study
from survey_impute.config import parse_study_config
from survey_impute.design import draw_srswor
from survey_impute.errors import ConfigError, MetricError
from survey_impute.estimators import ModelSpec, fit_candidates, nested_candidates
from survey_impute.selection import select
from survey_impute.study import (
    SUMMARY_COLUMNS,
    StudySummary,
    SummaryRow,
    candidate_labels,
    coverage_probability,
    mc_loss,
    relative_bias,
    relative_efficiency,
    reps_to_csv,
    run_records,
    run_replication,
    run_study,
    summarize,
    summary_to_csv,
    variance_rb,
)
from survey_impute.variance import Estimate, estimate_model


def tiny_config(**tweaks):
    raw = {
        "name": "tiny",
        "replications": 3,
        "master_seed": 5,
        "criteria": ["bic"],
        "population": {
            "N": 60,
            "p": 2,
            "covariate_law": {"name": "uniform", "low": 0.0, "high": 4.0},
            "beta": [0.0, 2.0, 0.0],
            "sigma": 1.0,
            "response_offset": 1.0,
            "response_scale": 1.0,
            "response_coefs": [0.0, 0.0],
        },
        "design": {"kind": "srswor", "n": 12},
    }
    for key, val in tweaks.items():
        if key in ("population", "design"):
            raw[key].update(val)
        else:
            raw[key] = val
    return parse_study_config(raw)


class TestMetrics:
    def test_relative_bias(self):
        mu = np.array([10.0, 20.0])
        assert relative_bias(mu, mu) == 0.0
        assert relative_bias(1.1 * mu, mu) == pytest.approx(10.0)
        with pytest.raises(MetricError):
            relative_bias(np.array([1.0]), np.array([0.0]))
        with pytest.raises(MetricError):
            relative_bias(np.array([]), np.array([]))

    def test_relative_efficiency(self):
        mu_true = np.array([5.0, 5.0, 5.0])
        ht = np.array([6.0, 4.0, 5.5])
        assert relative_efficiency(ht, mu_true, ht) == pytest.approx(100.0)
        assert relative_efficiency(mu_true, mu_true, ht) == 0.0
        with pytest.raises(MetricError):
            relative_efficiency(ht, mu_true, mu_true)  # HT hits the truth exactly

    def test_coverage_probability(self):
        assert coverage_probability([True, True, False, True]) == 75.0
        with pytest.raises(MetricError):
            coverage_probability([])

    def test_variance_rb(self):
        mu_true = np.zeros(4)
        mu_hat = np.array([1.0, -1.0, 2.0, -2.0])
        v_mc = float(np.var(mu_hat, ddof=1))
        assert variance_rb(np.full(4, v_mc), mu_hat, mu_true) == pytest.approx(0.0)
        assert variance_rb(np.full(4, 2 * v_mc), mu_hat, mu_true) == pytest.approx(100.0)
        with pytest.raises(MetricError):
            variance_rb(np.array([1.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(MetricError):
            variance_rb(np.ones(3), np.ones(3), np.ones(3))  # zero MC variance

    def test_mc_loss(self):
        ht = np.array([3.0, 4.0])
        assert mc_loss(ht, ht, 100) == 0.0
        assert mc_loss(ht + 0.5, ht, 100) == pytest.approx(25.0)


class TestLabels:
    def test_nested(self):
        cfg = tiny_config()
        labels = candidate_labels(cfg)
        assert list(labels.items()) == [(ModelSpec((1,)), "alpha1"), (ModelSpec((1, 2)), "alpha2")]

    def test_explicit(self):
        cfg = tiny_config(candidates=[[1, 2], [2]])
        labels = candidate_labels(cfg)
        assert list(labels.items()) == [(ModelSpec((1, 2)), "i1+2"), (ModelSpec((2,)), "i2")]

    def test_built_once_per_candidate_list_and_read_only(self):
        labels = candidate_labels(tiny_config())
        assert candidate_labels(tiny_config(replications=9, master_seed=1)) is labels
        assert candidate_labels(tiny_config(candidates=[[1]])) is not labels
        with pytest.raises(TypeError):
            labels[ModelSpec((2,))] = "x"


class TestRunReplication:
    def test_census_full_response_degenerates_cleanly(self):
        cfg = tiny_config(
            replications=1,
            population={"response_offset": 150.0, "response_scale": 0.1},
            design={"n": 60},
        )
        rec = run_replication(cfg, 0)
        assert rec.ht_complete == pytest.approx(rec.mu_true, rel=1e-14)
        bic = rec.criteria[0]
        assert isinstance(bic, Estimate)
        assert bic.mu_hat == pytest.approx(rec.mu_true, rel=1e-14)
        assert bic.v_total == pytest.approx(0.0, abs=1e-15)
        assert bic.lower == pytest.approx(rec.mu_true, rel=1e-12)
        assert bic.upper == pytest.approx(rec.mu_true, rel=1e-12)
        assert bic.lower <= rec.mu_true <= bic.upper

        summary = summarize(cfg, [rec])
        crit = summary.criterion_rows[0]
        assert crit.rb == pytest.approx(0.0, abs=1e-12)
        assert crit.loss == pytest.approx(0.0, abs=1e-15)
        assert crit.cp == 100.0
        assert crit.re is None        # HT error is exactly zero
        assert crit.var_rb is None    # one replication, zero MC variance
        assert summary.failure_rate == 0.0

    def test_determinism(self):
        cfg = tiny_config()
        a = run_records(cfg)
        b = run_records(cfg)
        assert a == b

    def test_master_seed_override_changes_draws(self):
        cfg = tiny_config(replications=1)
        a = run_replication(cfg, 0)
        b = run_replication(dataclasses.replace(cfg, master_seed=99), 0)
        assert a.mu_true != b.mu_true

    def test_rep_ids_change_draws(self):
        cfg = tiny_config(replications=2)
        a, b = run_records(cfg)
        assert a.mu_true != b.mu_true
        assert (a.rep_id, b.rep_id) == (0, 1)


def count_factorizations(monkeypatch):
    """Record every respondent-design QR made through qr_checked."""
    import survey_impute.estimators as est

    calls, real = [], est.qr_checked

    def counted(Z):
        calls.append(Z.shape)
        return real(Z)

    monkeypatch.setattr(est, "qr_checked", counted)
    return calls


class TestThreads:
    """The worker pool is sized without starting a process: a stand-in
    executor records its size and maps in this process."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_records imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    @pytest.mark.parametrize("cpus,want", [(2, 2), (None, 1)])
    def test_pool_is_capped_at_the_cpu_count(self, pool_sizes, monkeypatch, cpus, want):
        monkeypatch.setattr(study.os, "cpu_count", lambda: cpus)
        cfg = tiny_config(replications=6)
        serial = run_records(cfg, 1)
        assert pool_sizes == []
        for threads in (2, 3, 5000):
            assert run_records(cfg, threads) == serial
        assert pool_sizes == [min(2, want), min(3, want), want]

    @pytest.mark.parametrize("threads", [0, -4])
    def test_fewer_than_one_thread_is_a_config_error(self, pool_sizes, threads):
        with pytest.raises(ConfigError, match="--threads"):
            run_records(tiny_config(), threads)
        assert pool_sizes == []

    def test_chunks_are_ranges_for_any_replication_count(self, monkeypatch):
        # np.arange(2**62) would need 32 EiB: the chunks are cut as ranges,
        # 4 per thread, and a stand-in pool records them and runs none
        chunks = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                chunks.extend(rep_ids for _, rep_ids in items)
                return []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        B = 2**62
        assert run_records(tiny_config(replications=B), 2) == []
        assert len(chunks) == 8 and all(isinstance(c, range) for c in chunks)
        assert chunks[0].start == 0 and chunks[-1].stop == B
        assert all(c.step == 1 and len(c) == B // 8 for c in chunks)
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))


class TestFitSharing:
    def test_replication_factors_each_candidate_once(self, monkeypatch):
        # p = 3 nested: one fit per candidate, shared by the model rows,
        # aic, bic, cv5 and the intervals, all read off one QR of the
        # nested chain's widest design
        cfg = tiny_config(
            replications=1,
            criteria=["aic", "bic", "cv5"],
            population={"p": 3, "beta": [0.0, 2.0, 1.0, 0.0],
                        "response_coefs": [0.0, 0.0, 0.0]},
            design={"n": 24},
        )
        calls = count_factorizations(monkeypatch)
        rec = run_replication(cfg, 0)
        assert None not in rec.mu_hats and all(isinstance(c, Estimate) for c in rec.criteria)
        assert len(calls) == 1

    @pytest.mark.parametrize("criterion", ["aic", "bic", "cv5"])
    def test_estimate_with_given_fits_factors_nothing(self, criterion, monkeypatch):
        rng = np.random.default_rng(21)
        sample = draw_srswor(80, 20, rng)
        X = rng.normal(size=(20, 3))
        y = 1.0 + X @ [2.0, 1.0, 0.0] + rng.normal(size=20)
        r = rng.random(20) < 0.7
        cands = nested_candidates(3)
        fits = fit_candidates(X[r], y[r], cands)
        calls = count_factorizations(monkeypatch)
        model, _ = select(criterion, fits, y[r], np.random.default_rng(22))
        est = estimate_model(sample, r, X, y, model, fits[model], 0.95)
        assert np.isfinite(est.v_total)
        assert calls == []


class TestEstimateSharing:
    def test_criteria_that_pick_one_model_share_its_estimate(self, monkeypatch):
        # the true model is the widest candidate, so aic, bic and cv5 all
        # pick it; it is estimated once, and the record equals the one
        # made when every criterion estimates its pick itself
        cfg = tiny_config(replications=1, criteria=["aic", "bic", "cv5"],
                          population={"beta": [1.0, 2.0, 3.0]}, design={"n": 30})
        picks, calls = [], []

        def picked(crit, fits, *rest):
            model, scores = select(crit, fits, *rest)
            picks.append((model, fits[model]))
            return model, scores

        def counted(*args):
            calls.append(args)
            return estimate_model(*args)

        monkeypatch.setattr(study, "select", picked)
        monkeypatch.setattr(study, "estimate_model", counted)
        shared = run_replication(cfg, 0)
        assert [m for m, _ in picks] == [ModelSpec((1, 2))] * 3
        assert [args[4] for args in calls] == [ModelSpec((1, 2))]
        assert all(e is shared.criteria[0] for e in shared.criteria)

        # each criterion estimating its own pick, on the replication's data
        sample, r, X, y, _, _, level = calls[0]
        unshared = tuple(estimate_model(sample, r, X, y, m, fit, level) for m, fit in picks)
        assert dataclasses.replace(shared, criteria=unshared) == shared


class TestFailureAccounting:
    def test_frequencies_partition_with_failures(self):
        # 4 sampled units, ~50% response, 3 covariates: many replications
        # cannot fit (or cannot leave residual df for) the larger models
        cfg = tiny_config(
            replications=40,
            master_seed=7,
            criteria=["bic"],
            population={
                "N": 12, "p": 3,
                "beta": [0.0, 2.0, 0.0, 0.0],
                "response_offset": 0.0, "response_scale": 0.0,
                "response_coefs": [0.0, 0.0, 0.0],
            },
            design={"n": 4},
        )
        summary, records = run_study(cfg)
        crit = summary.criterion_rows[0]
        total = crit.freq_wrong + crit.freq_true + crit.freq_overfit + crit.failures
        assert total == pytest.approx(100.0, abs=1e-9)
        assert crit.failures > 0.0
        assert summary.failure_rate > 0.0
        names = {c for r in records for c in r.criteria if isinstance(c, str)}
        assert names <= {"SelectionFailureError", "EstimationFailureError"}
        assert names

    def test_infeasible_cv_counts_as_failure(self):
        # ~38% response on 10 sampled units: most replications have fewer
        # than 5 respondents, so cv5 cannot form its folds
        cfg = tiny_config(
            replications=20,
            master_seed=11,
            criteria=["cv5"],
            population={"response_offset": -0.5},
            design={"n": 10},
        )
        summary, records = run_study(cfg)
        assert summary.criterion_rows[0].failures > 0.0
        names = {c for r in records for c in r.criteria if isinstance(c, str)}
        assert "SelectionFailureError" in names

    def test_model_rows_track_their_own_failures(self):
        cfg = tiny_config(
            replications=30,
            master_seed=3,
            population={
                "N": 12, "p": 3,
                "beta": [0.0, 2.0, 0.0, 0.0],
                "response_offset": 0.0, "response_scale": 0.0,
                "response_coefs": [0.0, 0.0, 0.0],
            },
            design={"n": 4},
        )
        summary, _ = run_study(cfg)
        by_label = {m.name: m for m in summary.model_rows}
        # alpha3 needs 4 respondent rows; alpha1 only 2
        assert by_label["alpha3"].failures >= by_label["alpha1"].failures
        assert by_label["alpha3"].failures > 0.0


@st.composite
def tiny_study(draw):
    """A tiny, mostly nonresponding study: N <= 30, p 1-3, srswor or
    stratified, any of aic, bic, cv2, cv3."""
    p = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["srswor", "stratified"]))
    H = draw(st.integers(1, 3)) if kind == "stratified" else 1
    N = draw(st.integers(2 * H, 30))
    n = draw(st.integers(2 * H if kind == "stratified" else 1, N))
    design = {"kind": kind, "n": n}
    if kind == "stratified":
        design.update(
            sort_coefs=draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=p, max_size=p)),
            alloc_covariate=draw(st.integers(1, p)),
            fractions=[1.0 / H] * H,
        )
    return parse_study_config({
        "name": "fuzz",
        "replications": 3,
        "master_seed": draw(st.integers(0, 2**16)),
        "criteria": draw(st.lists(st.sampled_from(["aic", "bic", "cv2", "cv3"]),
                                  min_size=1, max_size=4, unique=True)),
        "candidates": draw(st.sampled_from(["nested", [[1]]])),
        "population": {
            "N": N,
            "p": p,
            "covariate_law": draw(st.sampled_from([
                {"name": "uniform", "low": 0.0, "high": 4.0},
                {"name": "gamma", "shape": 2.0, "scale": 1.0},
            ])),
            "beta": draw(st.lists(st.sampled_from([0.0, 1.0, -2.0]), min_size=p + 1,
                                  max_size=p + 1)),
            "sigma": draw(st.sampled_from([0.0, 0.5, 2.0])),
            # response probability expit(offset): from about 5% to 62%
            "response_offset": draw(st.floats(-3.0, 0.5)),
            "response_scale": 1.0,
            "response_coefs": [0.0] * p,
        },
        "design": design,
    })


@settings(max_examples=50, deadline=None)
@given(tiny_study())
def test_tiny_studies_count_their_failures(cfg):
    records = run_records(cfg)
    summary = summarize(cfg, records)
    names = {c for r in records for c in r.criteria if isinstance(c, str)}
    assert names <= {"SelectionFailureError", "EstimationFailureError"}
    for row in summary.criterion_rows:
        total = row.freq_wrong + row.freq_true + row.freq_overfit + row.failures
        assert total == pytest.approx(100.0, abs=1e-9)


class TestCsv:
    def test_summary_layout(self, tmp_path):
        cfg = tiny_config()
        summary, _ = run_study(cfg)
        path = tmp_path / "summary.csv"
        summary_to_csv(summary, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(SUMMARY_COLUMNS)
        assert all(len(r) == len(SUMMARY_COLUMNS) for r in rows)
        model_rows = [r for r in rows[1:] if r[0] == "model"]
        crit_rows = [r for r in rows[1:] if r[0] == "criterion"]
        assert [r[1] for r in model_rows] == ["alpha1", "alpha2"]
        assert [r[1] for r in crit_rows] == ["bic"]
        for r in model_rows:
            assert r[5:10] == [""] * 5  # frequency and CI columns stay blank
            assert r[10] != ""

    def test_every_field_lands_under_its_header(self, tmp_path):
        # a distinct value in every field, so a field written under
        # another field's header shows
        header_of = {"rb": "RB", "re": "RE", "loss": "loss", "freq_wrong": "freqW",
                     "freq_true": "freqTrue", "freq_overfit": "freqOverfit", "cp": "CP",
                     "var_rb": "varRB", "failures": "failures"}
        model = SummaryRow(name="alpha1", **{f: i + 0.25 for i, f in enumerate(header_of)})
        crit = SummaryRow(name="bic", **{f: i + 10.5 for i, f in enumerate(header_of)})
        summary_to_csv(StudySummary(7, (model,), (crit,)), tmp_path / "summary.csv")
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scope"], r["name"]) for r in rows] == [("model", "alpha1"), ("criterion", "bic")]
        for row, want in zip(rows, (model, crit)):
            for field, header in header_of.items():
                assert float(row[header]) == getattr(want, field), header

    def test_reps_layout(self, tmp_path):
        cfg = tiny_config(replications=2, criteria=["aic", "cv2"])
        _, records = run_study(cfg)
        path = tmp_path / "reps.csv"
        reps_to_csv(records, path, cfg)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        head = rows[0]
        assert head[:3] == ["rep_id", "mu_true", "ht_complete"]
        assert "mu_alpha1" in head and "mu_alpha2" in head
        for crit in ("aic", "cv2"):
            for f in ("selected", "mu", "v1", "v2", "lo", "hi", "covered"):
                assert f"{crit}_{f}" in head
        assert len(rows) == 3
        assert rows[1][0] == "0" and rows[2][0] == "1"

    def test_round_trip_float_precision(self, tmp_path):
        cfg = tiny_config()
        summary, _ = run_study(cfg)
        path = tmp_path / "summary.csv"
        summary_to_csv(summary, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        want = summary.criterion_rows[0].cp
        got = float([r for r in rows if r[0] == "criterion"][0][8])
        assert got == pytest.approx(want, rel=1e-9)


class TestGoldenReplication:
    """First replication of the main study, frozen from the first run."""

    def test_frozen_values(self):
        cfg = load_config("srswor_n500")
        rec = run_replication(cfg, 0)
        assert rec.mu_true == pytest.approx(511.2509109, rel=1e-9)
        assert rec.ht_complete == pytest.approx(514.0659101, rel=1e-9)
        assert rec.mu_hats[5] == pytest.approx(511.0395697, rel=1e-9)  # alpha6
        bic = rec.criteria[list(cfg.criteria).index("bic")]
        assert isinstance(bic, Estimate)
        assert bic.model == nested_candidates(cfg.p)[5]  # alpha6
        assert bic.v1 == pytest.approx(28.34810904, rel=1e-9)
        assert bic.v2 == pytest.approx(0.7220067505, rel=1e-9)
        assert bic.lower == pytest.approx(500.4720888, rel=1e-9)
        assert bic.upper == pytest.approx(521.6070506, rel=1e-9)
        assert bic.lower <= rec.mu_true <= bic.upper
