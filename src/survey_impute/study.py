"""Monte Carlo replication engine (run_records) and metric aggregation
(summarize) into one SummaryRow per candidate (labeled by
candidate_labels) and per criterion.

Each replication derives its own RNG streams from
SeedSequence([master_seed, rep_id]).spawn(4), one stream per stage
(population, sample, response, criteria), so results are identical for
any worker count, any execution order and whichever thread draws;
aggregation is a fold over rep_id order.

A run of replications draws each replication's population, sample and
response (draw_replication) on one helper thread while the main thread
fits, selects and estimates the replication before it (run_replication).
The draw is mostly the covariate draw and BLAS, which release the GIL,
so it runs on a second core. Only the sampled units' copies cross
threads; the population is made and dropped on the helper.
"""

import csv
import functools
import os
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .design import draw_srswor, draw_stratified
from .errors import ConfigError, EstimationFailureError, SelectionFailureError
from .estimators import build_candidates, classify_model, fit_candidates, ht_mean, imputed_means
from .population import generate_population, generate_response, true_support
from .selection import select
from .variance import Estimate, estimate_model

# the data failures a replication counts, the only errors select and
# estimate_model raise: fit_candidates turns a singular fit into None, and
# a saturated fit or a non-finite estimate is an EstimationFailureError; a
# population that makes the config unusable is a ConfigError, no failure
_FAILURES = (SelectionFailureError, EstimationFailureError)


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication's numbers; mu_hats in candidate order, None where
    the fit is None, and criteria in config order, each the criterion's
    Estimate or the class name of the error it failed with. Labels and
    classes come from the config (candidate_labels)."""

    rep_id: int
    mu_true: float
    ht_complete: float
    mu_hats: tuple
    criteria: tuple


def candidate_labels(cfg):
    """{model: label} in config order: alpha1..alphap for the nested
    list, ModelSpec.label() otherwise. The map is the study's candidate
    set and is built once per process and candidate list, so every
    replication, summarize and reps_to_csv read the same read-only
    mapping."""
    return _labels(cfg.candidates, cfg.population.p)


@functools.lru_cache(maxsize=16)
def _labels(candidates, p):
    nested = candidates == "nested"
    return MappingProxyType({m: f"alpha{j}" if nested else m.label()
                             for j, m in enumerate(build_candidates(candidates, p), start=1)})


def _rng(cfg, rep_id, stage):
    """The generator of one stage of replication rep_id, child `stage` of
    SeedSequence([master_seed, rep_id]) as spawn(4) numbers them:
    0 population, 1 sample, 2 response, 3 criteria."""
    return np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, rep_id], spawn_key=(stage,)))


# as _run_chunk, whose error state a helper thread does not inherit
@np.errstate(over="ignore", invalid="ignore")
def draw_replication(cfg, rep_id):
    """The draws of replication rep_id -> (mu_true, sample, r, X_s, y_s):
    the population mean, the SampleDraw, the response set and the sampled
    units' covariates and y, copies that keep no reference to the
    population."""
    pop, design = cfg.population, cfg.design
    X, y, resp_prob = generate_population(
        pop.N, pop.p, pop.covariate_law, pop.beta, pop.sigma,
        (pop.response_offset, pop.response_scale, pop.response_coefs), _rng(cfg, rep_id, 0)
    )
    if design.kind == "srswor":
        sample = draw_srswor(pop.N, design.n, _rng(cfg, rep_id, 1))
    else:
        sort_key = X @ np.asarray(design.sort_coefs)
        try:
            sample = draw_stratified(sort_key, X[:, design.alloc_covariate - 1],
                                     design.fractions, design.n, _rng(cfg, rep_id, 1))
        except ValueError as exc:  # config checks all else: a stratum sd that is not finite
            raise ConfigError("design.alloc_covariate", str(exc))
    r = generate_response(resp_prob, sample.unit_ids, _rng(cfg, rep_id, 2))
    return float(y.mean()), sample, r, X[sample.unit_ids], y[sample.unit_ids]


def run_replication(cfg, rep_id, drawn):
    """The record of replication rep_id from its draws (draw_replication):
    fits, selection and estimates."""
    mu_true, sample, r, X_s, y_s = drawn
    ht_complete = ht_mean(sample, y_s)

    y_r = y_s[r]
    fits = fit_candidates(X_s[r], y_r, candidate_labels(cfg))
    mu_hats = tuple(imputed_means(sample, r, X_s, y_s, fits).values())

    crit_rng = _rng(cfg, rep_id, 3)
    criteria = []
    estimates = {}  # criteria that pick one model share its Estimate
    for crit in cfg.criteria:
        try:
            model, _ = select(crit, fits, y_r, crit_rng)
            if model not in estimates:
                estimates[model] = estimate_model(
                    sample, r, X_s, y_s, model, fits[model], cfg.level
                )
            est = estimates[model]
        except _FAILURES as exc:
            est = type(exc).__name__
        criteria.append(est)

    return ReplicationRecord(rep_id, mu_true, ht_complete, mu_hats, tuple(criteria))


# finite but huge data can overflow to NaN estimates and failed criteria,
# with no numpy warning on stderr, as in cmd_estimate
@np.errstate(over="ignore", invalid="ignore")
def _run_chunk(args):
    """The records of rep_ids, in order, each replication drawn on a
    helper thread while the one before it is estimated (see the module
    docstring)."""
    cfg, rep_ids = args
    # imported here, as run_records' pool: only a study run loads it
    from concurrent.futures import ThreadPoolExecutor

    records = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw_replication, cfg, rep_ids[0])
        for i, rep_id in enumerate(rep_ids, start=1):
            drawn = ahead.result()
            if i < len(rep_ids):
                ahead = helper.submit(draw_replication, cfg, rep_ids[i])
            records.append(run_replication(cfg, rep_id, drawn))
    return records


def run_records(cfg, threads=1):
    """All replication records, in rep_id order. The pool holds at most
    one worker per CPU; the chunks depend on threads alone, so the
    records do not depend on the CPU count. This process (threads = 1)
    or each worker draws its chunk's next replication (population,
    sample and response) on one helper thread, so each process runs up
    to two threads."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    B = cfg.replications
    if threads == 1:
        return _run_chunk((cfg, range(B)))
    m = min(B, 4 * threads)
    chunks = [(cfg, range(B * i // m, B * (i + 1) // m)) for i in range(m)]
    # imported here: only a pool run pays for loading the process machinery
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    records = []
    # spawn, not fork: workers must re-import with a clean RNG/BLAS state
    workers = min(threads, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        for batch in pool.map(_run_chunk, chunks):
            records.extend(batch)
    return records


# --- metrics ---------------------------------------------------------------
# Each metric returns None where the replications leave it undefined.

def relative_bias(mu_hat, mu_true):
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    mu_true = np.asarray(mu_true, dtype=np.float64)
    if mu_hat.size == 0 or np.any(mu_true == 0.0):
        return None
    return float(100.0 * np.mean((mu_hat - mu_true) / mu_true))


def relative_efficiency(mu_hat, mu_true, ht):
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    mu_true = np.asarray(mu_true, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    denom = float(np.sum((ht - mu_true) ** 2))
    if mu_hat.size == 0 or denom <= 0.0:
        return None
    return float(100.0 * np.sum((mu_hat - mu_true) ** 2) / denom)


def coverage_probability(covered):
    covered = np.asarray(covered, dtype=bool)
    if covered.size == 0:
        return None
    return float(100.0 * covered.mean())


def variance_rb(v_totals, mu_hats, mu_true):
    """Relative bias of the variance estimator against the Monte Carlo
    variance of the errors mu_hat - mu (B - 1 divisor). The target is
    the variance of the error, so each replication's estimate is
    centered at its own population mean; the finite population is
    redrawn every replication and its own mean variability is not part
    of what v_total estimates."""
    v_totals = np.asarray(v_totals, dtype=np.float64)
    err = np.asarray(mu_hats, dtype=np.float64) - np.asarray(mu_true, dtype=np.float64)
    if err.size < 2:
        return None
    v_mc = float(np.var(err, ddof=1))
    if v_mc == 0.0:
        return None
    return float(100.0 * (np.mean(v_totals) - v_mc) / v_mc)


def mc_loss(mu_hat, ht, N):
    """Mean of N * (mu_hat - ht)^2 across replications. The N scaling is
    a fixed reporting convention; rankings do not depend on it."""
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    if mu_hat.size == 0:
        return None
    return float(np.mean(N * (mu_hat - ht) ** 2))


# --- aggregation -----------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class SummaryRow:
    """One line of summary.csv after its scope, in column order; model
    rows leave the selection frequencies, CP and varRB None."""

    name: str
    rb: float
    re: float
    loss: float
    freq_wrong: float = None
    freq_true: float = None
    freq_overfit: float = None
    cp: float = None
    var_rb: float = None
    failures: float


@dataclass(frozen=True)
class StudySummary:
    model_rows: tuple
    criterion_rows: tuple

    @property
    def failure_rate(self):
        """Worst failure fraction over all rows, for the CLI threshold."""
        rates = [r.failures for r in self.model_rows + self.criterion_rows]
        return max(rates, default=0.0) / 100.0


def _summary_row(name, mu, mu_true, ht, B, N, **cells):
    """A row from the estimates mu of the replications that did not fail
    and their mu_true and ht; failures is the share of all B that did."""
    return SummaryRow(
        name=name,
        rb=relative_bias(mu, mu_true),
        re=relative_efficiency(mu, mu_true, ht),
        loss=mc_loss(mu, ht, N),
        failures=100.0 * (B - mu.size) / B,
        **cells,
    )


@np.errstate(over="ignore", invalid="ignore")  # as _run_chunk
def summarize(cfg, records):
    B = len(records)
    mu_true = np.array([r.mu_true for r in records])
    ht = np.array([r.ht_complete for r in records])
    labels = candidate_labels(cfg)

    model_rows = []
    for i, label in enumerate(labels.values()):
        # only a None fit fails (None reads as NaN); a NaN mu_hat is ok
        ok = np.array([r.mu_hats[i] is not None for r in records])
        mu = np.array([r.mu_hats[i] for r in records], dtype=np.float64)[ok]
        model_rows.append(_summary_row(label, mu, mu_true[ok], ht[ok], B, cfg.population.N))

    support = true_support(cfg.population.beta)
    class_of = {m: classify_model(m, support) for m in labels}
    criterion_rows = []
    for j, crit in enumerate(cfg.criteria):
        ok = np.array([isinstance(r.criteria[j], Estimate) for r in records])
        ests = [r.criteria[j] for r in records if isinstance(r.criteria[j], Estimate)]
        mu = np.array([e.mu_hat for e in ests])
        covered = [e.lower <= m <= e.upper for e, m in zip(ests, mu_true[ok])]
        picked = [class_of[e.model] for e in ests]
        criterion_rows.append(_summary_row(
            crit, mu, mu_true[ok], ht[ok], B, cfg.population.N,
            freq_wrong=100.0 * picked.count("wrong") / B,
            freq_true=100.0 * picked.count("true") / B,
            freq_overfit=100.0 * picked.count("overfit") / B,
            cp=coverage_probability(covered),
            var_rb=variance_rb([e.v_total for e in ests], mu, mu_true[ok]),
        ))

    return StudySummary(tuple(model_rows), tuple(criterion_rows))


# --- CSV output ------------------------------------------------------------

SUMMARY_COLUMNS = (
    "scope", "name", "RB", "RE", "loss",
    "freqW", "freqTrue", "freqOverfit", "CP", "varRB", "failures",
)


def float_text(x):
    """Floats leave the program with 10 significant digits."""
    return f"{x:.10g}"


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return float_text(v)
    return str(v)


def summary_rows(summary):
    """The summary table as rows of strings in SUMMARY_COLUMNS order: the
    scope, then the row's fields, read in place; a None field is an
    empty cell."""
    names = [f.name for f in fields(SummaryRow)]
    scoped = [("model", m) for m in summary.model_rows]
    scoped += [("criterion", c) for c in summary.criterion_rows]
    return [[scope, *(_fmt(getattr(row, name)) for name in names)] for scope, row in scoped]


def summary_to_csv(summary, path):
    """Write summary.csv; -> the summary_rows it wrote, so that a caller
    that also prints the table formats it once."""
    rows = summary_rows(summary)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        w.writerows(rows)
    return rows


def reps_to_csv(records, path, cfg):
    """One row per replication; a criterion's covered is lo <= mu_true <= hi."""
    labels = candidate_labels(cfg)
    header = ["rep_id", "mu_true", "ht_complete"]
    header += [f"mu_{lab}" for lab in labels.values()]
    for crit in cfg.criteria:
        header += [f"{crit}_{f}" for f in ("selected", "mu", "v1", "v2", "lo", "hi", "covered")]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in records:
            row = [r.rep_id, _fmt(r.mu_true), _fmt(r.ht_complete)]
            row += [_fmt(v) for v in r.mu_hats]
            for e in r.criteria:
                if isinstance(e, Estimate):
                    row += [labels[e.model], _fmt(e.mu_hat), _fmt(e.v1), _fmt(e.v2),
                            _fmt(e.lower), _fmt(e.upper), int(e.lower <= r.mu_true <= e.upper)]
                else:
                    row += [e, "", "", "", "", "", ""]
            w.writerow(row)
