"""Model selection on the respondent set: AIC, BIC, K-fold CV.

Criterion names are the strings "aic", "bic", or "cvK" (e.g. "cv5").
The candidate set is the dict of respondent fits from fit_candidates
(which factors each prefix chain of candidates with one QR), and its key
order is the scoring order. Every criterion reads each candidate's one
fit: AIC and BIC its rss, K-fold CV its Q, R and residuals, from which
the held-out residuals of every training fold follow in closed form, all
K folds in one batched solve, so no score refits anything. The scores
come back as {model: score}, keyed like the fits, and are compared as
(score, p_alpha, included), so ties go to the smaller model and then
lexicographically. A candidate that is rank deficient, or has
no residual degrees of freedom (n_r <= p_alpha) and so no sigma^2 and no
interval, scores +inf; under cvK so does one with a singular training
fold.
"""

import re

import numpy as np

from .errors import SelectionFailureError
from .estimators import deleted_rows_factor

# rss at or below this fraction of the centered total sum of squares is
# treated as an exact interpolation that only floating point kept nonzero
RSS_INTERP_REL = 1e-16

_CV_RE = re.compile(r"^cv([0-9]+)$")


def parse_criterion(name):
    """-> ("aic", None), ("bic", None), or ("cv", K)."""
    if name == "aic":
        return "aic", None
    if name == "bic":
        return "bic", None
    m = _CV_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 2:
            raise ValueError(f"cv criterion needs K >= 2, got {name!r}")
        return "cv", k
    raise ValueError(f"unknown criterion {name!r}; expected 'aic', 'bic', or 'cvK'")


def score_aic(rss, n_r, p_alpha):
    if rss == 0.0:
        return float("-inf")
    return n_r * np.log(rss / n_r) + 2.0 * p_alpha


def score_bic(rss, n_r, p_alpha):
    if rss == 0.0:
        return float("-inf")
    return n_r * np.log(rss / n_r) + np.log(n_r) * p_alpha


def make_folds(n, k, rng):
    """Near-equal random fold index arrays (first n mod k folds get the
    extra unit)."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return np.array_split(rng.permutation(n), k)


def score_kfold_cv(fit, folds):
    """Mean held-out MSE over the folds of the respondents, read off a
    model's respondent fit with no refits. With e the fit's residuals and
    Q = ZR^-1 its thin Q, the fit without test rows t leaves held-out
    residuals e_t + Q_t M^-1 Q_t'e_t, M = I - Q_t'Q_t (the leave-n_v-out
    identity, Shao 1993). All K folds are scored at once: the test rows
    are padded with zero rows to one size, M is Cholesky-factored as one
    (K, q, q) stack and M^-1 Q_t'e_t is two batched triangular solves. A
    fold whose training design is singular (deleted_rows_factor) makes
    the score +inf."""
    Q, e = fit.Q, fit.resid
    sizes = np.array([t.size for t in folds])
    pad = np.arange(sizes.max()) < sizes[:, None]
    order = np.concatenate(folds)
    Q_t = np.zeros(pad.shape + (Q.shape[1],))
    Q_t[pad] = Q[order]
    e_t = np.zeros(pad.shape)
    e_t[pad] = e[order]
    L = deleted_rows_factor(Q_t, fit.R, e.size - sizes)
    if L is None:
        return float("inf")
    g = np.linalg.solve(L, np.swapaxes(Q_t, 1, 2) @ e_t[..., None])
    r = e_t + (Q_t @ np.linalg.solve(np.swapaxes(L, 1, 2), g))[..., 0]
    return float(np.mean(np.einsum("ks,ks->k", r, r) / sizes))


def score_candidates(criterion, fits, y_r, rng=None):
    """{model: score} for the candidate set fits (from fit_candidates on
    y_r; no criterion fits anything), in its key order, in which cvK
    draws each candidate's folds from rng. A None fit, or n_r <= p_alpha,
    scores +inf. y_r gives n_r, needed even when every fit is None, and
    tss."""
    kind, k = parse_criterion(criterion)
    y_r = np.asarray(y_r, dtype=np.float64)
    n_r = y_r.size
    if kind == "cv" and rng is None:
        raise ValueError("cv scoring needs an rng for the fold split")
    if kind == "cv" and n_r < k:
        raise SelectionFailureError(f"{criterion} needs at least {k} respondents, got {n_r}")
    # n_r = 0 leaves every fit singular; keep the guard quiet about it
    tss = float(np.sum((y_r - y_r.mean()) ** 2)) if n_r else 0.0

    scores = {}
    for model, fit in fits.items():
        # each candidate gets its own random split, as when a CV routine
        # is called once per model, even when its score is already +inf
        folds = make_folds(n_r, k, rng) if kind == "cv" else None
        if fit is None or n_r <= model.p_alpha:
            score = float("inf")
        elif kind == "cv":
            score = score_kfold_cv(fit, folds)
        else:
            rss = 0.0 if fit.rss <= RSS_INTERP_REL * tss else fit.rss
            scorer = score_aic if kind == "aic" else score_bic
            score = scorer(rss, n_r, model.p_alpha)
        scores[model] = float(score)
    return scores


def select(criterion, fits, y_r, rng=None):
    """Pick the best candidate of the candidate set fits, scored in its
    key order (see score_candidates). Returns (model, {model: score})."""
    if not fits:
        raise SelectionFailureError("no candidate models")
    scores = score_candidates(criterion, fits, y_r, rng)
    finite = [m for m, s in scores.items() if s < float("inf")]
    if not finite:
        raise SelectionFailureError("every candidate model is rank deficient or "
                                    "leaves no residual degrees of freedom")
    return min(finite, key=lambda m: (scores[m], m.p_alpha, m.included)), scores
