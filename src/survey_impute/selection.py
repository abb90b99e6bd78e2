"""Model selection on the respondent set: AIC, BIC, K-fold CV.

Criterion names are the strings "aic", "bic", or "cvK" (e.g. "cv5").
The candidate set is the dict of respondent fits from fit_candidates
(which factors each prefix chain of candidates with one QR), and its key
order is the scoring order. Every criterion reads each candidate's one
fit: AIC and BIC its rss, K-fold CV its Q, R and residuals, from which
the held-out sum of squares of every training fold follows in closed
form, so no score refits anything. K-fold CV draws each candidate its
own split (score_candidates, the one CV entry point) and scores all
folds of all candidates of a dataset in one pass: one identity-padded
stack of the folds' Gram matrices, one Cholesky of it, and one pair of
vectorised triangular substitutions (_cv_scores). The scores come back
as {model: score}, keyed like the fits, and are compared as (score,
p_alpha, included), so ties go to the smaller model and then
lexicographically. A candidate that is rank deficient, or has no
residual degrees of freedom (n_r <= p_alpha) and so no sigma^2 and no
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

_CV_RE = re.compile(r"cv([1-9][0-9]*)")


def parse_criterion(name):
    """-> ("aic", None), ("bic", None), or ("cv", K)."""
    if name == "aic":
        return "aic", None
    if name == "bic":
        return "bic", None
    m = _CV_RE.fullmatch(name)
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


def _fold_sizes(n, k):
    """Sizes of the k near-equal folds of n units: the first n mod k
    folds get the extra unit."""
    sizes = np.full(k, n // k)
    sizes[:n % k] += 1
    return sizes


def _substitute(L, b):
    """g = L^-1 b and x = L^-T g for a stack of lower triangular L
    (..., P, P) and b (..., P), by substitution over the P columns,
    vectorised over the stack. Each entry takes the same operations in
    the same order whatever the stack's shape, and an identity-padded
    tail of L, with zeros in b, leaves the leading entries as without
    it."""
    g = b.copy()
    for j in range(g.shape[-1]):
        g[..., j] /= L[..., j, j]
        g[..., j + 1:] -= L[..., j + 1:, j] * g[..., j, None]
    x = g.copy()
    for j in reversed(range(x.shape[-1])):
        x[..., j] /= L[..., j, j]
        x[..., :j] -= L[..., j, :j] * x[..., j, None]
    return g, x


def _cv_scores(fits, orders, sizes):
    """K-fold CV scores of C candidates at once. Candidate c's rows in
    fold order are orders[c], cut into folds of the given sizes, and c's
    Q is fits[c].Q. With e the residuals and, for one fold's test rows,
    M = I - Q_t'Q_t = LL', b = Q_t'e_t, g = L^-1 b and x = L^-T g, the
    held-out residuals are r_t = e_t + Q_t x (the leave-n_v-out
    identity, Shao 1993), and r_t'r_t = e_t'e_t + g'g + x'x, since
    b'x = g'g and Q_t'Q_t = I - M; no term cancels. M, b and e_t'e_t of
    every fold come from one Gram matrix of [Q_t, 0, e_t] per candidate,
    zero-padded to the widest candidate's P columns, so all candidates
    share one (C, K, P, P) stack, one Cholesky (deleted_rows_factor)
    and one pair of triangular solves. A candidate's numbers depend on
    the stack's width P, not on which other candidates share it.
    -> array of C scores, +inf where a training fold is singular."""
    C, P = len(fits), max(fit.R.shape[0] for fit in fits)
    K, s = sizes.size, sizes.max()
    slot = np.flatnonzero(np.arange(s) < sizes[:, None])
    G = np.empty((C, K, P + 1, P + 1))
    for c, (fit, order) in enumerate(zip(fits, orders)):
        T = np.zeros((K * s, P + 1))
        T[slot, :fit.R.shape[0]] = fit.Q[order]
        T[slot, P] = fit.resid[order]
        T = T.reshape(K, s, P + 1)
        np.matmul(np.swapaxes(T, 1, 2), T, out=G[c])
    # in place, G becomes [[M, -b], [-b', -e_t'e_t]]: one contiguous
    # pass, and the signs drop out of g'g and x'x
    E = np.eye(P + 1)
    E[P, P] = 0.0
    np.subtract(E, G, out=G)
    L, ok = deleted_rows_factor(G[..., :P, :P], [fit.R for fit in fits],
                                fits[0].resid.size - sizes)
    b, ee = G[..., :P, P].copy(), -G[..., P, P]
    del G  # so that at most two (C, K, P, P) stacks are alive at once
    g, x = _substitute(L, b)
    sse = ee + np.sum(g * g, axis=-1) + np.sum(x * x, axis=-1)
    return np.where(ok, np.mean(sse / sizes, axis=-1), np.inf)


def score_candidates(criterion, fits, y_r, rng=None):
    """{model: score} for the candidate set fits (from fit_candidates on
    y_r; no criterion fits anything), in its key order. cvK draws each
    candidate's split in that order (one rng.permutation(n_r) each, cut
    by _fold_sizes), and scores every scorable candidate in one
    _cv_scores call. A None fit, or n_r <= p_alpha, scores +inf.
    y_r gives n_r, needed even when every fit is None, and tss."""
    kind, k = parse_criterion(criterion)
    y_r = np.asarray(y_r, dtype=np.float64)
    n_r = y_r.size
    if kind == "cv" and rng is None:
        raise ValueError("cv scoring needs an rng for the fold split")
    if kind == "cv" and n_r < k:
        raise SelectionFailureError(f"{criterion} needs at least {k} respondents, got {n_r}")
    # n_r = 0 leaves every fit singular; keep the guard quiet about it
    tss = float(np.sum((y_r - y_r.mean()) ** 2)) if n_r else 0.0

    scores = dict.fromkeys(fits, float("inf"))
    live = [m for m, fit in fits.items() if fit is not None and n_r > m.p_alpha]
    if kind == "cv":
        # each candidate gets its own random split, as when a CV routine
        # is called once per model, even when its score is already +inf
        orders = {m: rng.permutation(n_r) for m in fits}
        if live:
            cv = _cv_scores([fits[m] for m in live], np.array([orders[m] for m in live]),
                            _fold_sizes(n_r, k))
            scores.update(zip(live, cv.tolist()))
        return scores
    scorer = score_aic if kind == "aic" else score_bic
    for m in live:
        rss = 0.0 if fits[m].rss <= RSS_INTERP_REL * tss else fits[m].rss
        scores[m] = float(scorer(rss, n_r, m.p_alpha))
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
