"""Model selection on the respondent set: AIC, BIC, K-fold CV.

Criterion names are the strings "aic", "bic", or "cvK" (e.g. "cv5").
The candidate set is the dict of respondent fits from fit_candidates
(which factors each prefix chain of candidates with one QR), and its key
order is the scoring order. This module owns every score, and each
reads the candidate's one fit: AIC and BIC its rss, K-fold CV its Q, R
and residuals, from which the held-out sum of squares of every training
fold follows in closed form, so no score refits anything. K-fold CV
draws each candidate its own split (score_candidates, the one CV entry
point) and scores all folds of all candidates of a dataset in one pass
(_cv_scores): one identity-padded stack of the folds' Gram matrices,
one Cholesky of it, which also gives each training fold's verdict under
the rank rule of estimators, and one pair of vectorised triangular
substitutions. The scores come back as {model: score}, keyed like the
fits, and are compared as (score, p_alpha, included), so ties go to the
smaller model and then lexicographically. A candidate that is rank
deficient, or has no residual degrees of freedom (n_r <= p_alpha) and
so no sigma^2 and no interval, scores +inf. Under cvK a candidate
averages over the training folds that are nonsingular, and scores +inf
when fewer than K - 1 of them are.
"""

import re

import numpy as np

from .errors import SelectionFailureError
from .estimators import RCOND_MIN, _rank_deficient

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
    share one (C, K, P, P) stack, identity past each candidate's q_c
    columns, one Cholesky and one pair of triangular solves. A
    candidate's numbers depend on the stack's width P, not on which
    other candidates share it. L[c, k]'s leading q_c x q_c block times
    c's R is the triangular factor of fold k's training rows of Z = QR,
    which are singular when fewer than q_c, when the Cholesky fails,
    when min diag(L) <= sqrt(RCOND_MIN) (M is formed at Gram scale, so
    L resolves only to about sqrt(eps)), or when the rank rule rejects
    diag(L) diag(R). If the stacked Cholesky raises, each (candidate,
    fold) block is factored alone, to the same factor, so only the
    blocks that fail are ruled out. A candidate's score is the mean
    held-out MSE over its nonsingular folds, which must number at least
    K - 1: one unlucky fold does not disqualify a model whose full fit
    is regular.
    -> array of C scores, +inf where two or more training folds are
    singular."""
    q = np.array([fit.R.shape[0] for fit in fits])
    C, P = q.size, int(q.max())
    K, s = sizes.size, sizes.max()
    slot = np.flatnonzero(np.arange(s) < sizes[:, None])
    G = np.empty((C, K, P + 1, P + 1))
    r = np.ones((C, P))  # each diag(R), padded with ones
    for c, (fit, order) in enumerate(zip(fits, orders)):
        r[c, :q[c]] = np.diag(fit.R)
        T = np.zeros((K * s, P + 1))
        T[slot, :q[c]] = fit.Q[order]
        T[slot, P] = fit.resid[order]
        T = T.reshape(K, s, P + 1)
        np.matmul(np.swapaxes(T, 1, 2), T, out=G[c])
    # in place, G becomes [[M, -b], [-b', -e_t'e_t]]: one contiguous
    # pass, and the signs drop out of g'g and x'x
    E = np.eye(P + 1)
    E[P, P] = 0.0
    np.subtract(E, G, out=G)
    M = G[..., :P, :P]
    ok = q[:, None] <= fits[0].resid.size - sizes  # (C, K): enough training rows
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = np.empty_like(M)
        for c, k in np.ndindex(C, K):
            try:
                L[c, k] = np.linalg.cholesky(M[c, k])
            except np.linalg.LinAlgError:
                L[c, k] = np.eye(P)
                ok[c, k] = False
    d = np.diagonal(L, axis1=-2, axis2=-1)
    deficient = _rank_deficient(d * r[:, None])[np.arange(C), :, q - 1]
    ok &= (d.min(axis=-1) > np.sqrt(RCOND_MIN)) & ~deficient
    if not ok.all():
        L[~ok] = np.eye(P)  # so that solves against it stay finite
    b, ee = G[..., :P, P].copy(), -G[..., P, P]
    del G, M  # so that at most two (C, K, P, P) stacks are alive at once
    g, x = _substitute(L, b)
    sse = ee + np.sum(g * g, axis=-1) + np.sum(x * x, axis=-1)
    kept = ok.sum(axis=-1)
    total = np.where(ok, sse / sizes, 0.0).sum(axis=-1)
    return np.where(kept >= K - 1, total / np.maximum(kept, 1), np.inf)


def score_candidates(criterion, fits, y_r, rng=None):
    """{model: score} for the candidate set fits (from fit_candidates on
    y_r; no criterion fits anything), in its key order. cvK draws each
    candidate's split in that order (one rng.permutation(n_r) each, cut
    by _fold_sizes), and scores every scorable candidate in one
    _cv_scores call. AIC and BIC score n_r log(rss / n_r) + penalty
    p_alpha, with penalty 2 or log(n_r), and -inf when rss is at most
    RSS_INTERP_REL times the centered total sum of squares of y_r. A
    None fit, or n_r <= p_alpha, scores +inf. y_r gives n_r, needed
    even when every fit is None."""
    kind, k = parse_criterion(criterion)
    y_r = np.asarray(y_r, dtype=np.float64)
    n_r = y_r.size
    if kind == "cv" and rng is None:
        raise ValueError("cv scoring needs an rng for the fold split")
    if kind == "cv" and n_r < k:
        raise SelectionFailureError(f"{criterion} needs at least {k} respondents, got {n_r}")

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
    elif live:
        # a live candidate has n_r > p_alpha >= 1, so neither the mean
        # nor the log below sees zero respondents
        tss = float(np.sum((y_r - y_r.mean()) ** 2))
        penalty = 2.0 if kind == "aic" else np.log(n_r)
        for m in live:
            rss = fits[m].rss
            scores[m] = (float("-inf") if rss <= RSS_INTERP_REL * tss
                         else float(n_r * np.log(rss / n_r) + penalty * m.p_alpha))
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
