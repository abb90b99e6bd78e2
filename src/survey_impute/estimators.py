"""Point estimation: Horvitz-Thompson and regression imputation.

Working models are unweighted OLS fits on the respondents; the missing
units are filled with fitted values and everything is HT-averaged.

Candidates are fitted by prefix chain: models whose columns each lead
the next one's (the nested list is one chain) share one QR of the
widest design. The leading q x q block of its R is the triangular factor
of the first q columns, and the first q columns of its Q their Q
(Golub & Van Loan, Matrix Computations, section 5.2), so every model of
a chain is read off one factorization. Unrelated models are chains of
one.
"""

import enum
from dataclasses import dataclass

import numpy as np

# relative cutoff on the triangular factor's diagonal below which the
# normal equations are treated as numerically singular
RCOND_MIN = 1e-10


class ModelClass(enum.Enum):
    TRUE = "true"
    CORRECT_OVERFIT = "overfit"
    WRONG = "wrong"


@dataclass(frozen=True)
class ModelSpec:
    """A working model: an intercept plus the covariates with these
    1-based indices, stored sorted and deduplicated."""

    included: tuple

    def __post_init__(self):
        idx = tuple(sorted(set(int(j) for j in self.included)))
        if any(j < 1 for j in idx):
            raise ValueError("covariate indices are 1-based")
        object.__setattr__(self, "included", idx)

    @property
    def p_alpha(self):
        """Number of fitted coefficients."""
        return len(self.included) + 1

    def label(self):
        return "i" + "+".join(map(str, self.included))


@dataclass(frozen=True)
class FitResult:
    """An OLS fit on the respondents, a value of the candidate set from
    fit_candidates. R is the upper triangular factor of the respondent
    design Z = QR, so R'R = Z'Z; consumers solve against it instead of
    factoring the design again. Q is the thin Q of Z and resid the n_r
    residuals y - Z beta_hat; a chain's fits hold views of its one Q and
    one residual matrix."""

    beta_hat: np.ndarray
    rss: float
    R: np.ndarray
    Q: np.ndarray
    resid: np.ndarray


def classify_model(model, true_support):
    """TRUE if the model keeps exactly the active covariates, overfit if a
    strict superset, wrong otherwise. Every model has an intercept, so a
    nonzero true intercept never makes a model wrong."""
    truth = tuple(sorted(true_support))
    if model.included == truth:
        return ModelClass.TRUE
    if set(model.included) > set(truth):
        return ModelClass.CORRECT_OVERFIT
    return ModelClass.WRONG


def design_matrix(X, model):
    """Columns of X for the model, intercept first."""
    X = np.asarray(X, dtype=np.float64)
    cols = [np.ones((X.shape[0], 1))]
    if model.included:
        cols.append(X[:, [j - 1 for j in model.included]])
    return np.hstack(cols)


def _rank_deficient(d):
    """The one rank rule, on the diagonal d of a design's triangular
    factor; on a stack of diagonals, one verdict per row."""
    d = np.abs(d)
    return d.min(axis=-1) <= RCOND_MIN * d.max(axis=-1)


def qr_checked(Z):
    """Reduced QR (Q, R) of a respondent design Z, and the width w of
    its widest prefix that the package's one rank rule accepts: the
    first q columns pass when Z has at least q rows and _rank_deficient
    rejects no diag(R)[:q]. Every narrower prefix passes too, since the
    smallest |diag| only falls and the largest only grows with q."""
    Q, R = np.linalg.qr(Z)
    d = np.abs(np.diag(R))
    deficient = np.minimum.accumulate(d) <= RCOND_MIN * np.maximum.accumulate(d)
    width = int(deficient.argmax()) if deficient.any() else d.size
    return Q, R, width


def deleted_rows_factor(M, Rs, n_left):
    """Lower Cholesky factors L of a (C, K, P, P) stack M and a verdict
    per candidate. Candidate c has the triangular factor Rs[c] (q_c x
    q_c) of its design Z = QR, and M[c, k] is I - Q_t'Q_t for the test
    rows Q_t of fold k in its leading q_c x q_c block and the identity
    after it; n_left holds the rows each fold leaves. L[c, k]'s leading
    block times R is then the triangular factor of the rows of Z that
    remain. ok[c] is False when any of c's training designs is
    singular: fewer rows than columns, a failed Cholesky, min diag(L)
    at most sqrt(RCOND_MIN) (M is formed at Gram scale, so L resolves
    only to about sqrt(eps)), or qr_checked's rule on diag(L) diag(R),
    each read on c's first q_c diagonal entries only. Where ok[c] is
    False, L[c] is the identity, so solves against it stay finite.

    The stack is factored in one call. When that raises, each
    candidate's (K, P, P) slice is factored alone, so only the
    candidates whose slice fails are ruled out; a slice's factor is the
    same either way."""
    q = np.array([R.shape[0] for R in Rs])
    P = M.shape[-1]
    ok = q <= np.min(n_left)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = np.empty_like(M)
        for c in range(M.shape[0]):
            try:
                L[c] = np.linalg.cholesky(M[c])
            except np.linalg.LinAlgError:
                L[c] = np.eye(P)
                ok[c] = False
    d = np.diagonal(L, axis1=-2, axis2=-1)
    cols = np.arange(P) < q[:, None]
    r = np.ones(cols.shape)
    r[cols] = np.concatenate([np.diag(R) for R in Rs])
    # past q_c, repeat the first entry: it moves neither min nor max
    dr = np.where(cols[:, None], d * r[:, None], d[..., :1] * r[:, None, :1])
    ok &= (d.min(axis=(1, 2)) > np.sqrt(RCOND_MIN)) & ~_rank_deficient(dr).any(axis=1)
    if not ok.all():
        L[~ok] = np.eye(P)
    return L, ok


def _prefix_chains(models):
    """Group models into chains, widest first, in which every model's
    columns lead the widest one's."""
    chains = []
    for m in sorted(models, key=lambda m: -len(m.included)):
        for chain in chains:
            if chain[0].included[:len(m.included)] == m.included:
                chain.append(m)
                break
        else:
            chains.append([m])
    return chains


def fit_candidates(X_r, y_r, candidates):
    """The candidate set: {model: FitResult, or None where the model
    cannot be fitted}, one fit per candidate and dataset, keyed in the
    order of candidates, which is the order selection scores them in.
    None is the package's one mark of an unfittable model; a single
    model is fitted as fit_candidates(X_r, y_r, [model])[model].

    One QR per prefix chain: with Z = QR the widest design of the chain
    and g = Q'y, a model of q columns has R_q = R[:q, :q], beta solving
    R_q beta = g[:q] and residuals y - Q[:, :q] g[:q], the q-th column
    of y - cumsum(Q * g, axis=1). A model is None when the chain's
    qr_checked width is below q (n_r < q, or a rank deficient prefix)."""
    X_r = np.asarray(X_r, dtype=np.float64)
    y_r = np.asarray(y_r, dtype=np.float64)
    fits = dict.fromkeys(candidates)
    for chain in _prefix_chains(fits):
        Q, R, width = qr_checked(design_matrix(X_r, chain[0]))
        g = Q.T @ y_r
        resid = y_r[:, None] - np.cumsum(Q * g, axis=1)
        for m in chain:
            q = m.p_alpha
            if q <= width:
                e = resid[:, q - 1]
                beta = np.linalg.solve(R[:q, :q], g[:q])
                fits[m] = FitResult(beta, float(e @ e), R[:q, :q], Q[:, :q], e)
    return fits


def ht_mean(sample, y):
    """Horvitz-Thompson mean of y over the draw; y is aligned with
    sample.unit_ids."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum(y / sample.pi_first) / sample.design.population_size)


def imputed_means(sample, mask, X, y, fits):
    """Imputation estimator of every model in fits ({model: FitResult or
    None}, as from fit_candidates): observed y for respondents, model
    predictions for the missing, averaged with HT weights. X and y are
    aligned with sample.unit_ids. With t = sum_r y/pi and w = sum_m
    (1, x)/pi taken once, mu_hat = (t + w[cols] . beta_hat) / N, where
    cols are the model's design columns; None for a None fit. One
    model's mean is imputed_means(..., {model: fit})[model], which is
    how variance.estimate_model reads it."""
    resp, miss = mask.respondents, mask.nonrespondents
    pi = sample.pi_first
    t = float(np.sum(np.asarray(y, dtype=np.float64)[resp] / pi[resp]))
    inv = 1.0 / pi[miss]
    w = np.concatenate(([inv.sum()], inv @ np.asarray(X, dtype=np.float64)[miss]))
    N = sample.design.population_size
    return {
        m: None if fit is None else (t + float(w[[0, *m.included]] @ fit.beta_hat)) / N
        for m, fit in fits.items()
    }


def nested_candidates(p):
    """The nested sequence: model j keeps covariates 1..j plus an
    intercept."""
    return [ModelSpec(tuple(range(1, j + 1))) for j in range(1, p + 1)]


def build_candidates(spec, p):
    """Candidates from a config field: "nested", or covariate index lists."""
    return nested_candidates(p) if spec == "nested" else [ModelSpec(idx) for idx in spec]
