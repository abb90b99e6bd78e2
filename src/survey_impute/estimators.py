"""Point estimation: Horvitz-Thompson and regression imputation.

Working models are unweighted OLS fits on the respondents; the missing
units are filled with fitted values and everything is HT-averaged.

Candidates are fitted by prefix chain: models whose columns each lead
the next one's (the nested list is one chain) share one QR of the
widest design. The leading q x q block of its R is the triangular factor
of the first q columns, and the first q columns of its Q their Q
(Golub & Van Loan, Matrix Computations, section 5.2), so every model of
a chain is read off one factorization. Unrelated models are chains of
one. The package's one rank rule (_rank_deficient, RCOND_MIN) lives here:
qr_checked applies it to the fits and refitted CV folds, selection to the
others, all to column sines (_sines), which no covariate's unit changes.
"""

from dataclasses import dataclass

import numpy as np

# relative cutoff on the column sines (_sines) at or below which the
# design is treated as numerically singular
RCOND_MIN = 1e-10


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
    residuals y - Z beta_hat; a chain's fits hold views of its one Q, Z
    and residual matrix."""

    beta_hat: np.ndarray
    rss: float
    R: np.ndarray
    Q: np.ndarray
    resid: np.ndarray
    Z: np.ndarray


def classify_model(model, true_support):
    """"true" if the model keeps exactly the active covariates, "overfit"
    if a strict superset, "wrong" otherwise. Every model has an
    intercept, so a nonzero true intercept never makes a model wrong."""
    truth = tuple(sorted(true_support))
    if model.included == truth:
        return "true"
    if set(model.included) > set(truth):
        return "overfit"
    return "wrong"


def design_matrix(X, model):
    """Columns of X for the model, intercept first."""
    X = np.asarray(X, dtype=np.float64)
    cols = [np.ones((X.shape[0], 1))]
    if model.included:
        cols.append(X[:, [j - 1 for j in model.included]])
    return np.hstack(cols)


def _sines(R):
    """|R_jj| / ||R e_j|| for a triangular factor R of Z = QR, or a stack
    of them: the sine of column j's angle to the columns before it, R's
    diagonal once Z's columns have unit norm; 0 for a zero column."""
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    norm = np.linalg.norm(R[..., :d.shape[-1]], axis=-2)
    return d / np.where(norm > 0.0, norm, 1.0)


def _rank_deficient(d):
    """The one rank rule, on the sines d of a design's columns (_sines),
    or on a stack of them along the last axis: entry q - 1 is True when
    the first q columns are rank deficient, min |d[:q]| <= RCOND_MIN
    max |d[:q]|. Once True, it stays True for wider prefixes."""
    d = np.abs(d)
    return np.minimum.accumulate(d, axis=-1) <= RCOND_MIN * np.maximum.accumulate(d, axis=-1)


def qr_checked(Z):
    """Reduced QR (Q, R) of a respondent design Z, and the width w of
    its widest prefix that the package's one rank rule accepts: the
    first q columns pass when Z has at least q rows (diag(R) has
    min(rows, columns) entries) and _rank_deficient accepts prefix q."""
    Q, R = np.linalg.qr(Z)
    deficient = _rank_deficient(_sines(R))
    width = int(deficient.argmax()) if deficient.any() else deficient.size
    return Q, R, width


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
        Z = design_matrix(X_r, chain[0])
        Q, R, width = qr_checked(Z)
        g = Q.T @ y_r
        resid = y_r[:, None] - np.cumsum(Q * g, axis=1)
        for m in chain:
            q = m.p_alpha
            if q <= width:
                e = resid[:, q - 1]
                beta = np.linalg.solve(R[:q, :q], g[:q])
                fits[m] = FitResult(beta, float(e @ e), R[:q, :q], Q[:, :q], e, Z[:, :q])
    return fits


def ht_mean(sample, y):
    """Horvitz-Thompson mean of y over the draw; y is aligned with
    sample.unit_ids."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum(y / sample.pi_first) / sample.population_size)


def check_response(sample, r):
    """Raise ValueError unless r is a boolean array over the sample's units:
    the ~r of an index array would be negative indices, not an error."""
    if not (isinstance(r, np.ndarray) and r.dtype == bool and r.shape == (sample.n,)):
        raise ValueError(f"the response set must be a boolean array of shape ({sample.n},)")


def imputed_means(sample, r, X, y, fits):
    """Imputation estimator of every model in fits ({model: FitResult or
    None}, as from fit_candidates): observed y for respondents, model
    predictions for the missing, averaged with HT weights. X, y and the
    boolean response array r (True for a respondent) are aligned with
    sample.unit_ids. With t = sum_r y/pi and w = sum_m (1, x)/pi taken
    once, mu_hat = (t + w[cols] . beta_hat) / N, where cols are the
    model's design columns; None for a None fit. One model's mean is
    imputed_means(..., {model: fit})[model], which is how
    variance.estimate_model reads it."""
    check_response(sample, r)
    miss = ~r
    pi = sample.pi_first
    t = float(np.sum(np.asarray(y, dtype=np.float64)[r] / pi[r]))
    inv = 1.0 / pi[miss]
    w = np.concatenate(([inv.sum()], inv @ np.asarray(X, dtype=np.float64)[miss]))
    N = sample.population_size
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
