"""Point estimation: Horvitz-Thompson and regression imputation.

Working models are unweighted OLS fits on the respondents; the missing
units are filled with fitted values and everything is HT-averaged.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SingularFitError

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
    """An OLS fit on the respondents. R is the upper triangular factor of
    the respondent design Z = QR, so R'R = Z'Z; consumers solve against
    it instead of factoring the design again."""

    beta_hat: np.ndarray
    rss: float
    n_r_used: int
    R: np.ndarray


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
    """The one rank rule, on the diagonal d of a design's triangular factor."""
    d = np.abs(d)
    return d.min() <= RCOND_MIN * d.max()


def qr_checked(Z, model):
    """Reduced QR (Q, R) of a respondent design Z under the package's one
    rank rule: raises SingularFitError when Z has fewer rows than columns
    or the smallest |diag(R)| is at most RCOND_MIN times the largest."""
    n, q = Z.shape
    if n < q:
        raise SingularFitError(f"{n} respondents cannot identify {q} coefficients", model)
    Q, R = np.linalg.qr(Z)
    if _rank_deficient(np.diag(R)):
        raise SingularFitError("rank deficient design matrix", model)
    return Q, R


def deleted_rows_factor(Q_t, R, n_left):
    """Lower Cholesky factor L of I - Q_t'Q_t, where Q_t holds some rows of
    Q = ZR^-1 for a fit's design Z; L'R is then the triangular factor of
    the n_left rows of Z that remain. None when that design is singular:
    fewer rows than columns, a failed Cholesky, min diag(L) at most
    sqrt(RCOND_MIN) (I - Q_t'Q_t is formed at Gram scale, so L resolves
    only to about sqrt(eps)), or qr_checked's rule on diag(L) diag(R)."""
    q = R.shape[0]
    if n_left < q:
        return None
    try:
        L = np.linalg.cholesky(np.eye(q) - Q_t.T @ Q_t)
    except np.linalg.LinAlgError:
        return None
    d = np.diag(L)
    if d.min() <= np.sqrt(RCOND_MIN) or _rank_deficient(d * np.diag(R)):
        return None
    return L


def fit_ols(X_r, y_r, model):
    """Unweighted least squares via orthogonal decomposition; raises
    SingularFitError as qr_checked does."""
    Z = design_matrix(X_r, model)
    y_r = np.asarray(y_r, dtype=np.float64)
    Q, R = qr_checked(Z, model)
    beta = np.linalg.solve(R, Q.T @ y_r)
    resid = y_r - Z @ beta
    return FitResult(beta, float(resid @ resid), Z.shape[0], R)


def fit_candidates(X_r, y_r, candidates):
    """Each candidate's respondent fit, once per dataset, for every consumer:
    {model: FitResult, or None where fit_ols raises SingularFitError}."""
    fits = {}
    for model in candidates:
        try:
            fits[model] = fit_ols(X_r, y_r, model)
        except SingularFitError:
            fits[model] = None
    return fits


def ht_mean(sample, y):
    """Horvitz-Thompson mean of y over the draw; y is aligned with
    sample.unit_ids."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum(y / sample.pi_first) / sample.design.population_size)


def imputed_mean(sample, mask, X, y, model, fit):
    """Imputation estimator: observed y for respondents, model
    predictions for the missing, averaged with HT weights.

    X and y are aligned with sample.unit_ids; fit is the model's
    respondent fit (from fit_candidates or fit_ols). Returns mu_hat.
    """
    miss = mask.nonrespondents
    filled = np.array(y, dtype=np.float64)
    if miss.size:
        filled[miss] = design_matrix(np.asarray(X)[miss], model) @ fit.beta_hat
    return ht_mean(sample, filled)


def nested_candidates(p):
    """The nested sequence: model j keeps covariates 1..j plus an
    intercept."""
    return [ModelSpec(tuple(range(1, j + 1))) for j in range(1, p + 1)]


def build_candidates(spec, p):
    """Candidates from a config field: "nested", or covariate index lists."""
    return nested_candidates(p) if spec == "nested" else [ModelSpec(idx) for idx in spec]
