"""Finite population generation and the response mechanism, as plain
arrays: a population is (X, y, resp_prob), and a response set is the
boolean array r over the sampled units, indexed as X[r] and X[~r].

The response model only ever sees the stored response probabilities;
nothing downstream of generation can couple response to y.
"""

import numpy as np

from .errors import ConfigError


# each covariate law by its numpy.random.Generator method, with that
# method's keyword parameters and their defaults (None: required)
COVARIATE_LAWS = {
    "gamma": {"shape": None, "scale": None},
    "normal": {"loc": 0.0, "scale": None},
    "uniform": {"low": 0.0, "high": 1.0},
}


def _draw_covariates(N, p, law, rng):
    name = law.get("name")
    if name not in COVARIATE_LAWS:
        raise ConfigError("covariate_law.name", f"unknown law {name!r}")
    params = {key: law[key] if default is None else law.get(key, default)
              for key, default in COVARIATE_LAWS[name].items()}
    return getattr(rng, name)(**params, size=(N, p))


def true_support(beta):
    """1-based indices of the covariates with a nonzero coefficient in beta."""
    return tuple(int(j) for j in np.flatnonzero(np.asarray(beta)[1:]) + 1)


def generate_population(N, p, covariate_law, beta, sigma, response, rng):
    """Draw X, build y = [1 X] beta + eps, and the logistic response
    probabilities 1 / (1 + exp(-t)), t = scale * (offset + x' zeta).
    -> (X, y, resp_prob): X is N x p, y and resp_prob have length N.

    beta has length p + 1 (intercept first); response is an
    (offset, scale, zeta) triple with zeta of length p. sigma >= 0; the
    noise stream is drawn even at sigma = 0 so downstream draws stay
    aligned across noise levels.
    """
    beta = np.asarray(beta, dtype=np.float64)
    offset, scale, zeta = response
    zeta = np.asarray(zeta, dtype=np.float64)
    if N < 1 or p < 1:
        raise ConfigError("population", "need N >= 1 and p >= 1")
    if beta.shape != (p + 1,):
        raise ConfigError("beta", f"expected length {p + 1}, got {beta.shape}")
    if zeta.shape != (p,):
        raise ConfigError("response_coefs", f"expected length {p}, got {zeta.shape}")
    if not (np.isfinite(offset) and np.isfinite(scale)):
        raise ConfigError("response", "offset and scale must be finite")
    if not sigma >= 0:
        raise ConfigError("sigma", "must be >= 0")

    X = _draw_covariates(N, p, covariate_law, rng)
    eps = rng.normal(0.0, 1.0, size=N) * sigma
    y = beta[0] + X @ beta[1:] + eps
    t = scale * (offset + X @ zeta)
    e = np.exp(-np.abs(t))  # the logistic as 1/(1+e) or, for t < 0, e/(1+e): no overflow
    resp_prob = np.where(t >= 0, 1.0, e) / (1.0 + e)
    if np.any(resp_prob <= 0.0) or np.any(resp_prob >= 1.0):
        # the logistic rounds to exactly 1 above about 36.7 but to 0 only below about
        # -745; refuse rather than clip, since pi-weighting assumes an interior probability
        raise ConfigError("response_coefs", "response probabilities hit 0 or 1")

    return X, y, resp_prob


def generate_response(resp_prob, unit_ids, rng):
    """Bernoulli response for the sampled units: the boolean array r,
    aligned with unit_ids, True for a respondent. Takes probabilities
    only; y never enters."""
    resp_prob = np.asarray(resp_prob, dtype=np.float64)
    unit_ids = np.asarray(unit_ids, dtype=np.int64)
    return rng.random(unit_ids.size) < resp_prob[unit_ids]
