"""Population generation and the response mechanism."""

import numpy as np
import pytest
from scipy.special import expit

from survey_impute.errors import ConfigError
from survey_impute.population import generate_population, generate_response, true_support

GAMMA52 = {"name": "gamma", "shape": 5.0, "scale": 2.0}
BETA = (0.0, 10.0, 9.0, 9.0, 8.0, 8.0, 7.0) + (0.0,) * 14
ZETA = (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0) + (0.0,) * 11
RESPONSE = (-70.0, 0.1, ZETA)


def paper_population(seed=0, N=5000):
    return generate_population(N, 20, GAMMA52, BETA, 60.0, RESPONSE, np.random.default_rng(seed))


class TestGeneratePopulation:
    def test_noise_variance_matches_sigma(self):
        X, y, _ = paper_population()
        eps = y - (BETA[0] + X @ BETA[1:])
        assert abs(np.var(eps) / 3600.0 - 1.0) < 0.05

    def test_zero_zeta_zero_offset_gives_half(self):
        _, _, resp_prob = generate_population(
            50, 2, {"name": "uniform"}, (1.0, 2.0, 3.0), 1.0,
            (0.0, 0.1, (0.0, 0.0)), np.random.default_rng(1),
        )
        assert np.all(resp_prob == 0.5)

    def test_paper_response_rate_near_half(self):
        _, _, resp_prob = paper_population()
        assert abs(resp_prob.mean() - 0.50) < 0.02

    def test_true_support(self):
        assert true_support(BETA) == (1, 2, 3, 4, 5, 6)
        assert true_support(np.array([1.0, 0.0, -2.0, 0.0])) == (2,)

    def test_regeneration_is_bit_identical(self):
        a, b = paper_population(seed=9, N=200), paper_population(seed=9, N=200)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert [u.shape for u in a] == [(200, 20), (200,), (200,)]

    def test_sigma_zero_allowed_and_noiseless(self):
        X, y, _ = generate_population(
            30, 2, {"name": "uniform"}, (1.0, 2.0, -1.0), 0.0,
            (0.0, 1.0, (0.1, 0.1)), np.random.default_rng(2),
        )
        assert np.allclose(y, 1.0 + X @ [2.0, -1.0], atol=0)

    def test_validation_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            generate_population(10, 2, GAMMA52, (1.0, 2.0), 1.0, (0.0, 1.0, (0.0, 0.0)), rng)
        with pytest.raises(ConfigError):
            generate_population(10, 2, GAMMA52, (1.0, 2.0, 3.0), 1.0, (0.0, 1.0, (0.0,)), rng)
        with pytest.raises(ConfigError):
            generate_population(10, 2, GAMMA52, (1.0, 2.0, 3.0), -1.0, (0.0, 1.0, (0.0, 0.0)), rng)
        with pytest.raises(ConfigError):
            generate_population(
                10, 2, {"name": "cauchy"}, (1.0, 2.0, 3.0), 1.0, (0.0, 1.0, (0.0, 0.0)), rng
            )

    def test_saturated_probability_rejected(self):
        # logistic(1000) rounds to exactly 1.0 in double precision
        with pytest.raises(ConfigError):
            generate_population(
                10, 1, {"name": "uniform"}, (0.0, 1.0), 1.0,
                (1000.0, 1.0, (0.0,)), np.random.default_rng(3),
            )
        # and logistic(-1000) to exactly 0.0
        with pytest.raises(ConfigError):
            generate_population(
                10, 1, {"name": "uniform"}, (0.0, 1.0), 1.0,
                (-1000.0, 1.0, (0.0,)), np.random.default_rng(3),
            )


def response_probability(t):
    """The one response probability of a population whose every unit has
    logistic argument t (zeta = 0, scale = 1, offset = t)."""
    _, _, resp_prob = generate_population(
        1, 1, {"name": "uniform"}, (0.0, 0.0), 1.0, (t, 1.0, (0.0,)), np.random.default_rng(0)
    )
    return resp_prob[0]


class TestLogistic:
    """Response probabilities against scipy.special.expit as the oracle."""

    EDGES = [1e-300, -1e-300, 36.7, -36.7, -40.0, -700.0]

    def test_matches_expit_on_a_grid(self):
        X, _, resp_prob = generate_population(
            20_001, 1, {"name": "uniform", "low": -60.0, "high": 36.0}, (0.0, 1.0), 1.0,
            (0.0, 1.0, (1.0,)), np.random.default_rng(5),
        )
        t = X[:, 0]
        assert np.all(np.abs(resp_prob - expit(t)) <= 1e-15 * expit(t))

    @pytest.mark.parametrize("t", EDGES)
    def test_matches_expit_at_the_edges(self, t):
        assert abs(response_probability(t) - expit(t)) <= 1e-15 * expit(t)

    @pytest.mark.parametrize("t", [40.0, 700.0, 745.0, 36.8])
    def test_refused_where_expit_is_exactly_one(self, t):
        assert expit(t) == 1.0
        with pytest.raises(ConfigError):
            response_probability(t)

    def test_reaches_zero_only_below_minus_745(self):
        # expit's 1/(1 + exp(-t)) overflows to 0 below about -709.78; the
        # two-branch form returns e/(1+e) = exp(t) down to the subnormals
        assert expit(-745.0) == 0.0
        assert response_probability(-745.0) == np.exp(-745.0) == 2.0**-1074
        with pytest.raises(ConfigError):
            response_probability(-746.0)


class TestResponse:
    def test_certain_response(self):
        r = generate_response(np.ones(10), np.arange(5), np.random.default_rng(0))
        assert np.array_equal(r, np.ones(5, dtype=bool))

    def test_half_rate_within_binomial_band(self):
        r = generate_response(np.full(1000, 0.5), np.arange(500), np.random.default_rng(4))
        assert 0.40 <= r.sum() / 500 <= 0.60

    def test_seed_determinism(self):
        prob = np.linspace(0.1, 0.9, 50)
        a = generate_response(prob, np.arange(50), np.random.default_rng(8))
        b = generate_response(prob, np.arange(50), np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_counts_partition(self):
        # r is a boolean array aligned with unit_ids, so X[r] and X[~r]
        # split the sample into respondents and missing units
        prob = np.linspace(0.1, 0.9, 30)
        ids = np.array([29, 3, 17, 8, 0, 21, 12])
        r = generate_response(prob, ids, np.random.default_rng(6))
        assert r.dtype == bool and r.shape == ids.shape
        assert 0 < r.sum() < ids.size
        assert np.array_equal(np.sort(np.r_[ids[r], ids[~r]]), np.sort(ids))
