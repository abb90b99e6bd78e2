"""Strict JSON config parsing, both directions."""

import copy
import json
import pickle

import pytest

from survey_impute.config import (
    load_json,
    parse_estimate_config,
    parse_study_config,
    resolved_config,
)
from survey_impute.errors import ConfigError


def base_study(**design):
    cfg = {
        "name": "t",
        "replications": 4,
        "master_seed": 11,
        "population": {
            "N": 50,
            "p": 3,
            "covariate_law": {"name": "gamma", "shape": 5.0, "scale": 2.0},
            "beta": [0.0, 1.0, 2.0, 0.0],
            "sigma": 1.0,
            "response_offset": 0.0,
            "response_scale": 0.0,
            "response_coefs": [0.0, 0.0, 0.0],
        },
        "design": {"kind": "srswor", "n": 10},
    }
    cfg["design"].update(design)
    return cfg


def base_stratified():
    cfg = base_study()
    cfg["population"]["N"] = 100
    cfg["design"] = {
        "kind": "stratified",
        "n": 10,
        "sort_coefs": [1.0, 0.0, 0.0],
        "alloc_covariate": 1,
        "fractions": [0.5, 0.5],
    }
    return cfg


def expect_field(obj, field, parser=parse_study_config):
    with pytest.raises(ConfigError) as err:
        parser(obj)
    assert err.value.field == field, err.value


class TestStudyParsing:
    def test_defaults_materialize(self):
        cfg = parse_study_config(base_study())
        assert cfg.level == 0.95
        assert cfg.criteria == ("aic", "bic", "cv5")
        assert cfg.candidates == "nested"
        assert cfg.failure_threshold == 0.05
        assert cfg.population.response_offset == 0.0
        assert cfg.population.response_scale == 0.0

    def test_round_trip(self):
        for raw in (base_study(), base_stratified()):
            cfg = parse_study_config(raw)
            echoed = resolved_config(cfg)
            assert parse_study_config(echoed) == cfg
            # and the echo survives a JSON round trip
            assert parse_study_config(json.loads(json.dumps(echoed))) == cfg

    def test_unknown_keys_rejected_at_each_level(self):
        top = base_study()
        top["extra"] = 1
        expect_field(top, "extra")
        pop = base_study()
        pop["population"]["rho"] = 0.5
        expect_field(pop, "population.rho")
        des = base_study()
        des["design"]["fractions"] = [1.0]
        expect_field(des, "design.fractions")
        law = base_study()
        law["population"]["covariate_law"]["df"] = 3
        expect_field(law, "population.covariate_law.df")

    def test_booleans_are_not_numbers(self):
        bad = base_study()
        bad["population"]["sigma"] = True
        expect_field(bad, "population.sigma")
        bad2 = base_study()
        bad2["replications"] = True
        expect_field(bad2, "replications")

    def test_missing_required_fields(self):
        for key, field in [
            ("replications", "replications"),
            ("master_seed", "master_seed"),
            ("population", "population"),
            ("design", "design"),
        ]:
            bad = base_study()
            del bad[key]
            expect_field(bad, field)
        for key in ("N", "p", "beta", "sigma", "covariate_law",
                    "response_offset", "response_scale", "response_coefs"):
            bad = base_study()
            del bad["population"][key]
            expect_field(bad, f"population.{key}")

    def test_beta_and_zeta_lengths(self):
        bad = base_study()
        bad["population"]["beta"] = [0.0, 1.0]
        expect_field(bad, "population.beta")
        bad2 = base_study()
        bad2["population"]["response_coefs"] = [0.0] * 4
        expect_field(bad2, "population.response_coefs")

    def test_criteria_validated(self):
        bad = base_study()
        bad["criteria"] = ["aic", "cv1"]
        expect_field(bad, "criteria[1]")
        dup = base_study()
        dup["criteria"] = ["bic", "bic"]
        expect_field(dup, "criteria")
        alias = base_study()
        alias["criteria"] = ["cv5", "cv05"]
        expect_field(alias, "criteria[1]")
        empty = base_study()
        empty["criteria"] = []
        expect_field(empty, "criteria")

    def test_candidates_validated(self):
        over = base_study()
        over["candidates"] = [[1, 2], [1, 4]]
        expect_field(over, "candidates[1]")
        dup = base_study()
        dup["candidates"] = [[2, 1], [1, 2]]
        expect_field(dup, "candidates")
        explicit = base_study()
        explicit["candidates"] = [[3, 1], [2]]
        cfg = parse_study_config(explicit)
        assert cfg.candidates == ((1, 3), (2,))

    def test_sample_size_bounds(self):
        big = base_study(n=51)
        expect_field(big, "design.n")

    @pytest.mark.parametrize("N", [2**63 // 24 + 1, 2**63 - 1, 2**64, 10**30])
    def test_population_must_fit_in_64_bit_memory(self, N):
        # p = 3 covariates of 8 bytes: 2**63 // 24 units is the most
        # numpy can index, so one more fails before any allocation
        cfg = base_study()
        cfg["population"]["N"] = N
        expect_field(cfg, "population.N")

    def test_level_bounds(self):
        bad = base_study()
        bad["level"] = 1.0
        expect_field(bad, "level")

    def test_covariate_law_shapes(self):
        bad = base_study()
        bad["population"]["covariate_law"] = {"name": "cauchy"}
        expect_field(bad, "population.covariate_law.name")
        neg = base_study()
        neg["population"]["covariate_law"] = {"name": "gamma", "shape": -1, "scale": 2}
        expect_field(neg, "population.covariate_law")
        uni = base_study()
        uni["population"]["covariate_law"] = {"name": "uniform", "low": 2.0, "high": 1.0}
        expect_field(uni, "population.covariate_law")

    def test_stratified_requirements(self):
        ok = parse_study_config(base_stratified())
        assert ok.design.fractions == (0.5, 0.5)
        assert ok.design.alloc_covariate == 1

        missing = base_stratified()
        del missing["design"]["sort_coefs"]
        expect_field(missing, "design.sort_coefs")

        alloc = base_stratified()
        alloc["design"]["alloc_covariate"] = 4
        expect_field(alloc, "design.alloc_covariate")

        frac = base_stratified()
        frac["design"]["fractions"] = [0.6, 0.5]
        expect_field(frac, "design.fractions")

        small_n = base_stratified()
        small_n["design"]["n"] = 3
        expect_field(small_n, "design.n")

        srs_extra = base_study(sort_coefs=[1.0, 0.0, 0.0])
        expect_field(srs_extra, "design.sort_coefs")


def est_srswor():
    return {
        "criterion": "bic",
        "design": {"kind": "srswor", "N": 200},
    }


def est_stratified():
    return {
        "criterion": "aic",
        "design": {
            "kind": "stratified",
            "strata": [
                {"N": 40, "sampled_units": [0, 1, 2]},
                {"N": 60, "sampled_units": [10, 11]},
            ],
        },
    }


class TestEstimateParsing:
    def test_srswor_defaults(self):
        cfg = parse_estimate_config(est_srswor())
        assert (cfg.level, cfg.criterion, cfg.design.N) == (0.95, "bic", 200)
        assert cfg.candidates == "nested"
        assert cfg.master_seed == 0

    def test_round_trip(self):
        for raw in (est_srswor(), est_stratified()):
            cfg = parse_estimate_config(raw)
            assert parse_estimate_config(resolved_config(cfg)) == cfg

    def test_candidate_index_bound_deferred(self):
        raw = est_srswor()
        raw["candidates"] = [[1, 999]]
        cfg = parse_estimate_config(raw)  # bound checked against the data later
        assert cfg.candidates == ((1, 999),)

    def test_stratified_validation(self):
        dup_within = est_stratified()
        dup_within["design"]["strata"][0]["sampled_units"] = [0, 0, 1]
        expect_field(dup_within, "design.strata[0].sampled_units", parse_estimate_config)

        dup_across = est_stratified()
        dup_across["design"]["strata"][1]["sampled_units"] = [2, 11]
        expect_field(dup_across, "design.strata[1].sampled_units", parse_estimate_config)

        too_many = est_stratified()
        too_many["design"]["strata"][1] = {"N": 2, "sampled_units": [10, 11, 12]}
        expect_field(too_many, "design.strata[1].sampled_units", parse_estimate_config)

        lone = est_stratified()
        lone["design"]["strata"][1]["sampled_units"] = [10]
        expect_field(lone, "design.strata[1].sampled_units", parse_estimate_config)

        empty = est_stratified()
        empty["design"]["strata"] = []
        expect_field(empty, "design.strata", parse_estimate_config)

    @pytest.mark.parametrize("unit,message", [
        (True, "expected an integer, got True"),
        (2.0, "expected an integer, got 2.0"),
        ("3", "expected an integer, got '3'"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_bad_sampled_unit(self, unit, message):
        raw = est_stratified()
        raw["design"]["strata"][1]["sampled_units"] = [10, unit, -5]
        with pytest.raises(ConfigError) as err:
            parse_estimate_config(raw)
        assert (err.value.field, err.value.message) == ("design.strata[1].sampled_units", message)

    def test_population_sizes_fit_in_int64(self):
        raw = est_srswor()
        raw["design"]["N"] = 2**63 - 1
        assert parse_estimate_config(raw).design.N == 2**63 - 1
        raw["design"]["N"] = 2**63
        expect_field(raw, "design.N", parse_estimate_config)
        raw = est_stratified()
        for entry in raw["design"]["strata"]:
            entry["N"] = 2**62
        expect_field(raw, "design.strata", parse_estimate_config)

    def test_bad_criterion(self):
        raw = est_srswor()
        raw["criterion"] = "press"
        expect_field(raw, "criterion", parse_estimate_config)


DEL = object()  # an _edit value: delete the key
_HUGE_N = 2**63 // 24 + 1  # p = 3 covariates of 8 bytes no longer fit in 64-bit memory


def _edit(make, keys, value):
    """The config make() with the value at keys replaced by value (the
    whole config when keys is empty), or deleted when value is DEL."""
    if not keys:
        return value
    cfg = make()
    slot = cfg
    for key in keys[:-1]:
        slot = slot[key]
    if value is DEL:
        del slot[keys[-1]]
    else:
        slot[keys[-1]] = value
    return cfg


def _fault(make, keys, value, field, message):
    """One single-fault config and the (field, message) it is refused with."""
    shown = "DEL" if value is DEL else repr(value)
    name = f"{make.__name__}:{'.'.join(map(str, keys)) or 'top'}={shown}"
    return pytest.param(make, keys, value, field, message, id=name[:80])


_POPULATION_KEYS = ("N", "p", "covariate_law", "beta", "sigma",
                    "response_offset", "response_scale", "response_coefs")
_LAW = ("population", "covariate_law")
_UNIT = ("design", "strata", 1, "sampled_units")

# one config per error site of both parsers, each with exactly one fault
CONFIG_ERRORS = [
    # study, top level
    _fault(base_study, (), [], "", "top-level config must be a JSON object"),
    _fault(base_study, ("extra",), 1, "extra", "unknown field"),
    _fault(base_study, ("name",), 3, "name", "expected a string, got 3"),
    _fault(base_study, ("replications",), DEL, "replications", "missing required field"),
    _fault(base_study, ("replications",), 1.5, "replications", "expected an integer, got 1.5"),
    _fault(base_study, ("replications",), True, "replications", "expected an integer, got True"),
    _fault(base_study, ("replications",), 0, "replications", "must be >= 1, got 0"),
    _fault(base_study, ("master_seed",), DEL, "master_seed", "missing required field"),
    _fault(base_study, ("master_seed",), -1, "master_seed", "must be >= 0, got -1"),
    _fault(base_study, ("level",), "x", "level", "expected a number, got 'x'"),
    _fault(base_study, ("level",), 1.0, "level", "must be in (0, 1), got 1.0"),
    _fault(base_study, ("level",), 0, "level", "must be in (0, 1), got 0.0"),
    _fault(base_study, ("failure_threshold",), None, "failure_threshold",
           "expected a number, got None"),
    _fault(base_study, ("failure_threshold",), 1.5, "failure_threshold",
           "must be in [0, 1], got 1.5"),
    _fault(base_study, ("criteria",), "aic", "criteria",
           "expected a nonempty list of criterion names"),
    _fault(base_study, ("criteria",), [], "criteria",
           "expected a nonempty list of criterion names"),
    _fault(base_study, ("criteria",), ["aic", 5], "criteria[1]", "expected a string, got 5"),
    _fault(base_study, ("criteria",), ["aic", "cv1"], "criteria[1]",
           "cv criterion needs K >= 2, got 'cv1'"),
    _fault(base_study, ("criteria",), ["press"], "criteria[0]",
           "unknown criterion 'press'; expected 'aic', 'bic', or 'cvK'"),
    _fault(base_study, ("criteria",), ["bic", "bic"], "criteria", "duplicate criteria"),
    _fault(base_study, ("candidates",), "all", "candidates",
           'expected "nested" or a nonempty list of index lists'),
    _fault(base_study, ("candidates",), [], "candidates",
           'expected "nested" or a nonempty list of index lists'),
    _fault(base_study, ("candidates",), [[1], []], "candidates[1]",
           "expected a nonempty list of covariate indices"),
    _fault(base_study, ("candidates",), [[1], 2], "candidates[1]",
           "expected a nonempty list of covariate indices"),
    _fault(base_study, ("candidates",), [[1, 0]], "candidates[0]", "must be >= 1, got 0"),
    _fault(base_study, ("candidates",), [[1, "2"]], "candidates[0]",
           "expected an integer, got '2'"),
    _fault(base_study, ("candidates",), [[1], [1, 4]], "candidates[1]",
           "covariate index 4 exceeds p=3"),
    _fault(base_study, ("candidates",), [[2, 1], [1, 2]], "candidates",
           "duplicate candidate models"),
    # study population
    _fault(base_study, ("population",), DEL, "population", "missing required field"),
    _fault(base_study, ("population",), [], "population", "expected an object"),
    _fault(base_study, ("population", "rho"), 0.5, "population.rho", "unknown field"),
    *[_fault(base_study, ("population", key), DEL, f"population.{key}", "missing required field")
      for key in _POPULATION_KEYS],
    _fault(base_study, ("population", "N"), "50", "population.N", "expected an integer, got '50'"),
    _fault(base_study, ("population", "N"), 0, "population.N", "must be >= 1, got 0"),
    _fault(base_study, ("population", "p"), 0, "population.p", "must be >= 1, got 0"),
    _fault(base_study, ("population", "N"), _HUGE_N, "population.N",
           f"an N x p = {_HUGE_N} x 3 population of 8-byte values does not fit in 64-bit memory"),
    _fault(base_study, _LAW, 5, "population.covariate_law", "expected an object"),
    _fault(base_study, _LAW, {"shape": 5.0, "scale": 2.0}, "population.covariate_law.name",
           "missing required field"),
    _fault(base_study, _LAW + ("name",), 3, "population.covariate_law.name",
           "expected a string, got 3"),
    _fault(base_study, _LAW + ("name",), "cauchy", "population.covariate_law.name",
           "unknown law 'cauchy'; expected one of ['gamma', 'normal', 'uniform']"),
    _fault(base_study, _LAW + ("df",), 3, "population.covariate_law.df", "unknown field"),
    _fault(base_study, _LAW + ("scale",), DEL, "population.covariate_law.scale",
           "missing required field"),
    _fault(base_study, _LAW + ("shape",), "x", "population.covariate_law.shape",
           "expected a number, got 'x'"),
    _fault(base_study, _LAW + ("shape",), -1, "population.covariate_law",
           "gamma shape and scale must be positive"),
    _fault(base_study, _LAW, {"name": "normal", "scale": -1.0}, "population.covariate_law.scale",
           "must be >= 0"),
    _fault(base_study, _LAW, {"name": "uniform", "low": 2.0, "high": 1.0},
           "population.covariate_law", "uniform needs high >= low"),
    _fault(base_study, _LAW, {"name": "uniform", "low": -1.7e308, "high": 1.7e308},
           "population.covariate_law", "uniform needs a finite high - low"),
    _fault(base_study, ("population", "beta"), 1, "population.beta", "expected a list of numbers"),
    _fault(base_study, ("population", "beta"), [0.0, 1.0], "population.beta",
           "expected length 4, got 2"),
    _fault(base_study, ("population", "beta"), [0.0, 1.0, "x", 0.0], "population.beta[2]",
           "expected a number, got 'x'"),
    _fault(base_study, ("population", "sigma"), -1, "population.sigma", "must be >= 0.0, got -1"),
    _fault(base_study, ("population", "sigma"), float("inf"), "population.sigma",
           "expected a finite number, got inf"),
    _fault(base_study, ("population", "sigma"), 10**400, "population.sigma",
           "expected a finite number, got inf"),
    _fault(base_study, ("population", "response_offset"), "a", "population.response_offset",
           "expected a number, got 'a'"),
    _fault(base_study, ("population", "response_scale"), None, "population.response_scale",
           "expected a number, got None"),
    _fault(base_study, ("population", "response_coefs"), [0.0] * 4, "population.response_coefs",
           "expected length 3, got 4"),
    # study design
    _fault(base_study, ("design",), DEL, "design", "missing required field"),
    _fault(base_study, ("design",), "srswor", "design", "expected an object"),
    _fault(base_study, ("design", "kind"), DEL, "design.kind", "missing required field"),
    _fault(base_study, ("design", "kind"), 1, "design.kind", "expected a string, got 1"),
    _fault(base_study, ("design", "kind"), "poisson", "design.kind",
           "expected 'srswor' or 'stratified', got 'poisson'"),
    _fault(base_study, ("design", "n"), DEL, "design.n", "missing required field"),
    _fault(base_study, ("design", "n"), 0, "design.n", "must be >= 1, got 0"),
    _fault(base_study, ("design", "n"), 51, "design.n",
           "sample size 51 exceeds population size 50"),
    _fault(base_study, ("design", "fractions"), [1.0], "design.fractions", "unknown field"),
    _fault(base_study, ("design", "foo"), 1, "design.foo", "unknown field"),
    *[_fault(base_stratified, ("design", key), DEL, f"design.{key}", "missing required field")
      for key in ("sort_coefs", "alloc_covariate", "fractions")],
    _fault(base_stratified, ("design", "foo"), 1, "design.foo", "unknown field"),
    _fault(base_stratified, ("design", "sort_coefs"), "x", "design.sort_coefs",
           "expected a list of numbers"),
    _fault(base_stratified, ("design", "sort_coefs"), [1.0], "design.sort_coefs",
           "expected length 3, got 1"),
    _fault(base_stratified, ("design", "alloc_covariate"), 0, "design.alloc_covariate",
           "must be >= 1, got 0"),
    _fault(base_stratified, ("design", "alloc_covariate"), 4, "design.alloc_covariate",
           "index 4 exceeds p=3"),
    _fault(base_stratified, ("design", "fractions"), "x", "design.fractions",
           "expected a list of numbers"),
    _fault(base_stratified, ("design", "fractions"), [], "design.fractions",
           "need at least one stratum"),
    _fault(base_stratified, ("design", "fractions"), [1.5, -0.5], "design.fractions",
           "stratum fractions must be positive"),
    _fault(base_stratified, ("design", "fractions"), [0.6, 0.5], "design.fractions",
           "stratum fractions must sum to 1"),
    _fault(base_stratified, ("design", "fractions"), [0.99, 0.01], "design.fractions",
           "stratum fractions give a stratum with fewer than 2 units"),
    _fault(base_stratified, ("design", "n"), 3, "design.n",
           "need at least 2 units per stratum, n=3 with 2 strata"),
    # estimate, top level
    _fault(est_srswor, (), "bic", "", "top-level config must be a JSON object"),
    _fault(est_srswor, ("extra",), 1, "extra", "unknown field"),
    _fault(est_srswor, ("master_seed",), "0", "master_seed", "expected an integer, got '0'"),
    _fault(est_srswor, ("master_seed",), -1, "master_seed", "must be >= 0, got -1"),
    _fault(est_srswor, ("level",), 0, "level", "must be in (0, 1), got 0.0"),
    _fault(est_srswor, ("level",), [], "level", "expected a number, got []"),
    _fault(est_srswor, ("criterion",), DEL, "criterion", "missing required field"),
    _fault(est_srswor, ("criterion",), 5, "criterion", "expected a string, got 5"),
    _fault(est_srswor, ("criterion",), "press", "criterion",
           "unknown criterion 'press'; expected 'aic', 'bic', or 'cvK'"),
    _fault(est_srswor, ("candidates",), [], "candidates",
           'expected "nested" or a nonempty list of index lists'),
    _fault(est_srswor, ("candidates",), [[0]], "candidates[0]", "must be >= 1, got 0"),
    _fault(est_srswor, ("candidates",), [[1], [1]], "candidates", "duplicate candidate models"),
    # estimate design
    _fault(est_srswor, ("design",), DEL, "design", "missing required field"),
    _fault(est_srswor, ("design",), "srswor", "design", "expected an object"),
    _fault(est_srswor, ("design", "kind"), DEL, "design.kind", "missing required field"),
    _fault(est_srswor, ("design", "kind"), "poisson", "design.kind",
           "expected 'srswor' or 'stratified', got 'poisson'"),
    _fault(est_srswor, ("design", "foo"), 1, "design.foo", "unknown field"),
    _fault(est_srswor, ("design", "N"), DEL, "design.N", "missing required field"),
    _fault(est_srswor, ("design", "N"), 200.0, "design.N", "expected an integer, got 200.0"),
    _fault(est_srswor, ("design", "N"), 0, "design.N", "must be >= 1, got 0"),
    _fault(est_srswor, ("design", "N"), 2**63, "design.N", "does not fit in 64 bits"),
    _fault(est_srswor, ("design", "strata"), est_stratified()["design"]["strata"],
           "design.strata", "unknown field"),
    _fault(est_stratified, ("design", "strata"), DEL, "design.strata", "missing required field"),
    _fault(est_stratified, ("design", "N"), 100, "design.N", "unknown field"),
    _fault(est_stratified, ("design", "strata"), [], "design.strata",
           "expected a nonempty list of stratum objects"),
    _fault(est_stratified, ("design", "strata"), {"N": 40}, "design.strata",
           "expected a nonempty list of stratum objects"),
    _fault(est_stratified, ("design", "strata", 1), 5, "design.strata[1]", "expected an object"),
    _fault(est_stratified, ("design", "strata", 1, "foo"), 1, "design.strata[1].foo",
           "unknown field"),
    _fault(est_stratified, ("design", "strata", 0, "N"), DEL, "design.strata[0].N",
           "missing required field"),
    _fault(est_stratified, ("design", "strata", 0, "N"), 1, "design.strata[0].N",
           "must be >= 2, got 1"),
    _fault(est_stratified, _UNIT, DEL, "design.strata[1].sampled_units", "missing required field"),
    _fault(est_stratified, _UNIT, [], "design.strata[1].sampled_units",
           "expected a nonempty list of unit ids"),
    _fault(est_stratified, _UNIT, "10", "design.strata[1].sampled_units",
           "expected a nonempty list of unit ids"),
    _fault(est_stratified, _UNIT, [10, -1], "design.strata[1].sampled_units",
           "must be >= 0, got -1"),
    _fault(est_stratified, _UNIT, [10, 10], "design.strata[1].sampled_units", "duplicate unit ids"),
    _fault(est_stratified, _UNIT, [2, 11], "design.strata[1].sampled_units",
           "unit id appears in more than one stratum"),
    _fault(est_stratified, _UNIT, [10], "design.strata[1].sampled_units",
           "need at least 2 sampled units per stratum"),
    _fault(est_stratified, ("design", "strata", 1, "N"), 2**63 - 40, "design.strata",
           "total population size does not fit in 64 bits"),
    _fault(est_stratified, ("design", "strata", 0, "N"), 2, "design.strata[0].sampled_units",
           "3 sampled units exceed stratum size 2"),
]


@pytest.mark.parametrize("make, keys, value, field, message", CONFIG_ERRORS)
def test_every_config_error_names_its_field_and_message(make, keys, value, field, message):
    parser = parse_study_config if make in (base_study, base_stratified) else parse_estimate_config
    with pytest.raises(ConfigError) as err:
        parser(_edit(make, keys, value))
    assert (err.value.field, err.value.message) == (field, message)


def _with_law(name, **params):
    cfg = base_study()
    cfg["population"]["covariate_law"] = {"name": name, **params}
    return cfg


def _slot(make, keys, field, name=None):
    """One float slot: the config, the keys down to the slot, and the
    field path an error there reports."""
    return pytest.param(make, keys, field, id=name or field)


FLOAT_SLOTS = [
    _slot(base_study, ("level",), "level"),
    _slot(base_study, ("failure_threshold",), "failure_threshold"),
    _slot(base_study, ("population", "beta", 1), "population.beta[1]"),
    _slot(base_study, ("population", "sigma"), "population.sigma"),
    _slot(base_study, ("population", "response_offset"), "population.response_offset"),
    _slot(base_study, ("population", "response_scale"), "population.response_scale"),
    _slot(base_study, ("population", "response_coefs", 2), "population.response_coefs[2]"),
    _slot(base_study, ("population", "covariate_law", "shape"),
          "population.covariate_law.shape"),
    _slot(base_study, ("population", "covariate_law", "scale"),
          "population.covariate_law.scale"),
    _slot(lambda: _with_law("normal", loc=0.0, scale=1.0),
          ("population", "covariate_law", "loc"), "population.covariate_law.loc"),
    _slot(lambda: _with_law("normal", loc=0.0, scale=1.0),
          ("population", "covariate_law", "scale"), "population.covariate_law.scale",
          "normal.scale"),
    _slot(lambda: _with_law("uniform", low=0.0, high=1.0),
          ("population", "covariate_law", "low"), "population.covariate_law.low"),
    _slot(lambda: _with_law("uniform", low=0.0, high=1.0),
          ("population", "covariate_law", "high"), "population.covariate_law.high"),
    _slot(base_stratified, ("design", "sort_coefs", 0), "design.sort_coefs[0]"),
    _slot(base_stratified, ("design", "fractions", 1), "design.fractions[1]"),
    _slot(lambda: {"criterion": "bic", "design": {"kind": "srswor", "N": 50}},
          ("level",), "level", "estimate.level"),
]


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="10**400")]
)
@pytest.mark.parametrize("make, keys, field", FLOAT_SLOTS)
def test_non_finite_numbers_refused_at_their_field(make, keys, field, literal):
    # json reads NaN and +-Infinity, and an integer too large for a float
    cfg = make()
    slot = cfg
    for key in keys[:-1]:
        slot = slot[key]
    slot[keys[-1]] = "@"
    obj = json.loads(json.dumps(cfg).replace('"@"', literal))
    parser = parse_study_config if "population" in obj else parse_estimate_config
    with pytest.raises(ConfigError) as err:
        parser(obj)
    assert (err.value.field, "finite" in err.value.message) == (field, True), err.value


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_json(tmp_path / "nope.json")
        assert "not found" in str(err.value)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "a": 1,\n}\n')
        with pytest.raises(ConfigError) as err:
            load_json(path)
        assert ":3" in err.value.field

    def test_good_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_study()))
        assert parse_study_config(load_json(path)).population.N == 50


def test_shipped_configs_parse():
    from conftest import CONFIG_DIR
    names = sorted(f.name for f in CONFIG_DIR.glob("*.json"))
    assert names == [
        "srswor_n100.json", "srswor_n200.json",
        "srswor_n500.json", "stratified_n500.json",
    ]
    for f in CONFIG_DIR.glob("*.json"):
        cfg = parse_study_config(load_json(f))
        assert cfg.replications == 2000
        assert cfg.master_seed == 20260816
        assert copy.deepcopy(resolved_config(cfg)) == resolved_config(cfg)


def test_config_error_survives_a_pickle_round_trip():
    # a pool worker's error reaches the parent process pickled
    err = pickle.loads(pickle.dumps(ConfigError("response_coefs", "hit 0 or 1")))
    assert type(err) is ConfigError
    assert (err.field, err.message, str(err)) == ("response_coefs", "hit 0 or 1",
                                                  "response_coefs: hit 0 or 1")
