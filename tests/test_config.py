"""Strict JSON config parsing, both directions."""

import copy
import json

import pytest

from survey_impute.config import (
    load_json,
    parse_estimate_config,
    parse_study_config,
    resolved_estimate_config,
    resolved_study_config,
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
        assert cfg.response_offset == 0.0
        assert cfg.response_scale == 0.0

    def test_round_trip(self):
        for raw in (base_study(), base_stratified()):
            cfg = parse_study_config(raw)
            echoed = resolved_study_config(cfg)
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
        assert ok.fractions == (0.5, 0.5)
        assert ok.alloc_covariate == 1

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


class TestEstimateParsing:
    def srswor(self):
        return {
            "criterion": "bic",
            "design": {"kind": "srswor", "N": 200},
        }

    def stratified(self):
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

    def test_srswor_defaults(self):
        cfg = parse_estimate_config(self.srswor())
        assert (cfg.level, cfg.criterion, cfg.N) == (0.95, "bic", 200)
        assert cfg.candidates == "nested"
        assert cfg.master_seed == 0

    def test_round_trip(self):
        for raw in (self.srswor(), self.stratified()):
            cfg = parse_estimate_config(raw)
            assert parse_estimate_config(resolved_estimate_config(cfg)) == cfg

    def test_candidate_index_bound_deferred(self):
        raw = self.srswor()
        raw["candidates"] = [[1, 999]]
        cfg = parse_estimate_config(raw)  # bound checked against the data later
        assert cfg.candidates == ((1, 999),)

    def test_stratified_validation(self):
        dup_within = self.stratified()
        dup_within["design"]["strata"][0]["sampled_units"] = [0, 0, 1]
        expect_field(dup_within, "design.strata[0].sampled_units", parse_estimate_config)

        dup_across = self.stratified()
        dup_across["design"]["strata"][1]["sampled_units"] = [2, 11]
        expect_field(dup_across, "design.strata[1].sampled_units", parse_estimate_config)

        too_many = self.stratified()
        too_many["design"]["strata"][1] = {"N": 2, "sampled_units": [10, 11, 12]}
        expect_field(too_many, "design.strata[1].sampled_units", parse_estimate_config)

        lone = self.stratified()
        lone["design"]["strata"][1]["sampled_units"] = [10]
        expect_field(lone, "design.strata[1].sampled_units", parse_estimate_config)

        empty = self.stratified()
        empty["design"]["strata"] = []
        expect_field(empty, "design.strata", parse_estimate_config)

    @pytest.mark.parametrize("unit,message", [
        (True, "expected an integer, got True"),
        (2.0, "expected an integer, got 2.0"),
        ("3", "expected an integer, got '3'"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_bad_sampled_unit(self, unit, message):
        raw = self.stratified()
        raw["design"]["strata"][1]["sampled_units"] = [10, unit, -5]
        with pytest.raises(ConfigError) as err:
            parse_estimate_config(raw)
        assert (err.value.field, err.value.message) == ("design.strata[1].sampled_units", message)

    def test_population_sizes_fit_in_int64(self):
        raw = self.srswor()
        raw["design"]["N"] = 2**63 - 1
        assert parse_estimate_config(raw).N == 2**63 - 1
        raw["design"]["N"] = 2**63
        expect_field(raw, "design.N", parse_estimate_config)
        raw = self.stratified()
        for entry in raw["design"]["strata"]:
            entry["N"] = 2**62
        expect_field(raw, "design.strata", parse_estimate_config)

    def test_bad_criterion(self):
        raw = self.srswor()
        raw["criterion"] = "press"
        expect_field(raw, "criterion", parse_estimate_config)


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
        assert parse_study_config(load_json(path)).N == 50


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
        assert copy.deepcopy(resolved_study_config(cfg)) == resolved_study_config(cfg)
