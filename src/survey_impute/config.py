"""JSON configuration for studies and single-dataset estimation.

A config record nests as its JSON file does. A StudyConfig holds the
top-level fields, a Population record (the finite-population and
response model) and a StudyDesign record (the sampling design). An
EstimateConfig holds an EstimateDesign record, whose stratified form is
a tuple of Stratum records. A field that its design kind does not use is
None.

Parsing is strict: unknown keys, wrong types, and inconsistent sizes are
all ConfigError with the offending field path, so the CLI can print a
pointed diagnostic. resolved_config, the echo with every default
filled in, is the record written out as JSON; it is itself a valid
config and parses back to an equal record.
"""

import json
import math
from dataclasses import asdict, dataclass

from .design import stratum_sizes
from .errors import ConfigError, InvalidDesignError
from .population import COVARIATE_LAWS
from .selection import parse_criterion

DEFAULT_CRITERIA = ("aic", "bic", "cv5")
_INT64_MAX = 2**63 - 1  # population sizes are held as int64


def _fail(path, msg):
    raise ConfigError(path, msg)


def _get(obj, key, path):
    if key not in obj:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _num(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond a float's range
        v = math.inf
    if not math.isfinite(v):  # json reads NaN, Infinity and -Infinity
        _fail(path, f"expected a finite number, got {v}")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return v


def _str(value, path):
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _one_of(obj, key, path, options):
    """The required string obj[key], which must be one of options."""
    value = _str(_get(obj, key, path), f"{path}.{key}")
    if value not in options:
        _fail(f"{path}.{key}", f"expected {' or '.join(map(repr, options))}, got {value!r}")
    return value


def _numlist(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of numbers")
    if length is not None and len(value) != length:
        _fail(path, f"expected length {length}, got {len(value)}")
    return tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(value))


def _no_unknown(obj, allowed, path):
    extra = set(obj) - set(allowed)
    if extra:
        key = sorted(extra)[0]
        _fail(f"{path}.{key}" if path else key, "unknown field")


def _parse_covariate_law(obj, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    name = _str(_get(obj, "name", path), f"{path}.name")
    if name not in COVARIATE_LAWS:
        _fail(f"{path}.name", f"unknown law {name!r}; expected one of {sorted(COVARIATE_LAWS)}")
    params = COVARIATE_LAWS[name]
    _no_unknown(obj, {"name", *params}, path)
    law = {"name": name}
    for key, default in params.items():
        if default is None:
            law[key] = _num(_get(obj, key, path), f"{path}.{key}")
        else:
            law[key] = _num(obj.get(key, default), f"{path}.{key}")
    if name in ("gamma",) and (law["shape"] <= 0 or law["scale"] <= 0):
        _fail(path, "gamma shape and scale must be positive")
    if name == "normal" and law["scale"] < 0:
        _fail(f"{path}.scale", "must be >= 0")
    if name == "uniform" and law["high"] < law["low"]:
        _fail(path, "uniform needs high >= low")
    return law


def _parse_candidates(value, p, path):
    if value == "nested":
        return "nested"
    if not isinstance(value, list) or not value:
        _fail(path, 'expected "nested" or a nonempty list of index lists')
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or not entry:
            _fail(f"{path}[{i}]", "expected a nonempty list of covariate indices")
        idx = tuple(sorted(set(_int(j, f"{path}[{i}]", minimum=1) for j in entry)))
        if p is not None and idx[-1] > p:
            _fail(f"{path}[{i}]", f"covariate index {idx[-1]} exceeds p={p}")
        out.append(idx)
    if len(set(out)) != len(out):
        _fail(path, "duplicate candidate models")
    return tuple(out)


@dataclass(frozen=True)
class Population:
    N: int
    p: int
    covariate_law: dict
    beta: tuple
    sigma: float
    response_offset: float
    response_scale: float
    response_coefs: tuple


@dataclass(frozen=True)
class StudyDesign:
    kind: str  # "srswor" or "stratified"
    n: int
    sort_coefs: tuple = None  # stratified only, as are the next two
    alloc_covariate: int = None
    fractions: tuple = None


@dataclass(frozen=True)
class StudyConfig:
    name: str
    replications: int
    master_seed: int
    level: float
    criteria: tuple
    candidates: object  # "nested" or tuple of index tuples
    failure_threshold: float
    population: Population
    design: StudyDesign


def parse_study_config(obj):
    if not isinstance(obj, dict):
        _fail("", "top-level config must be a JSON object")
    _no_unknown(
        obj,
        {"name", "replications", "master_seed", "level", "criteria", "candidates",
         "failure_threshold", "population", "design"},
        "",
    )
    name = _str(obj.get("name", "study"), "name")
    B = _int(_get(obj, "replications", ""), "replications", minimum=1)
    seed = _int(_get(obj, "master_seed", ""), "master_seed", minimum=0)
    level = _num(obj.get("level", 0.95), "level")
    if not 0.0 < level < 1.0:
        _fail("level", f"must be in (0, 1), got {level}")
    threshold = _num(obj.get("failure_threshold", 0.05), "failure_threshold")
    if not 0.0 <= threshold <= 1.0:
        _fail("failure_threshold", f"must be in [0, 1], got {threshold}")

    crits = obj.get("criteria", list(DEFAULT_CRITERIA))
    if not isinstance(crits, list) or not crits:
        _fail("criteria", "expected a nonempty list of criterion names")
    for i, c in enumerate(crits):
        try:
            parse_criterion(_str(c, f"criteria[{i}]"))
        except ValueError as exc:
            _fail(f"criteria[{i}]", str(exc))
    if len(set(crits)) != len(crits):
        _fail("criteria", "duplicate criteria")

    pop = _get(obj, "population", "")
    if not isinstance(pop, dict):
        _fail("population", "expected an object")
    _no_unknown(
        pop,
        {"N", "p", "covariate_law", "beta", "sigma",
         "response_offset", "response_scale", "response_coefs"},
        "population",
    )
    N = _int(_get(pop, "N", "population"), "population.N", minimum=1)
    p = _int(_get(pop, "p", "population"), "population.p", minimum=1)
    if N * p * 8 > _INT64_MAX:
        _fail("population.N", f"an N x p = {N} x {p} population of 8-byte values "
              "does not fit in 64-bit memory")
    law = _parse_covariate_law(_get(pop, "covariate_law", "population"), "population.covariate_law")
    beta = _numlist(_get(pop, "beta", "population"), "population.beta", length=p + 1)
    sigma = _num(_get(pop, "sigma", "population"), "population.sigma", minimum=0.0)
    r_offset = _num(_get(pop, "response_offset", "population"), "population.response_offset")
    r_scale = _num(_get(pop, "response_scale", "population"), "population.response_scale")
    zeta = _numlist(
        _get(pop, "response_coefs", "population"), "population.response_coefs", length=p
    )

    design = _get(obj, "design", "")
    if not isinstance(design, dict):
        _fail("design", "expected an object")
    kind = _one_of(design, "kind", "design", ("srswor", "stratified"))
    n = _int(_get(design, "n", "design"), "design.n", minimum=1)
    if n > N:
        _fail("design.n", f"sample size {n} exceeds population size {N}")
    sort_coefs = alloc_cov = fractions = None
    if kind == "srswor":
        _no_unknown(design, {"kind", "n"}, "design")
    else:
        _no_unknown(design, {"kind", "n", "sort_coefs", "alloc_covariate", "fractions"}, "design")
        sort_coefs = _numlist(_get(design, "sort_coefs", "design"), "design.sort_coefs", length=p)
        alloc_cov = _int(_get(design, "alloc_covariate", "design"), "design.alloc_covariate", minimum=1)
        if alloc_cov > p:
            _fail("design.alloc_covariate", f"index {alloc_cov} exceeds p={p}")
        fractions = _numlist(_get(design, "fractions", "design"), "design.fractions")
        if len(fractions) < 1:
            _fail("design.fractions", "need at least one stratum")
        try:
            stratum_sizes(N, fractions)
        except InvalidDesignError as exc:
            _fail("design.fractions", str(exc))
        if n < 2 * len(fractions):
            _fail("design.n", f"need at least 2 units per stratum, n={n} with {len(fractions)} strata")

    candidates = _parse_candidates(obj.get("candidates", "nested"), p, "candidates")

    return StudyConfig(
        name=name, replications=B, master_seed=seed, level=level,
        criteria=tuple(crits), candidates=candidates, failure_threshold=threshold,
        population=Population(N, p, law, beta, sigma, r_offset, r_scale, zeta),
        design=StudyDesign(kind, n, sort_coefs, alloc_cov, fractions),
    )


@dataclass(frozen=True)
class Stratum:
    N: int
    sampled_units: tuple


@dataclass(frozen=True)
class EstimateDesign:
    kind: str  # "srswor" or "stratified"
    N: int = None  # srswor
    strata: tuple = None  # stratified: Stratum records


@dataclass(frozen=True)
class EstimateConfig:
    level: float
    criterion: str
    candidates: object
    master_seed: int  # only consumed by cv fold splitting
    design: EstimateDesign


def parse_estimate_config(obj):
    if not isinstance(obj, dict):
        _fail("", "top-level config must be a JSON object")
    _no_unknown(obj, {"level", "criterion", "candidates", "design", "master_seed"}, "")
    seed = _int(obj.get("master_seed", 0), "master_seed", minimum=0)
    level = _num(obj.get("level", 0.95), "level")
    if not 0.0 < level < 1.0:
        _fail("level", f"must be in (0, 1), got {level}")
    criterion = _str(_get(obj, "criterion", ""), "criterion")
    try:
        parse_criterion(criterion)
    except ValueError as exc:
        _fail("criterion", str(exc))

    # covariate count is only known once the data file is read, so the
    # upper index bound is checked there
    raw_candidates = _parse_candidates(obj.get("candidates", "nested"), None, "candidates")

    design = _get(obj, "design", "")
    if not isinstance(design, dict):
        _fail("design", "expected an object")
    kind = _one_of(design, "kind", "design", ("srswor", "stratified"))
    if kind == "srswor":
        _no_unknown(design, {"kind", "N"}, "design")
        N = _int(_get(design, "N", "design"), "design.N", minimum=1)
        if N > _INT64_MAX:
            _fail("design.N", "does not fit in 64 bits")
        return EstimateConfig(level, criterion, raw_candidates, seed, EstimateDesign(kind, N=N))
    _no_unknown(design, {"kind", "strata"}, "design")
    raw = _get(design, "strata", "design")
    if not isinstance(raw, list) or not raw:
        _fail("design.strata", "expected a nonempty list of stratum objects")
    strata = []
    seen = set()
    for h, entry in enumerate(raw):
        path = f"design.strata[{h}]"
        if not isinstance(entry, dict):
            _fail(path, "expected an object")
        _no_unknown(entry, {"N", "sampled_units"}, path)
        N_h = _int(_get(entry, "N", path), f"{path}.N", minimum=2)
        units = _get(entry, "sampled_units", path)
        if not isinstance(units, list) or not units:
            _fail(f"{path}.sampled_units", "expected a nonempty list of unit ids")
        # one pass over the ids; _int words the error for the first bad one
        bad = [u for u in units if type(u) is not int or u < 0]  # type(True) is bool
        if bad:
            _int(bad[0], f"{path}.sampled_units", minimum=0)
        ids = tuple(units)
        distinct = set(ids)
        if len(distinct) != len(ids):
            _fail(f"{path}.sampled_units", "duplicate unit ids")
        if seen & distinct:
            _fail(f"{path}.sampled_units", "unit id appears in more than one stratum")
        seen |= distinct
        if len(ids) < 2:
            _fail(f"{path}.sampled_units", "need at least 2 sampled units per stratum")
        if len(ids) > N_h:
            _fail(f"{path}.sampled_units", f"{len(ids)} sampled units exceed stratum size {N_h}")
        strata.append(Stratum(N_h, ids))
    if sum(s.N for s in strata) > _INT64_MAX:
        _fail("design.strata", "total population size does not fit in 64 bits")
    return EstimateConfig(
        level, criterion, raw_candidates, seed, EstimateDesign(kind, strata=tuple(strata))
    )


def resolved_config(cfg):
    """A config record as its JSON, every default filled in: its fields
    in order, an unset (None) field left out, a tuple as a list."""
    return _json(asdict(cfg))


def _json(value):
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value


def load_json(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail(str(path), "config file not found")
    except OSError as exc:
        _fail(str(path), f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        _fail(str(path), f"config file is not valid {exc.encoding} text: {exc.reason}")
    except json.JSONDecodeError as exc:
        _fail(f"{path}:{exc.lineno}", f"invalid JSON: {exc.msg}")
