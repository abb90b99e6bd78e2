"""JSON configuration for studies and single-dataset estimation.

A config record nests as its JSON file does. A StudyConfig holds the
top-level fields, a Population record (the finite-population and
response model) and a StudyDesign record (the sampling design). An
EstimateConfig holds an EstimateDesign record, whose stratified form is
a tuple of Stratum records. A field that its design kind does not use is
None. Each JSON key is one record field, holding the key's default and
reader (_field); _read walks the fields, parse_*_config checks across.

Parsing is strict: unknown keys, wrong types, and inconsistent sizes are
all ConfigError with the offending field path, so the CLI can print a
pointed diagnostic. resolved_config, the echo with every default filled
in, is the record written out as JSON, a valid config that parses back
to an equal record.
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

from .design import stratum_sizes
from .errors import ConfigError
from .population import COVARIATE_LAWS
from .selection import parse_criterion

DEFAULT_CRITERIA = ("aic", "bic", "cv5")
_INT64_MAX = 2**63 - 1  # population sizes are held as int64


def _fail(path, msg):
    raise ConfigError(path, msg)


def _walk(obj, path, specs):
    """{key: value} of the JSON object obj at path, by specs, a {key:
    (default, read)} in reading order: a key not in specs is refused, a
    key whose default is MISSING is required, a present value is
    read(value, its path) and an absent one takes its default."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object" if path else "top-level config must be a JSON object")
    extra = sorted(set(obj).difference(specs))
    if extra:
        _fail(f"{path}.{extra[0]}" if path else extra[0], "unknown field")
    out = {}
    for key, (default, read) in specs.items():
        at = f"{path}.{key}" if path else key
        if key in obj:
            out[key] = read(obj[key], at)
        elif default is MISSING:
            _fail(at, "missing required field")
        else:
            out[key] = default
    return out


def _read(cls, obj, path=""):
    """The config record cls read off its JSON object obj at path, each
    field by the reader that _field stored (see _walk)."""
    return cls(**_walk(obj, path, {f.name: (f.default, f.metadata["read"]) for f in fields(cls)}))


def _field(read, default=MISSING, only=None):
    """A record field whose JSON value read(value, path) checks and
    converts; required unless it has a default. A field that only the
    design kind `only` uses defaults to None, and parse_*_config refuses
    it under any other kind (_check_kind)."""
    return field(default=None if only else default, metadata={"read": read, "only": only})


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


def _numlist(value, path):
    if not isinstance(value, list):
        _fail(path, "expected a list of numbers")
    return tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(value))


def _list(value, path, read, what):
    if not isinstance(value, list) or not value:
        _fail(path, f"expected a nonempty list of {what}")
    return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))


def _length(values, length, path):
    if len(values) != length:
        _fail(path, f"expected length {length}, got {len(values)}")


def _fraction(value, path, closed=False):
    v = _num(value, path)
    if not (0.0 <= v <= 1.0 if closed else 0.0 < v < 1.0):
        _fail(path, f"must be in {'[0, 1]' if closed else '(0, 1)'}, got {v}")
    return v


def _kind(value, path):
    if _str(value, path) not in ("srswor", "stratified"):
        _fail(path, f"expected 'srswor' or 'stratified', got {value!r}")
    return value


def _criterion(value, path):
    try:
        parse_criterion(_str(value, path))
    except ValueError as exc:
        _fail(path, str(exc))
    return value


def _criteria(value, path):
    crits = _list(value, path, _criterion, "criterion names")
    if len(set(crits)) != len(crits):
        _fail(path, "duplicate criteria")
    return crits


def _parse_covariate_law(obj, path):
    """A covariate law: its name, then the parameters that
    COVARIATE_LAWS lists for it, required where the listed default is
    None."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if "name" not in obj:
        _fail(f"{path}.name", "missing required field")
    name = _str(obj["name"], f"{path}.name")
    if name not in COVARIATE_LAWS:
        _fail(f"{path}.name", f"unknown law {name!r}; expected one of {sorted(COVARIATE_LAWS)}")
    law = _walk(obj, path, {"name": (MISSING, _str), **{
        key: (MISSING if default is None else default, _num)
        for key, default in COVARIATE_LAWS[name].items()}})
    if name == "gamma" and (law["shape"] <= 0 or law["scale"] <= 0):
        _fail(path, "gamma shape and scale must be positive")
    if name == "normal" and law["scale"] < 0:
        _fail(f"{path}.scale", "must be >= 0")
    if name == "uniform" and law["high"] < law["low"]:
        _fail(path, "uniform needs high >= low")
    if name == "uniform" and not math.isfinite(law["high"] - law["low"]):
        _fail(path, "uniform needs a finite high - low")
    return law


def _parse_candidates(value, path):
    if value == "nested":
        return value
    if not isinstance(value, list) or not value:
        _fail(path, 'expected "nested" or a nonempty list of index lists')
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or not entry:
            _fail(f"{path}[{i}]", "expected a nonempty list of covariate indices")
        out.append(tuple(sorted({_int(j, f"{path}[{i}]", minimum=1) for j in entry})))
    if len(set(out)) != len(out):
        _fail(path, "duplicate candidate models")
    return tuple(out)


def check_candidates(candidates, p):
    """Refuse, at its candidates[i] path, the first candidate model
    that names a covariate index beyond p."""
    if candidates != "nested":
        for i, idx in enumerate(candidates):
            if idx[-1] > p:
                _fail(f"candidates[{i}]", f"covariate index {idx[-1]} exceeds p={p}")


def _unit_ids(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of unit ids")
    # one pass over the ids; _int words the error for the first bad one
    bad = [u for u in value if type(u) is not int or u < 0]  # type(True) is bool
    if bad:
        _int(bad[0], path, minimum=0)
    if len(set(value)) != len(value):
        _fail(path, "duplicate unit ids")
    return tuple(value)


@dataclass(frozen=True, kw_only=True)
class Population:
    N: int = _field(partial(_int, minimum=1))
    p: int = _field(partial(_int, minimum=1))
    covariate_law: dict = _field(_parse_covariate_law)
    beta: tuple = _field(_numlist)  # length p + 1, intercept first
    sigma: float = _field(partial(_num, minimum=0.0))
    response_offset: float = _field(_num)
    response_scale: float = _field(_num)
    response_coefs: tuple = _field(_numlist)  # length p


@dataclass(frozen=True, kw_only=True)
class StudyDesign:
    kind: str = _field(_kind)  # "srswor" or "stratified"
    n: int = _field(partial(_int, minimum=1))
    sort_coefs: tuple = _field(_numlist, only="stratified")
    alloc_covariate: int = _field(partial(_int, minimum=1), only="stratified")
    fractions: tuple = _field(_numlist, only="stratified")


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    name: str = _field(_str, "study")
    replications: int = _field(partial(_int, minimum=1))
    master_seed: int = _field(partial(_int, minimum=0))
    level: float = _field(_fraction, 0.95)
    criteria: tuple = _field(_criteria, DEFAULT_CRITERIA)
    candidates: object = _field(_parse_candidates, "nested")  # or a tuple of index tuples
    failure_threshold: float = _field(partial(_fraction, closed=True), 0.05)
    population: Population = _field(partial(_read, Population))
    design: StudyDesign = _field(partial(_read, StudyDesign))


def _check_kind(design):
    """Refuse, in field order, a design record field of another kind that
    is set, or one of its own kind that is not (see _field)."""
    for f in fields(design):
        only, unset = f.metadata["only"], getattr(design, f.name) is None
        if only and (only == design.kind) == unset:
            _fail(f"design.{f.name}", "missing required field" if unset else "unknown field")


def parse_study_config(obj):
    cfg = _read(StudyConfig, obj)
    pop, design = cfg.population, cfg.design
    N, p = pop.N, pop.p
    if N * p * 8 > _INT64_MAX:
        _fail("population.N", f"an N x p = {N} x {p} population of 8-byte values "
              "does not fit in 64-bit memory")
    _length(pop.beta, p + 1, "population.beta")
    _length(pop.response_coefs, p, "population.response_coefs")
    if design.n > N:
        _fail("design.n", f"sample size {design.n} exceeds population size {N}")
    _check_kind(design)
    if design.kind == "stratified":
        H = len(design.fractions)
        _length(design.sort_coefs, p, "design.sort_coefs")
        if design.alloc_covariate > p:
            _fail("design.alloc_covariate", f"index {design.alloc_covariate} exceeds p={p}")
        if H < 1:
            _fail("design.fractions", "need at least one stratum")
        try:
            stratum_sizes(N, design.fractions)
        except ValueError as exc:
            _fail("design.fractions", str(exc))
        if design.n < 2 * H:
            _fail("design.n", f"need at least 2 units per stratum, n={design.n} with {H} strata")
    check_candidates(cfg.candidates, p)
    return cfg


@dataclass(frozen=True, kw_only=True)
class Stratum:
    N: int = _field(partial(_int, minimum=2))
    sampled_units: tuple = _field(_unit_ids)


@dataclass(frozen=True, kw_only=True)
class EstimateDesign:
    kind: str = _field(_kind)  # "srswor" or "stratified"
    N: int = _field(partial(_int, minimum=1), only="srswor")
    strata: tuple = _field(partial(_list, read=partial(_read, Stratum), what="stratum objects"),
                           only="stratified")


@dataclass(frozen=True, kw_only=True)
class EstimateConfig:
    level: float = _field(_fraction, 0.95)
    criterion: str = _field(_criterion)
    # the covariate count is known only once the data file is read, so
    # cmd_estimate checks the index bound (check_candidates)
    candidates: object = _field(_parse_candidates, "nested")
    master_seed: int = _field(partial(_int, minimum=0), 0)  # only consumed by cv fold splitting
    design: EstimateDesign = _field(partial(_read, EstimateDesign))


def parse_estimate_config(obj):
    cfg = _read(EstimateConfig, obj)
    design = cfg.design
    _check_kind(design)
    if design.kind == "srswor":
        if design.N > _INT64_MAX:
            _fail("design.N", "does not fit in 64 bits")
        return cfg
    seen, count = set(), 0
    for h, stratum in enumerate(design.strata):
        path, ids = f"design.strata[{h}].sampled_units", stratum.sampled_units
        seen.update(ids)  # each stratum's ids are distinct (_unit_ids)
        count += len(ids)
        if len(seen) < count:
            _fail(path, "unit id appears in more than one stratum")
        if len(ids) < 2:
            _fail(path, "need at least 2 sampled units per stratum")
        if len(ids) > stratum.N:
            _fail(path, f"{len(ids)} sampled units exceed stratum size {stratum.N}")
    if sum(s.N for s in design.strata) > _INT64_MAX:
        _fail("design.strata", "total population size does not fit in 64 bits")
    return cfg


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
