"""In-process tracing by rebinding public names.

Each entry of BINDINGS names a module attribute that the package looks
up at call time (a function imported into, or defined in, the module
that calls it). Installing the tracer replaces that attribute with a
wrapper that records one span per call: name, start, end, parent span,
and the id of the operation it belongs to (one replication, or one CLI
call outside any replication). Nothing under src/ changes.

A binding whose attribute no longer exists is reported as absent, so a
refactor that folds a function away drops its metric instead of
breaking the run.

Which end-to-end metric each layer should move, and where:
  population, loss, study      op_ms_p50 on both studies only
  design.draw                  op_ms_p50 on study_stratified
  design.joint_matrix, v1_hat  op_ms_p50 and peak_rss_mb on estimate_large,
                               a little op_ms_p50 on both studies
  estimators, selection        op_ms_p50 on both studies; little on
                               estimate_large (21 fits per call)
  cli.read_estimate_csv,       op_ms_p50 on estimate_large
  build_estimate_design
  config.parse                 setup_s
"""

import importlib
import json
import statistics
import time
import tracemalloc

# (module, attribute, span name). One function may be bound in several
# modules: every call site that looks it up through its own globals.
BINDINGS = (
    ("survey_impute.cli", "main", "cli.main"),
    ("survey_impute.cli", "read_estimate_csv", "cli.read_estimate_csv"),
    ("survey_impute.cli", "build_estimate_design", "cli.build_estimate_design"),
    ("survey_impute.cli", "load_json", "config.parse"),
    ("survey_impute.cli", "parse_study_config", "config.parse"),
    ("survey_impute.cli", "parse_estimate_config", "config.parse"),
    ("survey_impute.cli", "summary_to_csv", "study.write_csv"),
    ("survey_impute.cli", "reps_to_csv", "study.write_csv"),
    ("survey_impute.cli", "estimate_with_inference", "variance.estimate_with_inference"),
    ("survey_impute.study", "run_replication", "study.run_replication"),
    ("survey_impute.study", "summarize", "study.summarize"),
    ("survey_impute.study", "generate_population", "population.generate_population"),
    ("survey_impute.study", "draw_srswor", "design.draw"),
    ("survey_impute.study", "draw_stratified", "design.draw"),
    ("survey_impute.study", "imputed_mean", "estimators.imputed_mean"),
    ("survey_impute.study", "loss_closed_form", "loss.loss_closed_form"),
    ("survey_impute.study", "estimate_with_inference", "variance.estimate_with_inference"),
    ("survey_impute.variance", "select", "selection.select"),
    ("survey_impute.variance", "imputed_mean", "estimators.imputed_mean"),
    ("survey_impute.variance", "c_hat", "variance.c_hat"),
    ("survey_impute.variance", "eta_hat", "variance.eta_hat"),
    ("survey_impute.variance", "v1_hat", "variance.v1_hat"),
    ("survey_impute.variance", "v2_hat", "variance.v2_hat"),
    ("survey_impute.variance", "joint_matrix", "design.joint_matrix"),
    ("survey_impute.selection", "make_folds", "selection.make_folds"),
    ("survey_impute.selection", "fit_ols", "estimators.fit_ols"),
    ("survey_impute.estimators", "fit_ols", "estimators.fit_ols"),
)

LAYERS = ("population", "design", "estimators", "selection", "loss",
          "variance", "study", "cli", "config")

# span: [name, op_id, parent index, start ns, end ns, extra dict]; extra
# stays None when the call raised, and such a span adds no extra figure
NAME, OP, PARENT, START, END, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_op = 0
        self._saved = []
        self.absent = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or name == "study.run_replication":
                op = self._next_op
                self._next_op += 1
            else:
                op = spans[parent][OP]
            rec = [name, op, parent, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            observe = _OBSERVERS.get(name)
            rec[START] = time.perf_counter_ns()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                result, rec[EXTRA] = observe(fn, args, kwargs)
                return result
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, name in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "op": s[OP], "parent": s[PARENT],
                    "start_ns": s[START], "end_ns": s[END], "extra": s[EXTRA],
                }) + "\n")


def _observe_select(fn, args, kwargs):
    result = fn(*args, **kwargs)
    # select returns (model, scores); read the scores only if it still does
    scores = result[1] if isinstance(result, tuple) and len(result) == 2 else ()
    unscorable = sum(1 for s in scores if getattr(s, "score", None) == float("inf"))
    criterion = args[0] if args else kwargs.get("criterion", "unknown")
    return result, {"criterion": criterion, "scored": len(scores), "unscorable": unscorable}


def _observe_v1(fn, args, kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"peak_bytes": peak}


def _observe_joint(fn, args, kwargs):
    result = fn(*args, **kwargs)
    # bytes of the matrix the call returns, from its shape: computed,
    # not measured memory traffic
    return result, {"bytes": getattr(result, "nbytes", 0)}


_OBSERVERS = {
    "selection.select": _observe_select,
    "variance.v1_hat": _observe_v1,
    "design.joint_matrix": _observe_joint,
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def summarize_spans(spans, n_ops):
    """Per-layer metrics from the spans of a traced run.

    n_ops is the number of operations (replications, or estimate calls)
    the per-op figures are divided by. Every metric is present; a layer
    the workload never called reads 0.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]

    by_name = {}
    self_by_layer = dict.fromkeys(LAYERS, 0)
    total_ns = 0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        by_name.setdefault(s[NAME], []).append((dur, dur - child_ns[i], s))
        self_by_layer[s[NAME].split(".", 1)[0]] += dur - child_ns[i]
        if s[PARENT] is None:
            total_ns += dur

    def ms(name):
        return [d / 1e6 for d, _, _ in by_name.get(name, ())]

    def per_op(name):
        return sum(ms(name)) / n_ops if n_ops else 0.0

    n_calls = len(by_name.get("cli.main", ()))

    def per_call(name):
        """Total per CLI call: some names are bound twice (load_json and
        parse_*_config are both config parsing)."""
        return sum(ms(name)) / n_calls if n_calls else 0.0

    def calls_per_op(name):
        counts = {}
        for _, _, s in by_name.get(name, ()):
            counts[s[OP]] = counts.get(s[OP], 0) + 1
        return float(_median(list(counts.values()))) if counts else 0.0

    selects = by_name.get("selection.select", ())
    select_ms = {"aic": [], "bic": [], "cv": []}
    scored = unscorable = 0
    for d, _, s in selects:
        if s[EXTRA] is None:
            continue
        crit = s[EXTRA]["criterion"]
        select_ms.setdefault("cv" if crit.startswith("cv") else crit, []).append(d / 1e6)
        scored += s[EXTRA]["scored"]
        unscorable += s[EXTRA]["unscorable"]
    rep_ms = ms("study.run_replication")
    joint = [s for _, _, s in by_name.get("design.joint_matrix", ()) if s[EXTRA] is not None]
    v1 = [s for _, _, s in by_name.get("variance.v1_hat", ()) if s[EXTRA] is not None]

    m = {
        "population.generate_population.ms_per_rep": (per_op("population.generate_population"), "ms"),
        "design.draw.ms_per_rep": (per_op("design.draw"), "ms"),
        "design.joint_matrix.ms": (_median(ms("design.joint_matrix")), "ms"),
        "design.joint_matrix.calls": (calls_per_op("design.joint_matrix"), "count"),
        "design.joint_matrix.mb_computed": (
            _median([s[EXTRA]["bytes"] / 1e6 for s in joint]), "MB"),
        "estimators.fit_ols.calls_per_rep": (calls_per_op("estimators.fit_ols"), "count"),
        "estimators.fit_ols.ms_per_rep": (per_op("estimators.fit_ols"), "ms"),
        "estimators.imputed_mean.ms_per_rep": (per_op("estimators.imputed_mean"), "ms"),
        "selection.aic.ms": (_median(select_ms["aic"]), "ms"),
        "selection.bic.ms": (_median(select_ms["bic"]), "ms"),
        "selection.cv.ms": (_median(select_ms["cv"]), "ms"),
        "selection.make_folds.ms_per_rep": (per_op("selection.make_folds"), "ms"),
        "selection.unscorable_pct": (100.0 * unscorable / scored if scored else 0.0, "%"),
        "loss.loss_closed_form.ms_per_rep": (per_op("loss.loss_closed_form"), "ms"),
        "loss.loss_closed_form.calls_per_rep": (calls_per_op("loss.loss_closed_form"), "count"),
        "variance.estimate_with_inference.ms": (_median(ms("variance.estimate_with_inference")), "ms"),
        "variance.v1_hat.ms": (_median(ms("variance.v1_hat")), "ms"),
        "variance.v1_hat.peak_mb": (_median([s[EXTRA]["peak_bytes"] / 1e6 for s in v1]), "MB"),
        "variance.c_hat.ms": (_median(ms("variance.c_hat")), "ms"),
        "variance.eta_hat.ms": (_median(ms("variance.eta_hat")), "ms"),
        "variance.v2_hat.ms": (_median(ms("variance.v2_hat")), "ms"),
        "study.run_replication.ms_p50": (_median(rep_ms), "ms"),
        "study.run_replication.ms_p95": (quantile(rep_ms, 0.95), "ms"),
        "study.run_replication.self_ms": (
            _median([own / 1e6 for _, own, _ in by_name.get("study.run_replication", ())]), "ms"),
        "study.summarize.ms": (per_call("study.summarize"), "ms"),
        "study.write_csv.ms": (per_call("study.write_csv"), "ms"),
        "cli.read_estimate_csv.ms": (per_call("cli.read_estimate_csv"), "ms"),
        "cli.build_estimate_design.ms": (per_call("cli.build_estimate_design"), "ms"),
        "config.parse.ms": (per_call("config.parse"), "ms"),
    }
    for layer in LAYERS:
        share = 100.0 * self_by_layer[layer] / total_ns if total_ns else 0.0
        m[f"{layer}.self_pct"] = (share, "%")
    # select's own self time excludes the fits it makes, which are
    # estimators work; this share includes them
    select_ns = sum(d for d, _, _ in selects)
    m["selection.incl_pct"] = (100.0 * select_ns / total_ns if total_ns else 0.0, "%")
    idle = sorted({name for _, _, name in BINDINGS} - set(by_name))
    return m, idle
