"""Span recording from outside the program, and the per-layer analysis.

`Tracer.install()` replaces the public functions each xplain layer exposes,
under the names their callers look them up by, with wrappers that record a
span per call: name, start, end, thread, parent span and a few attributes.
Spans stay in memory until the run ends. `analyze()` turns a span list into
the per-layer metrics that BENCHMARK.json names.

A layer's self time is the wall-clock time during which one of its spans is
the innermost running span. When k innermost spans run at once on different
threads, each gets 1/k of that interval, so the self times of all layers sum
to the root span's duration.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("data", "models", "explainers", "groundtruth", "evaluation", "cli")
TECHNIQUES = ("lime", "shap", "lpi")
MODELS = ("lr", "gnb")

# span record fields
ID, PARENT, NAME, THREAD, START, END, ATTRS = range(7)


class Tracer:
    """Records spans around xplain's layer entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count()  # next() is atomic under the GIL
        # parent for spans opened on pool threads, which start with an empty stack
        self._pool_parent: int | None = None

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][ID] if stack else self._pool_parent
        span = [next(self._ids), parent, name, threading.get_ident(), time.perf_counter(), None, None]
        stack.append(span)
        return span

    def _close(self, span: list, attrs: dict | None):
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._local.stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, attrs_of=None, pool_parent: bool = False,
             cpu: bool = False):
        """fn wrapped in a span; attrs_of(args, kwargs, result) adds attributes,
        and cpu=True adds the calling thread's CPU seconds as attribute "cpu"."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            if pool_parent:
                outer, self._pool_parent = self._pool_parent, span[ID]
            cpu_start = time.thread_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[NAME] += "!error"  # keeps its layer, leaves the named metrics
                self._close(span, None)
                raise
            finally:
                if pool_parent:
                    self._pool_parent = outer
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            if cpu:
                attrs["cpu"] = time.thread_time() - cpu_start
            self._close(span, attrs or None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch xplain's modules; callers resolve these names at call time."""
        from xplain import cli, data, evaluation, explainers, models

        def dataset_attrs(args, kwargs, result):
            return {"rows": int(result.X_train.shape[0] + result.X_test.shape[0]),
                    "columns": int(result.n_features)}

        def fit_attrs(args, kwargs, result):
            return {"iterations": int(result.iterations)}

        def score_attrs(args, kwargs, result):
            model, x = args[0], args[1]
            return {"model": model.kind, "rows": int(x.shape[0]) if x.ndim == 2 else 1}

        def explain_attrs(args, kwargs, result):
            technique, model, dataset = args[0], args[2], args[4]
            attrs = {"technique": technique, "model": model.kind}
            if technique == explainers.SHAP:
                attrs["exact"] = dataset.n_features <= explainers.EXACT_SHAP_LIMIT
                attrs["coalitions"] = int(result.sample_count)
            return attrs

        patches = [
            (data, "load_dataset", "data.load_dataset", {"attrs_of": dataset_attrs}),
            (data, "preprocess_dataset", "data.preprocess_dataset", {}),
            (models, "train_logistic", "models.train_logistic", {}),
            (models, "fit_logistic", "models.fit_logistic", {"attrs_of": fit_attrs}),
            (models, "train_gnb", "models.train_gnb", {}),
            (explainers, "predict_logodds", "models.predict_logodds", {"attrs_of": score_attrs}),
            (explainers, "predict_proba", "models.predict_proba", {"attrs_of": score_attrs}),
            (evaluation, "explain", "explainers.explain", {"attrs_of": explain_attrs}),
            (evaluation, "ground_truth", "groundtruth.ground_truth", {}),
            (cli, "ground_truth", "groundtruth.ground_truth", {}),
            (evaluation, "spearman", "evaluation.spearman", {}),
            (evaluation, "evaluate_instance", "evaluation.evaluate_instance", {"cpu": True}),
            (cli, "evaluate_dataset", "evaluation.evaluate_dataset", {"pool_parent": True}),
            (cli, "rank_techniques", "evaluation.rank_techniques", {}),
        ]
        for module, attr, name, options in patches:
            setattr(module, attr, self.wrap(name, getattr(module, attr), **options))



def self_times(spans: list[list]) -> dict[int, float]:
    """Wall-clock self time per span id, shared 1/k among k concurrent leaves."""
    events = []
    for s in spans:
        events.append((s[START], 1, s[ID]))
        events.append((s[END], 0, s[ID]))
    events.sort()  # ends sort before starts at equal times; parents before children
    parent = {s[ID]: s[PARENT] for s in spans}
    running: set[int] = set()
    running_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            running.add(sid)
            leaves.add(sid)
            if p in running:
                running_children[p] += 1
                leaves.discard(p)
        else:
            running.discard(sid)
            leaves.discard(sid)
            if p in running:
                running_children[p] -= 1
                if running_children[p] == 0:
                    leaves.add(p)
    return out


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# units of metrics that count work; they must repeat exactly for one seed
COUNTER_UNITS = ("count", "rows/expl")


def analyze(spans: list[list], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run's spans."""
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    named: dict[str, list[list]] = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        named[s[NAME]].append(s)
        layer_self[s[NAME].split(".", 1)[0]] += own.get(s[ID], 0.0)

    def busy(name: str) -> float:
        return sum(s[END] - s[START] for s in named[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s[ATTRS][key] for s in named[name])

    m: dict[str, tuple[float, str]] = {}
    m["data.load_s"] = (busy("data.load_dataset"), "s")
    m["data.preprocess_s"] = (busy("data.preprocess_dataset"), "s")
    m["data.rows"] = (attr_sum("data.load_dataset", "rows"), "count")
    m["data.encoded_columns"] = (attr_sum("data.load_dataset", "columns"), "count")
    m["data.self_s"] = (layer_self["data"], "s")

    m["models.train_logistic_s"] = (busy("models.train_logistic"), "s")
    m["models.fit_logistic_calls"] = (len(named["models.fit_logistic"]), "count")
    m["models.fit_logistic_iters"] = (attr_sum("models.fit_logistic", "iterations"), "count")
    m["models.train_gnb_s"] = (busy("models.train_gnb"), "s")
    scores = named["models.predict_logodds"] + named["models.predict_proba"]
    for kind in MODELS:
        mine = [s for s in scores if s[ATTRS]["model"] == kind]
        seconds = sum(s[END] - s[START] for s in mine)
        rows = sum(s[ATTRS]["rows"] for s in mine)
        m[f"models.score_s.{kind}"] = (seconds, "s")
        m[f"models.rows_scored.{kind}"] = (rows, "count")
        m[f"models.rows_per_s.{kind}"] = (rows / seconds if seconds > 0 else 0.0, "rows/s")
    m["models.self_s"] = (layer_self["models"], "s")

    # rows scored under each explanation, attributed to its nearest explain span
    rows_under: dict[int, int] = defaultdict(int)
    for s in scores:
        p = s[PARENT]
        while p is not None and by_id[p][NAME] != "explainers.explain":
            p = by_id[p][PARENT]
        if p is not None:
            rows_under[p] += s[ATTRS]["rows"]
    explains = named["explainers.explain"]
    for technique in TECHNIQUES:
        for kind in MODELS:
            cell = [s for s in explains
                    if s[ATTRS]["technique"] == technique and s[ATTRS]["model"] == kind]
            ms = [(s[END] - s[START]) * 1e3 for s in cell]
            key = f"explainers.{technique}.{kind}"
            m[f"{key}.n"] = (len(cell), "count")
            m[f"{key}.ms_p50"] = (percentile(ms, 50.0), "ms")
            m[f"{key}.ms_tail"] = (percentile(ms, tail_percentile(len(ms))), "ms")
            m[f"{key}.self_s"] = (sum(own.get(s[ID], 0.0) for s in cell), "s")
            rows = sum(rows_under[s[ID]] for s in cell)
            m[f"{key}.rows_per_explanation"] = (rows / len(cell) if cell else 0.0, "rows/expl")
    shap = [s for s in explains if s[ATTRS]["technique"] == "shap"]
    m["explainers.shap.exact_calls"] = (sum(s[ATTRS]["exact"] for s in shap), "count")
    m["explainers.shap.sampled_calls"] = (sum(not s[ATTRS]["exact"] for s in shap), "count")
    m["explainers.shap.coalitions"] = (sum(s[ATTRS]["coalitions"] for s in shap), "count")
    m["explainers.self_s"] = (layer_self["explainers"], "s")

    evaluate_s = busy("evaluation.evaluate_dataset")
    m["evaluation.evaluate_dataset_s"] = (evaluate_s, "s")
    m["evaluation.spearman_s"] = (busy("evaluation.spearman"), "s")
    # busy = CPU time of the thread running each explanation, so time spent
    # waiting for the interpreter lock does not count as useful work
    instance_cpu_s = attr_sum("evaluation.evaluate_instance", "cpu")
    m["evaluation.parallel_efficiency"] = (
        instance_cpu_s / (workers * evaluate_s) if evaluate_s > 0 else 0.0, "ratio")
    m["evaluation.self_s"] = (layer_self["evaluation"], "s")
    m["groundtruth.s"] = (layer_self["groundtruth"], "s")
    m["cli.self_s"] = (layer_self["cli"], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.layer_self_sum_s"] = (sum(layer_self.values()), "s")
    return m
