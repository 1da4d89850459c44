"""Outside-in tracer: times calls into ``disnes`` from the benchmark's side.

The tracer wraps module and class attributes at run time; nothing under
``src/`` changes.  A function bound under several names (``harness``
imports ``parse`` and ``train`` by name) is replaced at every binding, so
each call is seen once whichever module makes it.  Wrappers return the
wrapped call's result unchanged, so traced artifacts match untraced ones.

Spans (name, parent, start, end) are kept in memory for one unit of work
and folded into per-layer totals when the unit ends: a span's self time is
its duration minus the durations of its child spans, so the self times of
a unit's spans, root included, add up to the root's duration.  The root's
self time is the part of the unit no hook covers.

A hook whose target no longer exists (say after a refactor removes
``_weights``) is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

ROOT = "trace.root"


def _span(tracer, metric, fn):
    return tracer.span(metric, fn)


def _eval_batch(tracer, metric, fn):
    """Span plus ``sketch.evals``: the size of each returned batch."""
    timed = tracer.span(metric, fn)

    @functools.wraps(fn)
    def eval_batch(*args, **kwargs):
        out = timed(*args, **kwargs)
        tracer.count("sketch.evals", int(getattr(out, "size", 0)))
        return out
    return eval_batch


def _fitness(tracer, metric, fn):
    """Span plus the members and non-finite fitnesses the estimator saw."""
    timed = tracer.span(metric, fn)

    @functools.wraps(fn)
    def population(*args, **kwargs):
        from_estimator = tracer.parent_name() == "estimator.evaluate"
        fits = timed(*args, **kwargs)
        if from_estimator:
            arr = np.asarray(fits)
            tracer.count("estimator.members", int(arr.size))
            tracer.count("estimator.nonfinite",
                         int(arr.size - np.isfinite(arr).sum()))
        return fits
    return population


def _estimate(tracer, metric, fn):
    """Span plus the count of estimates flagged degenerate."""
    timed = tracer.span(metric, fn)

    @functools.wraps(fn)
    def estimate(*args, **kwargs):
        result = timed(*args, **kwargs)
        if hasattr(result, "degenerate"):
            tracer.count("estimator.degenerate", int(result.degenerate))
        else:
            tracer.absent.add("estimator.degenerate")
        return result
    return estimate


def _weights(tracer, metric, fn):
    """One span per weight kind: ``estimator.weights_<kind>``."""
    by_kind = {k: tracer.span(f"{metric}_{k}", fn) for k in WEIGHTS_KINDS}

    @functools.wraps(fn)
    def weights(params, xs, kind, *args, **kwargs):
        return by_kind.get(kind, fn)(params, xs, kind, *args, **kwargs)
    return weights


def _transform_for(tracer, metric, fn):
    """Times the transform ``fn`` returns, not the lookup itself."""
    @functools.wraps(fn)
    def transform_for(*args, **kwargs):
        transform = fn(*args, **kwargs)
        if transform is None:
            return None
        return tracer.span(metric, transform)
    return transform_for


def _log_record(tracer, metric, fn):
    """Counts the parameter arrays each ``LogRecord`` keeps."""
    @functools.wraps(fn)
    def init(record, *args, **kwargs):
        fn(record, *args, **kwargs)
        tracer.count(metric, len(getattr(record, "params", ()) or ()))
    return init


# (metric, target, factory): a target is "module:attribute" or
# "module:Class.attr", and ``factory(tracer, metric, original)`` returns its
# wrapper.  Several targets may feed one metric.  The metric names follow
# the layers, which are the modules of the package.
WEIGHTS_KINDS = ("natural", "search", "vo")
_FAMILIES = ("BernoulliParams", "CategoricalParams", "GaussianParams")
HOOKS = (
    ("cli.main", "disnes.cli:main", _span),
    ("harness.run_single", "disnes.harness:run_single", _span),
    ("harness.write_csv", "disnes.optimizer:TrainingLog.write_csv", _span),
    ("harness.params_json", "disnes.harness:params_to_json", _span),
    ("harness.summary", "disnes.harness:emit_summary", _span),
    ("optimizer.train", "disnes.optimizer:train", _span),
    ("optimizer.sgd_step", "disnes.optimizer:sgd_step", _span),
    ("optimizer.check_finite", "disnes.optimizer:_check_finite", _span),
    ("optimizer.transform", "disnes.optimizer:_transform_for",
     _transform_for),
    ("optimizer.logged_params", "disnes.optimizer:LogRecord.__init__",
     _log_record),
    ("estimator.estimate", "disnes.estimator:estimate_gradient", _estimate),
    ("estimator.sample", "disnes.estimator:sample_population", _span),
    ("estimator.evaluate", "disnes.estimator:evaluate_fitnesses", _span),
    ("estimator.weights", "disnes.estimator:_weights", _weights),
    ("sketch.parse", "disnes.sketch:parse", _span),
    ("sketch.eval_batch", "disnes.sketch:eval_batch", _eval_batch),
    ("sketch.fitness", "disnes.sketch:SpecFitness.population", _fitness),
    ("sketch.render", "disnes.sketch:render", _span),
) + tuple(
    (metric, f"disnes.distributions:{family}.{method}", _span)
    for metric, methods in (
        ("distributions.sample", ("sample",)),
        ("distributions.score", ("score", "natural_score", "prob_gradient")),
        ("distributions.stepped", ("stepped",)),
        ("distributions.entropy", ("entropy",)),
    )
    for family in _FAMILIES
    for method in methods
)

# Metrics a missing hook leaves without data, when not its own name.
_ABSENT_AS = {"estimator.weights": [f"estimator.weights_{k}"
                                    for k in WEIGHTS_KINDS]}

# Counters kept beside the spans; each is absent when a hook feeding it is.
COUNTERS = {
    "sketch.evals": ("sketch.eval_batch",),
    "estimator.members": ("sketch.fitness", "estimator.evaluate"),
    "estimator.nonfinite": ("sketch.fitness", "estimator.evaluate"),
    "estimator.degenerate": ("estimator.estimate",),
    "optimizer.logged_params": ("optimizer.logged_params",),
}


def _timed(span, name=None):
    name = name or span + "_s"
    calls = name[:-len("_self_s")] if name.endswith("_self_s") else name[:-2]
    return [(name, "s", ("self", span)), (calls + "_calls", "count",
                                           ("calls", span))]


# Per-layer metrics, per traced unit of work: (name, unit, source).
LAYER_METRICS = (
    _timed("cli.main", "cli.main_self_s")
    + _timed("harness.run_single", "harness.run_single_self_s")
    + _timed("harness.write_csv") + _timed("harness.params_json")
    + _timed("harness.summary")
    + [("harness.artifact_bytes", "bytes", ("counter", "harness.artifact_bytes"))]
    + _timed("optimizer.train", "optimizer.train_self_s")
    + _timed("optimizer.sgd_step") + _timed("optimizer.transform")
    + _timed("optimizer.check_finite")
    + [("optimizer.logged_params", "count",
        ("counter", "optimizer.logged_params"))]
    + _timed("estimator.estimate") + _timed("estimator.sample")
    + _timed("estimator.evaluate")
    + [m for k in WEIGHTS_KINDS for m in _timed(f"estimator.weights_{k}")]
    + [("estimator.members", "count", ("counter", "estimator.members")),
       ("estimator.nonfinite_frac", "ratio",
        ("ratio", "estimator.nonfinite", "estimator.members")),
       ("estimator.degenerate_frac", "ratio",
        ("ratio", "estimator.degenerate", "estimator.estimate"))]
    + _timed("distributions.sample") + _timed("distributions.score")
    + _timed("distributions.stepped") + _timed("distributions.entropy")
    + _timed("sketch.parse") + _timed("sketch.eval_batch")
    + [("sketch.evals", "count", ("counter", "sketch.evals"))]
    + _timed("sketch.fitness") + _timed("sketch.render")
    + [("trace.wall_s", "s", ("trace", "wall")),
       ("trace.overhead_s", "s", ("trace", "overhead")),
       ("trace.uncovered_s", "s", ("trace", "uncovered"))]
)


def _resolve(target):
    """Return ``(owner, original)`` or None if the target is missing."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only attributes the class itself defines; an inherited one would
        # be wrapped on the wrong class
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, original


def rebind(owner, original, wrapper):
    """Swap ``original`` for ``wrapper`` in the class ``owner`` or, for a
    module-level function, at every ``disnes`` binding of it.

    Returns ``(owner, name, original)`` triples that undo the swap.
    """
    owners = [owner]
    if not isinstance(owner, type):
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "disnes" or name.startswith("disnes.")]
    undo = []
    for mod in owners:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                undo.append((mod, name, original))
    return undo


class Tracer:
    """Installs the hooks, records spans and folds them per unit."""

    def __init__(self):
        self._names = []          # metric name per name id
        self._ids = {}
        self._span_name = []      # per span: name id
        self._span_parent = []    # per span: parent span index or -1
        self._span_start = []
        self._span_end = []
        self._stack = [-1]
        self._restore = []
        self.absent = set()
        self.self_s = {}          # metric -> summed self seconds
        self.calls = {}           # metric -> summed call count
        self.counters = {}
        self.units = 0
        self.wall_s = 0.0         # summed root durations

    # -- spans ----------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self._span_start)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1])
        self._span_end.append(0.0)
        self._stack.append(idx)
        self._span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._span_end[idx] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        idx = self._stack[-1]
        return self._names[self._span_name[idx]] if idx >= 0 else None

    def span(self, name, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def run_unit(self, fn):
        """Call ``fn()`` under a root span and fold the unit's spans."""
        idx = self._open(self._id(ROOT))
        try:
            return fn()
        finally:
            self._close(idx)
            self._fold()

    def _fold(self):
        n = len(self._span_start)
        dur = np.asarray(self._span_end) - np.asarray(self._span_start)
        parent = np.asarray(self._span_parent, dtype=np.int64)
        names = np.asarray(self._span_name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        self_by_name = np.bincount(names, weights=own,
                                   minlength=len(self._names))
        calls_by_name = np.bincount(names, minlength=len(self._names))
        for nid, name in enumerate(self._names):
            if calls_by_name[nid]:
                self.self_s[name] = self.self_s.get(name, 0.0) + float(
                    self_by_name[nid])
                self.calls[name] = self.calls.get(name, 0) + int(
                    calls_by_name[nid])
        self.wall_s += float(dur[~has_parent].sum())
        self.units += 1
        for lst in (self._span_name, self._span_parent, self._span_start,
                    self._span_end):
            lst.clear()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- hooks ----------------------------------------------------------

    def install(self):
        for metric, target, factory in HOOKS:
            found = _resolve(target)
            if found is None:
                self.absent.update(_ABSENT_AS.get(metric, [metric]))
                continue
            owner, original = found
            wrapper = factory(self, metric, original)
            self._restore += rebind(owner, original, wrapper)
        if "optimizer.logged_params" not in self.absent:
            from disnes.optimizer import LogRecord
            if "params" not in getattr(LogRecord, "__dataclass_fields__", {}):
                self.absent.add("optimizer.logged_params")
        for counter, hooks in COUNTERS.items():
            if self.absent.intersection(hooks):
                self.absent.add(counter)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- report ---------------------------------------------------------

    def report(self, untraced_wall_s):
        """Per-layer metrics as ``{name: (value per unit, unit, absent)}``.

        ``untraced_wall_s`` is the mean wall time of the same unit run
        without hooks; the traced mean minus it is the tracing overhead,
        which is None when ``untraced_wall_s`` is.
        """
        n = max(self.units, 1)
        out = {}
        for name, unit, source in LAYER_METRICS:
            kind, key = source[0], source[1]
            absent = False
            if kind == "self":
                value = self.self_s.get(key, 0.0) / n
                absent = key in self.absent
            elif kind == "calls":
                value = self.calls.get(key, 0) / n
                absent = key in self.absent
            elif kind == "counter":
                value = self.counters.get(key, 0) / n
                absent = key in self.absent
            elif kind == "ratio":
                den_absent = source[2] in self.absent
                den = self.counters.get(source[2], self.calls.get(source[2], 0))
                value = self.counters.get(key, 0) / den if den else 0.0
                absent = key in self.absent or den_absent
            elif key == "wall":
                value = self.wall_s / n
            elif key == "overhead":
                value = (None if untraced_wall_s is None
                         else self.wall_s / n - untraced_wall_s)
            else:
                value = self.self_s.get(ROOT, 0.0) / n
            out[name] = (0.0 if absent else value, unit, absent)
        return out
