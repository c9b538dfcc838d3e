"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps every public function defined in the eight epinet
modules and rebinds the wrapper in every ``epinet.*`` namespace that holds
the original, so calls made through a ``from .x import y`` name are traced
too.  Each call records a span (id, parent id, name, request, start, end) in
memory; ``write_spans`` writes them out once the pass is over.  A layer's self
time is its span's duration minus the time covered by its child spans.

``PER_LAYER`` names the figures reported by a traced run, as
``<module>.<function>.<stat>`` or ``<module>.self_s`` for a whole module.  A
named function that no longer exists is listed in ``Tracer.absent`` and its
figures read 0.  ``trace.overhead_s`` is the time the wrappers added to the
pass: the measured cost of one wrapped call times the number of wrapped calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import operator
import statistics
import sys
import time

PACKAGE = "epinet"
LAYERS = ("cli", "netmodel", "exact", "spectral", "stability", "ensembles",
          "simulate", "oracle")

# (name, unit, better).  Computed figures (flops, bytes) come from argument
# and result shapes, not from counters inside the library.
PER_LAYER = (
    ("spectral.spectral_abscissa.calls", "count", "lower"),
    ("spectral.spectral_abscissa.self_s", "s", "lower"),
    ("spectral.spectral_abscissa.max_dim", "rows", "lower"),
    ("spectral.spectral_abscissa.flops", "flop", "lower"),
    ("exact.assemble_stability_matrix.self_s", "s", "lower"),
    ("exact.stability_matrix_bytes", "B", "lower"),
    ("exact.build_joint_chain.calls", "count", "lower"),
    ("exact.build_joint_chain.self_s", "s", "lower"),
    ("exact.mean_stability_abscissa.self_s", "s", "lower"),
    ("exact.expected_lambda_max.calls", "count", "lower"),
    ("exact.expected_lambda_max.calls_per_verdict", "ratio", "lower"),
    ("ensembles.power_law_degrees.calls", "count", "lower"),
    ("ensembles.power_law_degrees.self_s", "s", "lower"),
    ("spectral.lambda_max_iterative.calls", "count", "lower"),
    ("spectral.lambda_max_iterative.self_s", "s", "lower"),
    ("spectral.lambda_max_iterative.iterations", "count", "lower"),
    ("spectral.lambda_max_iterative.converged", "count", "higher"),
    ("stability.pair_probability_violations.calls", "count", "lower"),
    ("stability.pair_probability_violations.self_s", "s", "lower"),
    ("stability.expected_degree_uncertainty.self_s", "s", "lower"),
    ("ensembles.expected_degree_stats.self_s", "s", "lower"),
    ("ensembles.community_stats.self_s", "s", "lower"),
    ("stability.check_expected_degrees.self_s", "s", "lower"),
    ("stability.minimize_penalty.calls", "count", "lower"),
    ("stability.minimize_penalty.self_s", "s", "lower"),
    ("stability.concentration_penalty.calls", "count", "lower"),
    ("simulate.estimate_decay.calls", "count", "lower"),
    ("simulate.estimate_decay.self_s", "s", "lower"),
    ("simulate.estimate_decay.trials", "count", "higher"),
    ("simulate.simulate_coupled.calls", "count", "lower"),
    ("simulate.simulate_coupled.self_s", "s", "lower"),
    ("simulate.simulate_coupled.events", "count", "higher"),
    ("simulate.simulate_coupled.samples", "count", "higher"),
    ("oracle.check_instance.calls", "count", "lower"),
    ("oracle.check_instance.self_s", "s", "lower"),
    ("oracle.check_tail_bound.self_s", "s", "lower"),
    ("netmodel.spec_from_dict.self_s", "s", "lower"),
    ("netmodel.stationary_stats.self_s", "s", "lower"),
    ("netmodel.edge_process.calls", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_s", "s", "lower"),
)

# Figures not of the plain <function>.<stat> form.
ALIASES = {"exact.stability_matrix_bytes": "exact.assemble_stability_matrix.bytes"}
RATIOS = {
    "exact.expected_lambda_max.calls_per_verdict":
        ("exact.expected_lambda_max.calls", "exact.exact_mean_stable.calls"),
}
OVERHEAD = "trace.overhead_s"
# A wrapped no-op is timed against a bare one over this many calls, this
# many times; the median difference per call is the cost of one wrapper.
OVERHEAD_CALLS = 10_000
OVERHEAD_REPEATS = 5


def _matrix_arg(args, kwargs):
    return args[0] if args else kwargs["a"]


# Named counts read from a wrapped call: function -> ((stat, reduce, read)),
# where read(args, kwargs, result) gives this call's value and reduce(total,
# value) folds it into the pass total.
COUNTERS = {
    "spectral.spectral_abscissa": (
        ("max_dim", max, lambda a, k, r: _matrix_arg(a, k).shape[0]),
        ("flops", operator.add, lambda a, k, r: 10 * _matrix_arg(a, k).shape[0] ** 3),
    ),
    "exact.assemble_stability_matrix": (
        ("bytes", max, lambda a, k, r: 8 * r.shape[0] * r.shape[1]),
    ),
    "spectral.lambda_max_iterative": (
        ("iterations", operator.add, lambda a, k, r: r.iterations),
        ("converged", operator.add, lambda a, k, r: int(r.converged)),
    ),
    "simulate.estimate_decay": (
        ("trials", operator.add, lambda a, k, r: r.trials),
    ),
    "simulate.simulate_coupled": (
        ("events", operator.add, lambda a, k, r: len(r.full.events)),
        ("samples", operator.add, lambda a, k, r: int(r.full.times.size)),
    ),
}


def _noop():
    return None


def wrapper_cost_s() -> float:
    """Time one wrapper adds to a call, timed on a throwaway tracer."""
    wrapped = Tracer()._wrap("trace.noop", _noop)
    costs = []
    for _ in range(OVERHEAD_REPEATS):
        t0 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            _noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / OVERHEAD_CALLS)
    return statistics.median(costs)


def _split(metric: str) -> tuple[str, str]:
    """'mod.fn.stat' -> ('mod.fn', 'stat'); 'mod.self_s' -> ('mod', 'self_s')."""
    head, _, stat = ALIASES.get(metric, metric).rpartition(".")
    return head, stat


def referenced_functions() -> set[str]:
    """Every 'module.function' some per-layer figure is read from."""
    names = set()
    for metric, _, _ in PER_LAYER:
        if metric == OVERHEAD:
            continue
        parts = RATIOS.get(metric, (metric,))
        for part in parts:
            head, _ = _split(part)
            if "." in head:
                names.add(head)
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            name = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(name)
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == name):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        wrapped = {wrapper.__trace_key__ for _, wrapper in wrappers.values()}
        self.absent.extend(sorted(referenced_functions() - wrapped))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        counters = COUNTERS.get(key, ())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[1]
                self.spans.append((span_id, parent, key, self.request, start, end))
            for stat, reduce, read in counters:
                self._count(f"{key}.{stat}", reduce, read, args, kwargs, result)
            return result

        wrapper.__trace_key__ = key
        return wrapper

    def _count(self, name, reduce, read, args, kwargs, result) -> None:
        try:
            value = read(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            if name not in self.absent:
                self.absent.append(name)
            return
        self.counts[name] = reduce(self.counts[name], value) if name in self.counts else value

    def _figure(self, metric: str) -> float:
        head, stat = _split(metric)
        if stat == "calls":
            return self.calls.get(head, 0)
        if stat == "self_s":
            if "." in head:
                return self.self_s.get(head, 0.0)
            return sum(v for k, v in self.self_s.items() if k.startswith(head + "."))
        return self.counts.get(f"{head}.{stat}", 0)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure of this pass."""
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric == OVERHEAD:
                out[metric] = wrapper_cost_s() * sum(self.calls.values())
            elif metric in RATIOS:
                num, den = (self._figure(m) for m in RATIOS[metric])
                out[metric] = num / den if den else 0.0
            else:
                out[metric] = self._figure(metric)
        return out

    def write_spans(self, path: str) -> None:
        fields = ("id", "parent", "name", "request", "start", "end")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "absent": self.absent, "spans": self.spans}, fh)
