"""In-memory span tracing of hypermatch's layers, installed from outside the package.

`Tracer.install` wraps every public function defined in a hypermatch module and
rebinds the wrapper at every namespace that holds the function, so
`from .exact import max_matching` in `stability`, `absorbing` and `cli` is
traced as well as `exact.max_matching` itself. Nothing under `src/` changes.

Each call records a span `[op, parent, name, start, end]`; spans stay in a list
until the run ends. A span's self time is its duration minus its children's.
What is not wrapped, and why:

* `cli` functions other than `main`: `cli.main`'s self time is then the whole
  cli layer (argument parsing, the handlers' own loops, JSON output);
* helpers that are the body of one traced function (FOLDED): their time is
  that function's self time, as `core.weakest_set` is `core.min_l_degree`'s;
* `rng.splitmix64`, the hot leaf under every draw: draws are counted at
  `CounterRng.raw` instead, by a counter with no span;
* generator functions (`rng.bernoulli_subsets`): a span would close before the
  work is done, so their time stays with the caller that consumes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter

PACKAGE = "hypermatch"
FOLDED = {
    "core.from_json",  # core.load
    "core.vertex_subset",  # argument validation in core, absorbing, closeness
    "core.weakest_set",  # core.min_l_degree
    "constructions.barrier_edges",  # constructions.build_space_barrier
    "exact.greedy_matching",  # the prune bound of exact.max_matching
    "stability.downward_closure",  # stability.random_stable_hypergraph
}
SKIPPED = FOLDED | {"rng.splitmix64"}


def _induced(counters, args, result):
    counters["core.induced.edges_scanned"] += args[0].num_edges


def _max_matching(counters, args, result):
    counters["exact.max_matching.vertices"] += args[0].n


def _fractional_optimum(counters, args, result):
    H = args[0]
    counters["fractional.fractional_optimum.lp_cells"] += H.n * (H.num_edges + H.n)


def _is_absorbing(counters, args, result):
    counters["absorbing.is_absorbing.true"] += bool(result)


def _certify_copies(counters, args, result):
    counters["pipeline.certify_copies.passed"] += result[1]["passed"]
    counters["pipeline.certify_copies.copies"] += len(args[1].copies)


def _greedy(counters, args, result):
    counters["pipeline.greedy_low_degradation_matching.edges_in"] += args[0].num_edges


# Work counts taken at the call boundary, keyed by the traced function.
HOOKS = {
    "core.induced": _induced,
    "exact.max_matching": _max_matching,
    "fractional.fractional_optimum": _fractional_optimum,
    "absorbing.is_absorbing": _is_absorbing,
    "pipeline.certify_copies": _certify_copies,
    "pipeline.greedy_low_degradation_matching": _greedy,
}

# Per-layer metrics read straight from a counter rather than from the spans.
COUNTED = {
    "core.induced.edges_scanned",
    "exact.max_matching.vertices",
    "fractional.fractional_optimum.lp_cells",
    "pipeline.greedy_low_degradation_matching.edges_in",
    "rng.CounterRng.raw.calls",
}

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("core.load.self_s", "s", "lower"),
    ("core.induced.calls", "count", "lower"),
    ("core.induced.self_s", "s", "lower"),
    ("core.induced.edges_scanned", "count", "lower"),
    ("core.min_l_degree.calls", "count", "lower"),
    ("core.min_l_degree.self_s", "s", "lower"),
    ("constructions.build_space_barrier.calls", "count", "lower"),
    ("constructions.build_space_barrier.self_s", "s", "lower"),
    ("exact.max_matching.calls", "count", "lower"),
    ("exact.max_matching.self_s", "s", "lower"),
    ("exact.max_matching.vertices", "count", "lower"),
    ("exact.independence_number.calls", "count", "lower"),
    ("exact.independence_number.self_s", "s", "lower"),
    ("fractional.fractional_optimum.calls", "count", "lower"),
    ("fractional.fractional_optimum.self_s", "s", "lower"),
    ("fractional.fractional_optimum.lp_cells", "count", "lower"),
    ("stability.random_stable_hypergraph.self_s", "s", "lower"),
    ("stability.stability_closeness_check.self_s", "s", "lower"),
    ("stability.is_stable.self_s", "s", "lower"),
    ("rng.CounterRng.raw.calls", "count", "lower"),
    ("rng.random_hypergraph.calls", "count", "lower"),
    ("rng.random_hypergraph.self_s", "s", "lower"),
    ("absorbing.sample_absorbing_family.self_s", "s", "lower"),
    ("absorbing.is_absorbing.calls", "count", "lower"),
    ("absorbing.is_absorbing.true_ratio", "ratio", "higher"),
    ("absorbing.absorb.calls", "count", "lower"),
    ("absorbing.absorb.self_s", "s", "lower"),
    ("absorbing.absorb.stuck", "count", "lower"),
    ("pipeline.round1_sample.self_s", "s", "lower"),
    ("pipeline.certify_copies.self_s", "s", "lower"),
    ("pipeline.certify_copies.pass_ratio", "ratio", "higher"),
    ("pipeline.round2_sparsify.self_s", "s", "lower"),
    ("pipeline.greedy_low_degradation_matching.self_s", "s", "lower"),
    ("pipeline.greedy_low_degradation_matching.edges_in", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class Tracer:
    """Spans and counters for one traced replay; install, run ops, uninstall."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()  # (function, exception type) -> count
        self._bindings: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, errors = self.spans, self.stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = perf_counter()
                stack.pop()
                errors[name, type(exc).__name__] += 1
                raise
            record[4] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                    or attr.startswith("_")
                    or name in SKIPPED
                    or (short == "cli" and attr != "main")
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrappers[fn] = self._wrap(name, fn, HOOKS.get(name))
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    self._bindings.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[fn])

        rng_class = sys.modules[PACKAGE + ".rng"].CounterRng
        raw = rng_class.raw
        counters = self.counters

        @functools.wraps(raw)
        def counted_raw(rng, *key):
            counters["rng.CounterRng.raw.calls"] += 1
            return raw(rng, *key)

        self._bindings.append((rng_class, "raw", raw))
        rng_class.raw = counted_raw

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def open_op(self, op: int, label: str) -> list:
        """Root span of one op; close it with close_op."""
        self.op = op
        record = [op, -1, label, perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close_op(self, record: list) -> None:
        record[4] = perf_counter()
        self.stack.pop()

    def layer_times(self) -> tuple:
        """(calls per name, self seconds per name, total seconds of the root op spans)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total = 0.0
        for (_, parent, name, start, end), inner in zip(self.spans, child):
            if parent < 0:
                total += end - start
                continue
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s, total

    def metrics(self, overhead_frac: float) -> dict:
        calls, self_s, _ = self.layer_times()
        c = self.counters
        derived = {
            "absorbing.is_absorbing.true_ratio": (
                c["absorbing.is_absorbing.true"] / calls["absorbing.is_absorbing"]
                if calls["absorbing.is_absorbing"]
                else 0.0
            ),
            "absorbing.absorb.stuck": self.errors["absorbing.absorb", "AbsorptionStuckError"],
            "pipeline.certify_copies.pass_ratio": (
                c["pipeline.certify_copies.passed"] / c["pipeline.certify_copies.copies"]
                if c["pipeline.certify_copies.copies"]
                else 0.0
            ),
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric in derived:
                value = derived[metric]
            elif metric in COUNTED:
                value = c[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]]
            else:
                value = self_s[metric[: -len(".self_s")]]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON array per span: [op, span id, parent id, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([op, sid, parent, name, start, end]) + "\n")
