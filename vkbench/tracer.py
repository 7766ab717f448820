"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function bound in every loaded
`vklab` module namespace with a timing wrapper and `Tracer.restore()` puts
the originals back. Patching the namespace that binds a name (not just the
defining module) is what catches calls that resolve the name at call time:
`search.code_to_adj` in the sweep loop, `search.wiener` inside the
`_EVALUATOR_TABLE` lambdas, `indices.compute_metrics` inside `evaluate`,
`verify.canonical_form`, and the names `verify._class_min_max` imports
lazily from `partiteness` and `search`.

A layer is the package module that defines a function. Spans are never kept
one by one (a scan makes millions of calls); they are folded into
(name, parent name) -> [calls, self seconds], where self time
is a span's duration minus the time of the wrapped spans directly inside it.

Blind spots:
  * classes (Graph, ClassParams, DistanceMetrics, ...) are not wrapped, so
    construction and method time falls into the calling layer;
  * functions stored by value rather than looked up by name are not seen:
    `zagreb_m2` sits directly in `search._EVALUATOR_TABLE`, so its time in
    the sweep falls into `search`;
  * work done in pool workers is invisible, and so is the parent's wait on
    the pool; traced runs therefore use one worker;
  * a generator (enumerate_graphs, load_graph6_corpus) counts one call, and
    its body is charged to its own span on each resume, under whichever span
    is consuming it;
  * wrapper cost lands in the self time of the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("graphs", "partiteness", "metrics", "indices", "extremal", "search",
          "verify", "cli")

BENCH_SPAN = "bench"  # parent name of calls made by the benchmark itself

# frame layout: [span name, seconds spent in wrapped children, saw a decode child]
_NAME, _CHILD_S, _DECODED = 0, 1, 2


def vklab_modules() -> list:
    """The package and every loaded submodule, in a fixed order."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "vklab" or name.startswith("vklab.")]


class Tracer:
    """Timing wrappers over the vklab namespaces, aggregated in memory."""

    def __init__(self):
        self.stack = [[BENCH_SPAN, 0.0, False]]
        self.spans: dict = {}        # (name, parent) -> [calls, self_s]
        self.connected = [0, 0]      # [admitted, calls] of connected_mask
        self.partiteness = [0, 0]    # [admitted, calls] of partiteness_within
        self.canonical_codes: set = set()
        self.sweep_cache = [0, 0]    # [hits, calls] of scan_many
        self._saved: list = []

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for module in vklab_modules():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("vklab.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, name)
        else:
            wrapper = self._wrap_function(fn, name, self._observer(name))
        return functools.update_wrapper(wrapper, fn)

    def _record(self, name, parent, frame, dt, calls):
        parent[_CHILD_S] += dt
        key = (name, parent[_NAME])
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0]
        rec[0] += calls
        rec[1] += dt - frame[_CHILD_S]

    def _wrap_function(self, fn, name, observe):
        stack, record, clock = self.stack, self._record, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(name, parent, frame, dt, 1)
            if observe is not None:
                observe(args, result, parent, frame)
            return result
        return wrapper

    def _wrap_generator(self, fn, name):
        # one call per generator; time is charged per resume, under whichever
        # span is consuming the generator at that moment
        stack, record, clock = self.stack, self._record, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                parent = stack[-1]
                frame = [name, 0.0, False]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    record(name, parent, frame, dt, calls)
                    calls = 0
                yield item
        return wrapper

    def _observer(self, name):
        if name == "graphs.code_to_adj":
            def observe(args, result, parent, frame):
                parent[_DECODED] = True
        elif name == "graphs.connected_mask":
            def observe(args, result, parent, frame):
                self.connected[1] += 1
                if result == (1 << len(args[0])) - 1:
                    self.connected[0] += 1
        elif name == "partiteness.partiteness_within":
            def observe(args, result, parent, frame):
                self.partiteness[1] += 1
                if result is not None:
                    self.partiteness[0] += 1
        elif name == "graphs.canonical_form":
            def observe(args, result, parent, frame):
                self.canonical_codes.add((result.n, result.bits))
        elif name == "search.scan_many":
            def observe(args, result, parent, frame):
                # a scan_many that decoded no code was served from the cache
                self.sweep_cache[1] += 1
                if not frame[_DECODED]:
                    self.sweep_cache[0] += 1
        else:
            return None
        return observe

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metric values, keyed as in BENCHMARK.json `per_layer`."""
        def layer(name):
            return name.split(".", 1)[0]

        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict = {}
        for (name, parent), (n, own) in self.spans.items():
            self_s[layer(name)] += own
            if layer(parent) != layer(name):
                calls[layer(name)] += n
            agg = by_name.setdefault(name, [0, 0.0])
            agg[0] += n
            agg[1] += own

        def fn(name):
            return by_name.get(name, [0, 0.0])

        def ratio(num, den):
            return num / den if den else 0.0

        canon_calls = fn("graphs.canonical_form")[0]
        out = {}
        for lay in LAYERS:
            out[f"{lay}.calls"] = calls[lay]
            out[f"{lay}.self_s"] = self_s[lay]
        out.update({
            "graphs.decode.calls": fn("graphs.code_to_adj")[0],
            "graphs.decode.self_s": fn("graphs.code_to_adj")[1],
            "graphs.connected.calls": self.connected[1],
            "graphs.connected.self_s": fn("graphs.connected_mask")[1],
            "graphs.connected.admit_ratio": ratio(*self.connected),
            "graphs.canonical.calls": canon_calls,
            "graphs.canonical.self_s": fn("graphs.canonical_form")[1],
            "graphs.canonical.distinct_ratio": ratio(len(self.canonical_codes),
                                                     canon_calls),
            "graphs.parse.calls": fn("graphs.parse_graph6")[0],
            "graphs.parse.self_s": fn("graphs.parse_graph6")[1],
            "partiteness.admit_ratio": ratio(*self.partiteness),
            "search.sweep_cache.lookups": self.sweep_cache[1],
            "search.sweep_cache.hit_ratio": ratio(*self.sweep_cache),
            "trace.spans": sum(rec[0] for rec in self.spans.values()),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.unattributed_s": traced_wall - sum(self_s.values()),
            "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        })
        return out
