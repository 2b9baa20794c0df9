"""The traced pass: spans recorded from outside the package.

`Tracer.patch` swaps a module attribute for a wrapper that records a span
(name, start, end, parent span) around each call, and `Tracer.restore` puts
the originals back. Only attributes that one module looks up in another at
call time are wrapped, so the package itself is not modified. Spans stay in
memory, in flat arrays, until the pass ends; self time per layer is each
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import CountingObjective


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # hooks whose attribute no longer exists
        self.counts: Counter = Counter()
        self.evals_under: Counter = Counter()  # evaluated rows by enclosing span name

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, func, name: str, on_result=None):
        """`func` recording one span per call; `on_result(args, result)` may
        add counts at the same boundary."""
        nid = self._name_id(name)
        stack, names, parents = self._stack, self._name, self._parent
        starts, ends, clock = self._start, self._end, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def substitute(self, owner, attr: str, make_replacement) -> None:
        """Set `owner.attr` to `make_replacement(original)` until `restore`.
        A hook whose attribute is gone is skipped and listed in `missing`,
        so a refactor of the package costs layer detail, not the pass."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_replacement(original))

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self.substitute(owner, attr, lambda original: self.wrap(original, name, on_result))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls without a span, for hooks too fine-grained to time."""
        counts = self.counts

        def counting(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self.substitute(owner, attr, counting)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def current(self) -> str:
        return self.names[self._name[self._stack[-1]]] if self._stack else ""

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, inclusive seconds) per span name."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_time[i]), float(total[i])) for i, n in enumerate(self.names)}


def traced_objective(fn, tracer: Tracer) -> CountingObjective:
    """A counting objective whose `evaluate*` calls are spans of the
    `benchmarks` layer. Rows are counted before the span opens, so they go
    to the enclosing span."""

    def count(n: int) -> None:
        tracer.evals_under[tracer.current()] += n

    return CountingObjective(fn, count, lambda method: tracer.wrap(method, "benchmarks.evaluate"))


OPERATORS = ("binary_tournament", "arithmetic_crossover", "gaussian_mutate", "pow_sample")


def instrument(tracer: Tracer, cn) -> None:
    """Wrap the module attributes that `engines` and `informed` look up,
    plus `Individual.__post_init__`. Call `tracer.restore()` afterwards."""
    engines, informed, core = cn.engines, cn.informed, cn.core
    counts = tracer.counts

    def add(key, value=1):
        counts[key] += value

    tracer.patch(engines, "build_grid", "niching.build_grid",
                 lambda a, grid: add("niching.cells", len(grid.cells)))
    tracer.patch(engines, "high_density_regions", "niching.high_density_regions",
                 lambda a, regions: add("niching.regions", len(regions)))
    tracer.patch(engines, "detect_victims", "informed.detect_victims")
    tracer.patch(engines, "informed_mutation", "informed.informed_mutation")
    tracer.patch(engines, "regular_ops", "informed.regular_ops")
    tracer.patch(engines, "distance_to_average", "diversity.distance_to_average")
    tracer.patch(informed, "sample_virgin", "informed.sample_virgin")
    for op in OPERATORS:
        tracer.patch(engines, op, f"operators.{op}")
    for op in OPERATORS[:3]:  # informed's regular_ops draws no pow_sample
        tracer.patch(informed, op, f"operators.{op}")
    tracer.count_calls(core.Individual, "__post_init__", "core.individuals_built")


def instrument_harness(tracer: Tracer, cn, on_trace) -> None:
    """Wrap what `run_matrix` looks up in `harness`: `benchmarks.make` (to
    hand out traced objectives), `run` and `write_trace_csv`."""
    harness = cn.harness
    tracer.substitute(cn.benchmarks, "make",
                      lambda make: lambda *a, **k: traced_objective(make(*a, **k), tracer))
    tracer.patch(harness, "run", "engines.run", lambda a, trace: on_trace(trace, a[1]))

    def csv_bytes(args, _):
        tracer.counts["harness.write_trace_csv.bytes"] += Path(args[1]).stat().st_size

    tracer.patch(harness, "write_trace_csv", "harness.write_trace_csv", csv_bytes)
