"""Benchmark-side tracing: timed wrappers around the public layer entry points.

The library is never edited to be traced.  :func:`traced` installs
wrappers on the public functions and methods each layer exposes, records
one span per call into a :class:`Recorder`, and restores every original
attribute on exit -- so untraced iterations never run wrapped code.

Spans nest through the recorder's stack, so a layer's *self* time is its
span minus the spans of the calls it made into other layers.  A call
into a layer that is already open (a merged source pulling its inner
sources, a sampler delegating to another) is folded into the outer span
instead of being counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator

import numpy as np

import repro.pipeline.executor as executor_module
import repro.pipeline.pipeline as pipeline_module
import repro.sweep as sweep_module
from repro.flows.accounting import FlowAccountingEngine
from repro.pipeline.parallel import ExecutionPlan
from repro.pipeline.pipeline import Pipeline
from repro.sampling.base import PacketSampler
from repro.store import RunStore
from repro.traces.source import PacketSource
from workloads import Iteration

#: Marker set on every wrapper, so a check can prove none is left behind.
WRAPPED_MARKER = "__perfbench_wrapped__"

#: Spans of the entry points a workload calls.  They enclose the whole
#: timed window, so time under them alone is not attributed to a layer.
ENTRY_POINTS = frozenset({"pipeline.run", "sweep.run", "sweep.collect"})

#: Packet columns a streaming transport ships to each worker.
SHIPPED_COLUMNS = ("timestamps", "flow_ids", "sizes_bytes")


class Recorder:
    """Spans and counts recorded while wrappers are installed.

    ``spans`` holds ``[name, start, end, parent]`` rows, ``parent`` being
    the index of the enclosing span or ``-1`` at the top level.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def begin(self, name: str) -> int | None:
        """Open a span; ``None`` when the layer is already open (re-entry)."""
        if self._open[name]:
            return None
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        row = self.spans[index]
        row[2] = time.perf_counter()
        self._stack.pop()
        self._open[row[0]] -= 1

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        times: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            times[name] += end - start
            if parent >= 0:
                times[self.spans[parent][0]] -= end - start
        return times

    def covered(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` spent under a layer span.

        The outermost layer spans -- those with no layer span, only entry
        points, above them -- are disjoint, so their clipped durations add
        up.  An entry point's self time is left out.
        """
        return sum(
            max(min(stop, end) - max(begin, start), 0.0)
            for index, (name, begin, stop, _) in enumerate(self.spans)
            if name not in ENTRY_POINTS and not self._under_layer(index)
        )

    def _under_layer(self, index: int) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] not in ENTRY_POINTS:
                return True
            parent = self.spans[parent][3]
        return False


def _mark(wrapper: Callable, original: Callable) -> Callable:
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, WRAPPED_MARKER, True)
    return wrapper


def _timed(recorder: Recorder, name: str, original: Callable, after=None) -> Callable:
    """Wrap ``original`` in a span; ``after(args, kwargs, result)`` adds counts."""

    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if index is not None and after is not None:
            after(args, kwargs, result)
        return result

    return _mark(wrapper, original)


def _timed_chunks(recorder: Recorder, original: Callable) -> Callable:
    """Wrap a source's chunk iterator: time spent producing each chunk."""

    def wrapper(*args, **kwargs):
        chunks = original(*args, **kwargs)
        while True:
            index = recorder.begin("traces.source")
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            if index is not None:
                recorder.counts["traces.chunks"] += 1
                recorder.counts["traces.packets"] += len(chunk)
                recorder.counts["traces.column_bytes"] += sum(
                    getattr(chunk, column).nbytes for column in SHIPPED_COLUMNS
                )
            yield chunk

    return _mark(wrapper, original)


def _subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _own_methods(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define a concrete ``attr`` themselves."""
    owners = []
    for cls in [base, *_subclasses(base)]:
        method = cls.__dict__.get(attr)
        if callable(method) and not getattr(method, "__isabstractmethod__", False):
            owners.append(cls)
    return owners


def _targets(recorder: Recorder) -> list[tuple[object, str, Callable]]:
    """Every (owner, attribute, wrapper) the traced run installs."""
    counts = recorder.counts

    def after_sample(args, kwargs, mask) -> None:
        counts["sampling.calls"] += 1
        counts["sampling.offered"] += len(args[1])
        counts["sampling.kept"] += int(np.count_nonzero(mask))

    def after_account(args, kwargs, result) -> None:
        counts["flows.account_calls"] += 1

    def after_score(args, kwargs, result) -> None:
        counts["simulation.score_calls"] += 1
        counts["simulation.flows_scored"] += int(np.size(args[0]))
        counts["simulation.ranking_pairs"] += int(result.ranking)
        counts["simulation.detection_pairs"] += int(result.detection)

    def after_put(args, kwargs, key) -> None:
        counts["store.put_bytes"] += args[0].run_path(key).stat().st_size

    def after_lookup(args, kwargs, found) -> None:
        counts["store.hits" if found else "store.misses"] += 1

    def after_get(args, kwargs, stored) -> None:
        after_lookup(args, kwargs, stored is not None)

    execute = ExecutionPlan.__dict__["execute"]
    execute_signature = inspect.signature(execute)

    def traced_execute(*args, **kwargs):
        # Serial execution is the executor's own work; on the process
        # backend the parent's share is dispatch plus waiting on workers.
        call = execute_signature.bind(*args, **kwargs)
        call.apply_defaults()
        plan = call.arguments["self"]
        sent_before = counts["traces.column_bytes"]
        index = recorder.begin("pipeline.execute")
        try:
            result = execute(*args, **kwargs)
        finally:
            recorder.end(index)
        if index is not None and plan.transport_used is not None:
            recorder.spans[index][0] = "parallel.execute"
            _, jobs = plan.resolve_backend(call.arguments["backend"], call.arguments["jobs"])
            counts["parallel.jobs"] = jobs
            if plan.transport_used in ("shm", "pickle"):
                workers = len(plan.batches(jobs))
                counts["parallel.bytes_sent"] += (
                    counts["traces.column_bytes"] - sent_before
                ) * workers
        return result

    targets: list[tuple[object, str, Callable]] = [
        (Pipeline, "run", _timed(recorder, "pipeline.run", Pipeline.run)),
        (Pipeline, "plan", _timed(recorder, "pipeline.plan", Pipeline.plan)),
        (ExecutionPlan, "execute", _mark(traced_execute, execute)),
        (
            pipeline_module,
            "run_monitor_stream",
            _timed(recorder, "pipeline.execute", pipeline_module.run_monitor_stream),
        ),
        (
            executor_module,
            "swapped_pair_counts",
            _timed(
                recorder,
                "simulation.score",
                executor_module.swapped_pair_counts,
                after_score,
            ),
        ),
        (RunStore, "put", _timed(recorder, "store.put", RunStore.put, after_put)),
        (RunStore, "get", _timed(recorder, "store.get", RunStore.get, after_get)),
        (
            RunStore,
            "__contains__",
            _timed(recorder, "store.contains", RunStore.__contains__, after_lookup),
        ),
        (sweep_module, "run_sweep", _timed(recorder, "sweep.run", sweep_module.run_sweep)),
        (sweep_module, "collect", _timed(recorder, "sweep.collect", sweep_module.collect)),
    ]
    for method in ("observe_sorted_chunk", "observe_chunk"):
        targets.append(
            (
                FlowAccountingEngine,
                method,
                _timed(
                    recorder,
                    "flows.account",
                    FlowAccountingEngine.__dict__[method],
                    after_account,
                ),
            )
        )
    for cls in _own_methods(PacketSampler, "sample_mask"):
        targets.append(
            (
                cls,
                "sample_mask",
                _timed(recorder, "sampling.sample", cls.__dict__["sample_mask"], after_sample),
            )
        )
    for cls in _own_methods(PacketSource, "iter_chunks"):
        targets.append((cls, "iter_chunks", _timed_chunks(recorder, cls.__dict__["iter_chunks"])))
    return targets


def wrapped_attributes() -> list[str]:
    """Names of layer entry points that currently hold a benchmark wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _targets(Recorder())
        if getattr(vars(owner)[attr], WRAPPED_MARKER, False)
    ]


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install every layer wrapper for the block, then restore the originals."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, wrapper in _targets(recorder):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(
    recorder: Recorder, snapshot: dict, iteration: Iteration
) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics of one traced iteration, plus its string labels.

    Times are self times summed over the iteration: its cold execution
    and its warm re-answers.  ``trace.coverage`` is the share of the
    cold execution (the timed ``iter_s``) spent under layer spans below
    the entry points; the rest, ``trace.unattributed_s``, includes the
    entry points' own time (``pipeline.package_s`` among it).

    ``snapshot`` is the library's own :mod:`repro.telemetry` snapshot of
    the same iteration: the group-by span (an inline ``np.unique`` with
    no public function to wrap), the per-cell sweep span and the
    backend/transport gauges come from it.
    """
    own = recorder.self_times()
    counts = recorder.counts
    spans = snapshot.get("spans", {})
    gauges = snapshot.get("gauges", {})

    def span_total(name: str) -> float:
        return float(spans.get(name, {}).get("total", 0.0))

    groupby = span_total("stream.groupby")
    cells = int(spans.get("sweep.cell", {}).get("count", 0))
    offered = counts["sampling.offered"]
    iteration_s = iteration.cold_s
    covered = recorder.covered(iteration.cold_start, iteration.cold_end)
    metrics = {
        "pipeline.plan_s": own["pipeline.plan"],
        "pipeline.execute_s": max(own["pipeline.execute"] - groupby, 0.0),
        "pipeline.package_s": own["pipeline.run"],
        "traces.source_s": own["traces.source"],
        "traces.packets": counts["traces.packets"],
        "traces.chunks": counts["traces.chunks"],
        "sampling.sample_s": own["sampling.sample"],
        "sampling.calls": counts["sampling.calls"],
        "sampling.kept_ratio": counts["sampling.kept"] / offered if offered else 0.0,
        "flows.groupby_s": groupby,
        "flows.account_s": own["flows.account"],
        "flows.account_calls": counts["flows.account_calls"],
        "flows.evictions": iteration.evictions,
        "simulation.score_s": own["simulation.score"],
        "simulation.score_calls": counts["simulation.score_calls"],
        "simulation.flows_scored": counts["simulation.flows_scored"],
        "simulation.ranking_pairs": counts["simulation.ranking_pairs"],
        "simulation.detection_pairs": counts["simulation.detection_pairs"],
        "parallel.execute_s": own["parallel.execute"],
        "parallel.jobs": counts["parallel.jobs"] or 1,
        "parallel.bytes_sent": counts["parallel.bytes_sent"],
        "store.put_s": own["store.put"],
        "store.put_bytes": counts["store.put_bytes"],
        "store.get_s": own["store.get"],
        "store.contains_s": own["store.contains"],
        "store.hits": counts["store.hits"],
        "store.misses": counts["store.misses"],
        "sweep.self_s": own["sweep.run"] + own["sweep.collect"],
        "sweep.cell_s": span_total("sweep.cell") / cells if cells else 0.0,
        "sweep.cells_executed": int(snapshot.get("counters", {}).get("sweep.cells.executed", 0)),
        "sweep.cells_cached": int(snapshot.get("counters", {}).get("sweep.cells.hit", 0)),
        "trace.coverage": covered / iteration_s,
        "trace.unattributed_s": iteration_s - covered,
    }
    labels = {
        "parallel.backend": gauges.get("parallel.backend", "serial"),
        "parallel.transport": gauges.get("parallel.transport", "none"),
        "parallel.bytes_sent": "computed: shipped column bytes x workers",
    }
    return metrics, labels
