"""Parallel execution of the independent cells of a pipeline.

Every trace-driven experiment in this repository is an embarrassingly
parallel sweep: the (sampler spec, run) streams evaluated by
:func:`repro.pipeline.executor.run_stream` never interact.  This module
turns that structure into an explicit :class:`ExecutionPlan` — one
:class:`Cell` per independent stream, each carrying its own
``SeedSequence`` child — and dispatches contiguous *batches* of cells
through a pluggable backend:

* ``"serial"`` — all cells in one batch, in process (the reference
  path: one expansion, one pass over the stream);
* ``"process"`` — one batch per worker via
  :class:`concurrent.futures.ProcessPoolExecutor`; no packets cross the
  process boundary: each worker *replays* the same packet expansion
  from the plan's shared entropy (so it is bit-identical everywhere)
  and evaluates only its cells;
* ``"auto"`` — picks ``"process"`` when the workload is large enough to
  amortise process start-up (and the plan is picklable), ``"serial"``
  otherwise.  A downgrade is recorded in
  :attr:`ExecutionPlan.fallback_reason` — never silent.

Because every cell's sampler generator is derived from the cell's own
``SeedSequence`` child and the expansion entropy is shared, the merged
:class:`~repro.pipeline.executor.StreamOutcome` is **bit-identical**
across backends for the same seed; merging orders rows by cell index,
never by completion order, and :func:`merge_outcomes` checks that the
workers' replays agree.  The test suite asserts this equality.

>>> from repro.pipeline import Pipeline
>>> result = (
...     Pipeline()
...     .with_trace("sprint", scale=0.001, duration=120.0)
...     .with_sampler("bernoulli", rate=0.5)
...     .with_runs(2)
...     .with_seed(0)
...     .run(parallel="serial")
... )
>>> result.num_runs
2
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..traces.source import PacketSource
from .executor import StreamOutcome, run_stream

#: Backend names accepted by :meth:`ExecutionPlan.execute`.
BACKENDS = ("auto", "serial", "process")

#: Minimum workload (total packets x cells, i.e. per-packet sampling
#: decisions) below which ``"auto"`` stays serial: under this size the
#: cost of forking workers and re-expanding the trace in each of them
#: exceeds what parallelism can win back.
AUTO_PROCESS_MIN_WORK = 8_000_000


@dataclass(frozen=True)
class Cell:
    """One independent unit of pipeline work: a (sampler spec, run) pair.

    Attributes
    ----------
    stream_index:
        Global position of this cell's stream, ``spec_index * num_runs
        + run_index``; merge order is defined by this index.
    spec_index:
        Index into the plan's sampler specs.
    run_index:
        Independent sampling realisation number within the spec.
    seed:
        The ``SeedSequence`` child that (alone) seeds this cell's
        sampler, making the cell relocatable to any worker.
    """

    stream_index: int
    spec_index: int
    run_index: int
    seed: np.random.SeedSequence


@dataclass
class ExecutionPlan:
    """The independent cells of one pipeline run, ready to dispatch.

    An :class:`ExecutionPlan` is a fully resolved description of the
    work: the packet source, the flow-group mapping, the stream
    entropy, and one :class:`Cell` per (sampler spec, run) stream.  It
    is built by :meth:`repro.pipeline.Pipeline.plan` and consumed by
    :meth:`execute`; it is also the natural unit to inspect when
    reasoning about scaling (``plan.num_cells``, ``plan.packet_work``).

    Attributes
    ----------
    source:
        The resolved :class:`~repro.traces.source.PacketSource` every
        cell streams (a :class:`~repro.traces.source.FlowTraceSource`
        for classic ``with_trace`` pipelines, any composed source for
        scenario workloads).
    groups:
        Flow id to flow-group mapping under the chosen flow definition.
    expand_entropy:
        Source of the stream's randomness (packet placement etc.): a
        ``SeedSequence`` child of the pipeline seed, or a
        caller-supplied generator/seed (see
        :meth:`repro.pipeline.Pipeline.with_packet_rng`).  Every batch
        derives a *fresh* generator from it, so the stream is
        bit-identical in every worker.
    sampler_specs:
        The pipeline's sampler specs, indexed by ``Cell.spec_index``.
    cells:
        One cell per independent stream, in stream order.
    bin_duration, top_t, chunk_packets:
        Evaluation parameters, as in :func:`run_stream` and
        :meth:`PacketSource.iter_chunks
        <repro.traces.source.PacketSource.iter_chunks>`.
    """

    source: PacketSource
    groups: np.ndarray
    expand_entropy: np.random.SeedSequence | np.random.Generator | int
    sampler_specs: list
    cells: list[Cell]
    bin_duration: float
    top_t: int
    chunk_packets: int | None
    #: Set by :meth:`execute` when the ``"auto"`` backend downgraded to
    #: serial because the plan could not be pickled — the downgrade is
    #: observable instead of silent.  ``None`` otherwise.
    fallback_reason: str | None = None
    #: How the last :meth:`execute` fed its workers their packets:
    #: ``"replay"`` for the process backend, ``None`` for serial
    #: execution (no workers involved).
    transport_used: str | None = None

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of independent (sampler spec, run) streams."""
        return len(self.cells)

    @property
    def packet_work(self) -> int:
        """Total per-packet sampling decisions: packets x cells.

        The quantity the ``"auto"`` backend compares against
        :data:`AUTO_PROCESS_MIN_WORK`.  Sources that cannot predict
        their packet count report zero work, which keeps ``"auto"``
        dispatch serial unless an explicit job count asks otherwise.
        """
        return int(self.source.expected_packets or 0) * self.num_cells

    def batches(self, count: int) -> list[list[int]]:
        """Split the cell indices into ``count`` contiguous batches.

        Parameters
        ----------
        count:
            Desired number of batches; capped at the number of cells.

        Returns
        -------
        list[list[int]]
            Non-empty, contiguous, in-order index batches.  Contiguity
            keeps each worker's cells adjacent in stream order, and the
            near-equal sizes balance the duplicated expansion cost.
        """
        count = max(1, min(int(count), self.num_cells))
        bounds = np.linspace(0, self.num_cells, count + 1).astype(int)
        return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def pickle_check(self) -> str | None:
        """Why the plan cannot be shipped to worker processes, if it cannot.

        Probes the parts of the plan the process backend pickles and
        returns ``None`` when everything serialises, or a short
        diagnostic (exception type and message) when it does not.  Only
        genuine serialisation failures are caught — ``PicklingError``
        (lambdas, local closures), ``TypeError`` (open handles, locks)
        and ``AttributeError`` (objects whose module-level name is gone)
        — so a real bug inside ``__reduce__`` still surfaces.
        """
        try:
            pickle.dumps((self.sampler_specs, self.expand_entropy, self.source))
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            return f"{type(error).__name__}: {error}"
        return None

    def is_picklable(self) -> bool:
        """Whether the plan can be shipped to worker processes.

        Sampler specs holding locally defined factories or instances
        cannot be pickled; the ``"auto"`` backend falls back to serial
        for them (recording :attr:`fallback_reason`), the ``"process"``
        backend raises.
        """
        return self.pickle_check() is None

    # ------------------------------------------------------------------
    def resolve_backend(self, backend: str = "auto", jobs: int | None = None) -> tuple[str, int]:
        """Normalise (backend, jobs) into a concrete dispatch decision.

        Parameters
        ----------
        backend:
            One of :data:`BACKENDS`.  ``"auto"`` chooses ``"process"``
            when an explicit ``jobs > 1`` was requested, or when the
            machine has more than one CPU and :attr:`packet_work`
            reaches :data:`AUTO_PROCESS_MIN_WORK`.
        jobs:
            Worker count; ``None`` means one per CPU.  Always capped at
            the number of cells.

        Returns
        -------
        tuple[str, int]
            The chosen backend (``"serial"`` or ``"process"``) and the
            resolved worker count.
        """
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        resolved_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if resolved_jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        resolved_jobs = min(int(resolved_jobs), self.num_cells)
        if backend == "auto":
            if jobs is not None:
                backend = "process" if resolved_jobs > 1 else "serial"
            elif resolved_jobs > 1 and self.packet_work >= AUTO_PROCESS_MIN_WORK:
                backend = "process"
            else:
                backend = "serial"
        if backend == "serial":
            resolved_jobs = 1
        return backend, resolved_jobs

    def execute(self, backend: str = "auto", jobs: int | None = None) -> StreamOutcome:
        """Run every cell and merge the outcomes deterministically.

        Parameters
        ----------
        backend:
            ``"serial"``, ``"process"`` or ``"auto"`` (the default).
        jobs:
            Worker processes for the process backend; ``None`` means one
            per CPU.

        Returns
        -------
        StreamOutcome
            Per-bin metric rows for every stream, ordered by cell index
            — bit-identical across backends for the same plan.
        """
        choice, resolved_jobs = self.resolve_backend(backend, jobs)
        self.transport_used = None
        if choice == "process":
            problem = self.pickle_check()
            if problem is not None:
                if backend == "process":
                    raise ValueError(
                        "the pipeline uses sampler factories or instances that cannot "
                        f"be pickled to worker processes ({problem}); run with "
                        "parallel='serial' instead"
                    )
                # auto mode degrades gracefully — and observably.
                self.fallback_reason = f"auto backend fell back to serial: {problem}"
                choice = "serial"
        if telemetry.enabled:
            telemetry.gauge("parallel.backend", choice)
            telemetry.gauge("parallel.jobs", resolved_jobs)
        if choice == "serial":
            packed = [_run_cell_batch(self, list(range(self.num_cells)))]
        else:
            self.transport_used = "replay"
            if telemetry.enabled:
                telemetry.gauge("parallel.transport", "replay")
            batches = self.batches(resolved_jobs)
            with ProcessPoolExecutor(max_workers=len(batches)) as pool:
                futures = [
                    pool.submit(_run_cell_batch, self, batch, telemetry.enabled)
                    for batch in batches
                ]
                packed = [future.result() for future in futures]
            if telemetry.enabled:
                telemetry.absorb([snapshot for _, _, snapshot in packed])
        parts = [(indices, outcome) for indices, outcome, _ in packed]
        return merge_outcomes(parts, self.num_cells)

    # ------------------------------------------------------------------
    def _expand_rng(self) -> np.random.Generator:
        """A fresh, identical packet-placement generator for one batch."""
        if isinstance(self.expand_entropy, np.random.Generator):
            return copy.deepcopy(self.expand_entropy)
        return np.random.default_rng(self.expand_entropy)


def _spawn_probe_target() -> None:
    """No-op child-process target for :func:`probe_process_spawn`."""


def probe_process_spawn(timeout: float = 30.0) -> str | None:
    """Why worker processes cannot be started here — or ``None`` if they can.

    Starts (and immediately joins) one trivial child process.  Sandboxed
    or resource-exhausted environments fail at ``fork``/``spawn`` time
    with ``OSError``/``PermissionError``; interpreters embedded without
    a main module raise ``RuntimeError``.  Callers that want graceful
    degradation (``repro.sweep.run_sweep_workers``) probe once up front
    instead of half-starting a worker pool.

    Parameters
    ----------
    timeout:
        Seconds to wait for the probe child to exit before declaring
        the environment unusable for process workers.

    Returns
    -------
    str | None
        ``None`` when a child process started and exited cleanly, else
        a one-line diagnostic naming the failure.
    """
    try:
        process = multiprocessing.get_context().Process(
            target=_spawn_probe_target, daemon=True
        )
        process.start()
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(1.0)
            return f"probe process did not exit within {timeout:g}s"
        if process.exitcode != 0:
            return f"probe process exited with code {process.exitcode}"
    except (OSError, PermissionError, RuntimeError, ValueError) as error:
        return f"{type(error).__name__}: {error}"
    return None


def _run_cell_batch(
    plan: ExecutionPlan, cell_indices: list[int], telemetry_enabled: bool = False
) -> tuple[list[int], StreamOutcome, dict | None]:
    """Evaluate one batch of cells against a freshly replayed stream.

    This is the worker entry point of the process backend (and, with a
    single batch of all cells, the whole serial backend).  The stream
    generator is re-derived from the plan's entropy, so every batch sees
    the same packet stream; each cell's sampler comes from the cell's
    own seed, so the rows it produces do not depend on which batch (or
    process) evaluated it.

    Parameters
    ----------
    plan:
        The execution plan (pickled to the worker by the pool).
    cell_indices:
        Indices into ``plan.cells`` to evaluate here.
    telemetry_enabled:
        Whether the caller records telemetry.  A pool worker cannot
        rely on the parent's module state (a spawned worker starts with
        telemetry off, a forked one with a copy of the parent's
        registry), so the flag travels explicitly, and enabling it
        resets the worker's registry to hold this batch alone.

    Returns
    -------
    tuple[list[int], StreamOutcome, dict | None]
        The global stream indices of the batch, their outcome rows, and
        this process's telemetry snapshot when ``telemetry_enabled``
        (``None`` otherwise) for the parent to
        :func:`~repro.telemetry.absorb` deterministically.
    """
    if telemetry_enabled:
        telemetry.enable()
    cells = [plan.cells[index] for index in cell_indices]
    samplers = [
        plan.sampler_specs[cell.spec_index].build(np.random.default_rng(cell.seed))
        for cell in cells
    ]
    chunks = plan.source.iter_chunks(plan._expand_rng(), chunk_packets=plan.chunk_packets)
    outcome = run_stream(chunks, plan.groups, samplers, plan.bin_duration, plan.top_t)
    snapshot = telemetry.snapshot() if telemetry_enabled else None
    return [cell.stream_index for cell in cells], outcome, snapshot


def merge_outcomes(
    parts: list[tuple[list[int], StreamOutcome]], num_streams: int
) -> StreamOutcome:
    """Fold per-batch outcomes into one, ordered by stream index.

    Parameters
    ----------
    parts:
        ``(stream indices, outcome)`` pairs as returned by the batch
        runner; together they must cover every stream exactly once.
    num_streams:
        Total number of streams across all parts.

    Returns
    -------
    StreamOutcome
        One outcome whose metric rows sit at their stream index,
        regardless of batch completion order.  The shared fields
        (bin start times, flows per bin, total packets) are checked for
        equality across batches — a mismatch would mean the replayed
        expansions diverged, which breaks the determinism contract.
    """
    if not parts:
        raise ValueError("no outcomes to merge")
    _, reference = parts[0]
    num_bins = reference.bin_start_times.size
    ranking = np.empty((num_streams, num_bins), dtype=float)
    detection = np.empty((num_streams, num_bins), dtype=float)
    seen = np.zeros(num_streams, dtype=bool)
    for indices, outcome in parts:
        if not np.array_equal(outcome.bin_start_times, reference.bin_start_times) or (
            outcome.total_packets != reference.total_packets
        ):
            raise RuntimeError(
                "parallel batches disagree on the packet stream; the expansion "
                "entropy was not replayed identically across workers"
            )
        rows = np.asarray(indices, dtype=int)
        if seen[rows].any():
            raise ValueError("a stream index appears in more than one batch")
        seen[rows] = True
        ranking[rows] = outcome.ranking_values
        detection[rows] = outcome.detection_values
    if not seen.all():
        missing = np.flatnonzero(~seen).tolist()
        raise ValueError(f"streams {missing} were not evaluated by any batch")
    return StreamOutcome(
        bin_start_times=reference.bin_start_times,
        flows_per_bin=reference.flows_per_bin,
        total_packets=reference.total_packets,
        ranking_values=ranking,
        detection_values=detection,
    )


__all__ = [
    "AUTO_PROCESS_MIN_WORK",
    "BACKENDS",
    "Cell",
    "ExecutionPlan",
    "merge_outcomes",
    "probe_process_spawn",
]
