"""Tests for the parallel execution engine (:mod:`repro.pipeline.parallel`).

The load-bearing property is bit-identity: for the same seed, the
serial and process backends — at any worker count — must produce the
same :class:`PipelineResult` down to the last bit, including for
samplers that carry state across stream chunks (periodic counters,
sample-and-hold flow tables).  The rest covers plan construction,
backend resolution, merge-order independence and the failure modes of
the merge step.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import Pipeline
from repro.pipeline.executor import StreamOutcome
from repro.pipeline.parallel import (
    AUTO_PROCESS_MIN_WORK,
    merge_outcomes,
)
from repro.sampling import BernoulliSampler

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _sweep_pipeline(trace, seed=11, runs=3) -> Pipeline:
    """A sweep mixing stateless, counter-stateful and table-stateful samplers."""
    return (
        Pipeline()
        .with_trace(trace)
        .with_sampler("bernoulli", rate=0.1)
        .with_sampler("periodic", rate=0.1)
        .with_sampler("sample-and-hold", rate=0.05)
        .with_sampler("flow-hash", rate=0.1)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(runs)
        .with_seed(seed)
        .streaming(2048)
    )


class TestBackendBitIdentity:
    def test_serial_and_process_results_identical(self, small_trace):
        """Acceptance criterion: identical to_dict() for the same seed."""
        serial = _sweep_pipeline(small_trace).run(parallel="serial")
        process = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        assert serial.to_dict() == process.to_dict()

    def test_identity_holds_for_any_worker_count(self, small_trace):
        reference = _sweep_pipeline(small_trace).run(parallel="serial").to_dict()
        for jobs in (3, 5):
            assert _sweep_pipeline(small_trace).run(parallel="process", jobs=jobs).to_dict() == reference

    def test_process_runs_are_reproducible(self, small_trace):
        first = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        second = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        assert first.to_dict() == second.to_dict()

    def test_sample_and_hold_streaming_matches_materialised(self, small_trace):
        """The table-stateful sampler is chunk-size invariant too."""
        def build(pipeline):
            return (
                pipeline.with_trace(small_trace)
                .with_sampler("sample-and-hold", rate=0.05)
                .with_runs(2)
                .with_seed(4)
            )

        streamed = build(Pipeline()).streaming(1500).run(parallel="serial")
        materialised = build(Pipeline()).materialised().run(parallel="serial")
        for problem in ("ranking", "detection"):
            np.testing.assert_array_equal(
                streamed.series(problem, streamed.labels[0]).values,
                materialised.series(problem, materialised.labels[0]).values,
            )

    def test_parallel_int_shorthand(self, small_trace):
        reference = _sweep_pipeline(small_trace).run(parallel="serial").to_dict()
        assert _sweep_pipeline(small_trace).run(parallel=2).to_dict() == reference

    def test_conflicting_worker_counts_rejected(self, small_trace):
        with pytest.raises(ValueError, match="conflicting"):
            _sweep_pipeline(small_trace).run(parallel=2, jobs=3)

    def test_unknown_parallel_value_rejected(self, small_trace):
        with pytest.raises(ValueError, match="parallel"):
            _sweep_pipeline(small_trace).run(parallel="threads")


class TestExecutionPlan:
    def test_plan_enumerates_one_cell_per_spec_and_run(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=3).plan()
        assert plan.num_cells == 4 * 3
        assert [cell.stream_index for cell in plan.cells] == list(range(12))
        assert plan.cells[5].spec_index == 1 and plan.cells[5].run_index == 2
        assert plan.packet_work == small_trace.total_packets * 12

    def test_cell_seeds_are_distinct(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        states = {tuple(cell.seed.generate_state(2)) for cell in plan.cells}
        assert len(states) == plan.num_cells

    def test_batches_partition_contiguously(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=3).plan()
        for count in (1, 2, 5, 12, 40):
            batches = plan.batches(count)
            assert [i for batch in batches for i in batch] == list(range(plan.num_cells))
            assert len(batches) == min(count, plan.num_cells)
            assert all(batch for batch in batches)

    def test_auto_prefers_serial_for_small_workloads(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        assert plan.packet_work < AUTO_PROCESS_MIN_WORK
        assert plan.resolve_backend("auto", None)[0] == "serial"

    def test_auto_honours_an_explicit_job_count(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        backend, jobs = plan.resolve_backend("auto", 2)
        assert (backend, jobs) == ("process", 2)
        assert plan.resolve_backend("auto", 1) == ("serial", 1)

    def test_jobs_capped_at_cell_count(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=1).plan()
        assert plan.resolve_backend("process", 64) == ("process", plan.num_cells)

    def test_invalid_backend_and_jobs_rejected(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        with pytest.raises(ValueError, match="backend"):
            plan.resolve_backend("threads")
        with pytest.raises(ValueError, match="jobs"):
            plan.resolve_backend("process", 0)

    def test_unpicklable_factory_degrades_to_serial_in_auto(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        plan = pipeline.plan()
        assert not plan.is_picklable()
        result = pipeline.run(parallel="auto", jobs=4)  # silently serial
        assert result.num_runs == 2

    def test_fallback_reason_names_the_pickle_failure(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        plan = pipeline.plan()
        assert plan.fallback_reason is None
        problem = plan.pickle_check()
        assert problem is not None
        assert "Error" in problem and "lambda" in problem
        plan.execute("auto", jobs=4)
        assert plan.fallback_reason is not None
        assert "serial" in plan.fallback_reason
        assert problem in plan.fallback_reason

    def test_picklable_plan_records_no_fallback(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        assert plan.pickle_check() is None
        plan.execute("auto")
        assert plan.fallback_reason is None

    def test_unpicklable_factory_raises_for_explicit_process(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        with pytest.raises(ValueError, match="pickle"):
            pipeline.run(parallel="process", jobs=2)


def _outcome(indices: list[int], bins: int = 4, offset: float = 0.0) -> StreamOutcome:
    rows = len(indices)
    values = np.arange(rows * bins, dtype=float).reshape(rows, bins) + 100.0 * np.asarray(
        indices, dtype=float
    ).reshape(rows, 1)
    return StreamOutcome(
        bin_start_times=np.arange(bins, dtype=float) * 60.0 + offset,
        flows_per_bin=10.0,
        total_packets=1000,
        ranking_values=values,
        detection_values=values + 0.5,
    )


class TestMergeOutcomes:
    def test_rows_land_at_their_stream_index_regardless_of_part_order(self):
        parts = [([2, 3], _outcome([2, 3])), ([0, 1], _outcome([0, 1]))]
        merged = merge_outcomes(parts, 4)
        np.testing.assert_array_equal(merged.ranking_values[0], _outcome([0]).ranking_values[0])
        np.testing.assert_array_equal(merged.ranking_values[2], _outcome([2]).ranking_values[0])
        assert merged.total_packets == 1000

    def test_missing_stream_rejected(self):
        with pytest.raises(ValueError, match="not evaluated"):
            merge_outcomes([([0], _outcome([0]))], 2)

    def test_duplicate_stream_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            merge_outcomes([([0], _outcome([0])), ([0], _outcome([0]))], 1)

    def test_diverged_expansion_detected(self):
        parts = [([0], _outcome([0])), ([1], _outcome([1], offset=1.0))]
        with pytest.raises(RuntimeError, match="disagree"):
            merge_outcomes(parts, 2)

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError, match="no outcomes"):
            merge_outcomes([], 0)


class TestPlanExecuteDirectly:
    def test_execute_matches_run_packaging(self, small_trace):
        """plan().execute() returns the same rows run() packages into series."""
        pipeline = _sweep_pipeline(small_trace)
        outcome = pipeline.plan().execute(backend="serial")
        result = pipeline.run(parallel="serial")
        runs = result.num_runs
        for spec_index, label in enumerate(result.labels):
            np.testing.assert_array_equal(
                result.series("ranking", label).values,
                outcome.ranking_values[spec_index * runs : (spec_index + 1) * runs],
            )

    def test_execute_process_matches_serial(self, small_trace):
        plan_serial = _sweep_pipeline(small_trace).plan()
        plan_process = _sweep_pipeline(small_trace).plan()
        a = plan_serial.execute(backend="serial")
        b = plan_process.execute(backend="process", jobs=3)
        np.testing.assert_array_equal(a.ranking_values, b.ranking_values)
        np.testing.assert_array_equal(a.detection_values, b.detection_values)
        np.testing.assert_array_equal(a.bin_start_times, b.bin_start_times)
        assert a.total_packets == b.total_packets


# ----------------------------------------------------------------------
# Batch transport: every worker replays the stream
# ----------------------------------------------------------------------
#: Runs one process-backend execute in a fresh interpreter and reports
#: whether it started multiprocessing's resource tracker or left a new
#: entry in ``/dev/shm``.  The fork start method is pinned because the
#: spawn and forkserver methods start the tracker for their own
#: semaphores, whatever the plan does.
_NO_SHARED_STATE_SCRIPT = """
import json, multiprocessing, os, sys
sys.path.insert(0, sys.argv[1])
multiprocessing.set_start_method("fork")
from multiprocessing import resource_tracker
from repro.pipeline import Pipeline

def listing():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

before = listing()
plan = (
    Pipeline()
    .with_trace("sprint", scale=0.002, duration=120.0)
    .with_sampler("bernoulli", rate=0.1)
    .with_runs(4)
    .with_seed(3)
    .plan()
)
plan.execute(backend="process", jobs=2)
print(json.dumps({
    "transport": plan.transport_used,
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "new_shm": sorted(listing() - before),
}))
"""


class TestBatchTransports:
    def test_process_backend_replays_bit_identically(self, small_trace):
        serial = _sweep_pipeline(small_trace).plan().execute(backend="serial")
        plan = _sweep_pipeline(small_trace).plan()
        outcome = plan.execute(backend="process", jobs=2)
        np.testing.assert_array_equal(serial.ranking_values, outcome.ranking_values)
        np.testing.assert_array_equal(serial.detection_values, outcome.detection_values)
        np.testing.assert_array_equal(serial.bin_start_times, outcome.bin_start_times)
        assert serial.total_packets == outcome.total_packets
        assert plan.transport_used == "replay"

    def test_serial_backend_records_no_transport(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        plan.execute(backend="serial")
        assert plan.transport_used is None

    @pytest.mark.skipif(sys.platform != "linux", reason="needs the fork start method")
    def test_process_backend_leaves_no_shared_memory_or_tracker(self):
        child = subprocess.run(
            [sys.executable, "-c", _NO_SHARED_STATE_SCRIPT, str(REPO_SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        report = json.loads(child.stdout.strip().splitlines()[-1])
        assert report == {"transport": "replay", "tracker_pid": None, "new_shm": []}
