"""Self-tests of the benchmark itself, on the real workloads (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_corrupted_golden_counts_every_iteration_as_failed() -> None:
    golden = {"paper_sweep": {"0": "0" * 64}}
    line, report = run.measure("paper_sweep", 0, 0.0, False, golden)
    assert line["attempted"] >= 2
    assert line["failed"] == line["attempted"]
    assert line["correct"] is False
    assert report["error_rate"] == 1.0
    assert "differs from the golden" in report["failures"][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_output_equals_untraced_and_wrappers_are_removed(name: str) -> None:
    harness = run.Harness(name, 0, run.load_golden())
    try:
        plain = harness.iterate()
        outcome = harness.traced_iterate()
    finally:
        harness.close()
    assert harness.expected is not None
    assert plain is not None and outcome is not None
    assert outcome[0].output_digest == plain.output_digest == harness.expected
    assert harness.failed == 0, harness.failures
    assert tracer.wrapped_attributes() == []
    # The entry point's own time is not attributed to any layer.
    layers = outcome[1]
    assert 0.0 < layers["trace.coverage"] < 1.0
    assert layers["trace.unattributed_s"] > 0.0
    assert layers["trace.unattributed_s"] == pytest.approx(
        outcome[0].cold_s * (1.0 - layers["trace.coverage"])
    )


def test_wrappers_are_installed_only_inside_the_traced_block() -> None:
    with tracer.traced(tracer.Recorder()):
        inside = tracer.wrapped_attributes()
    assert "Pipeline.run" in inside
    assert "FlowAccountingEngine.observe_sorted_chunk" in inside
    assert any(name.endswith(".sample_mask") for name in inside)
    assert any(name.endswith(".iter_chunks") for name in inside)
    assert tracer.wrapped_attributes() == []


@pytest.mark.parametrize("name", ["paper_sweep", "monitor_bounded"])
def test_paper_quantities_repeat_exactly(name: str) -> None:
    harness = run.Harness(name, 3, {})
    try:
        first = harness.traced_iterate()
        second = harness.traced_iterate()
    finally:
        harness.close()
    assert first is not None and second is not None
    keys = ("simulation.ranking_pairs", "simulation.detection_pairs", "flows.evictions")
    assert [first[1][key] for key in keys] == [second[1][key] for key in keys]
    assert first[1]["simulation.ranking_pairs"] > 0
    if name == "monitor_bounded":
        assert first[1]["flows.evictions"] > 0


def test_no_process_outlives_a_run(capsys: pytest.CaptureFixture[str]) -> None:
    import multiprocessing
    from multiprocessing import resource_tracker

    assert run.main(["--workload", "sweep_cold_warm", "--seconds", "0", "--trace", "1"]) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]
    assert multiprocessing.active_children() == []
    # The shared-memory transport started the resource tracker; it was stopped.
    assert resource_tracker._resource_tracker._pid is None
