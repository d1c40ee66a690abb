"""Tests for binning, vectorised metrics and the simulation runner."""

from __future__ import annotations

import numpy as np
import pytest

import repro.pipeline.executor as executor_module
from repro.core.metrics import detection_swapped_pairs, ranking_swapped_pairs
from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from repro.flows.packets import PacketBatch
from repro.pipeline import Pipeline
from repro.simulation import (
    MetricSeries,
    SimulationConfig,
    TopFlows,
    build_bin_layouts,
    detection_pair_budget,
    ranking_pair_budget,
    run_trace_simulation,
    swapped_pair_counts,
)
from repro.traces import SyntheticTraceGenerator, sprint_like_config

from oracles import reference_swapped_pair_counts


class TestBinLayouts:
    def test_bins_cover_all_packets(self):
        timestamps = np.array([0.1, 0.2, 59.0, 61.0, 125.0])
        flow_ids = np.array([0, 1, 0, 2, 1])
        batch = PacketBatch(timestamps, flow_ids)
        layouts = build_bin_layouts(batch, np.arange(3), bin_duration=60.0)
        assert [layout.index for layout in layouts] == [0, 1, 2]
        assert sum(layout.num_packets for layout in layouts) == 5

    def test_original_counts_per_group(self):
        timestamps = np.array([0.0, 1.0, 2.0, 3.0])
        flow_ids = np.array([0, 0, 1, 1])
        groups = np.array([7, 9])  # flow 0 -> group 7, flow 1 -> group 9
        layouts = build_bin_layouts(PacketBatch(timestamps, flow_ids), groups, 60.0)
        layout = layouts[0]
        assert dict(zip(layout.group_keys, layout.original_counts)) == {7: 2, 9: 2}

    def test_sampled_counts_from_mask(self):
        timestamps = np.array([0.0, 1.0, 2.0, 3.0])
        flow_ids = np.array([0, 0, 1, 1])
        layouts = build_bin_layouts(PacketBatch(timestamps, flow_ids), np.arange(2), 60.0)
        layout = layouts[0]
        counts = layout.sampled_counts(np.array([True, False, False, True]))
        assert counts.tolist() == [1, 1]

    def test_rejects_bad_inputs(self):
        batch = PacketBatch(np.array([0.0]), np.array([5]))
        with pytest.raises(ValueError):
            build_bin_layouts(batch, np.arange(2), bin_duration=0.0)
        with pytest.raises(ValueError):
            build_bin_layouts(batch, np.arange(2), bin_duration=60.0)  # flow id 5 out of range

    def test_empty_batch_gives_no_bins(self):
        batch = PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))
        assert build_bin_layouts(batch, np.arange(1), 60.0) == []


class TestVectorisedMetrics:
    def test_matches_reference_implementation(self, rng):
        """The fast metric must agree with repro.core.metrics on random inputs."""
        for _ in range(25):
            n = int(rng.integers(5, 40))
            original = rng.integers(1, 500, size=n)
            sampled = rng.binomial(original, rng.uniform(0.05, 0.8))
            t = int(rng.integers(1, min(10, n) + 1))
            counts = swapped_pair_counts(original, sampled, t)
            assert counts.ranking == ranking_swapped_pairs(original, sampled, t)
            assert counts.detection == detection_swapped_pairs(original, sampled, t)

    def test_handles_fewer_flows_than_top_t(self):
        counts = swapped_pair_counts(np.array([5, 3]), np.array([0, 1]), top_t=10)
        assert counts.top_t == 2

    def test_empty_input(self):
        counts = swapped_pair_counts(np.array([], dtype=int), np.array([], dtype=int), 5)
        assert counts.ranking == 0 and counts.detection == 0

    def test_rejects_invalid_original_counts(self):
        with pytest.raises(ValueError):
            swapped_pair_counts(np.array([0, 2]), np.array([0, 1]), 1)

    def test_pair_budgets(self):
        assert ranking_pair_budget(100, 10) == (2 * 100 - 10 - 1) * 10 / 2
        assert detection_pair_budget(100, 10) == 10 * 90
        with pytest.raises(ValueError):
            ranking_pair_budget(0, 1)

    def test_perfect_sampling_counts_zero(self):
        original = np.array([50, 40, 30, 20, 10])
        counts = swapped_pair_counts(original, original, top_t=3)
        assert counts.ranking == 0
        assert counts.detection == 0


class TestSharedTruth:
    def test_real_pipeline_bins_match_the_oracle(self, monkeypatch):
        """Every bin of a 40-stream sprint run, scored with one shared truth."""
        scored = []
        library = executor_module.swapped_pair_counts

        def recording(original, sampled, top_t, truth=None):
            counts = library(original, sampled, top_t, truth=truth)
            scored.append((original, sampled.copy(), top_t, truth, counts))
            return counts

        monkeypatch.setattr(executor_module, "swapped_pair_counts", recording)
        result = (
            Pipeline()
            .with_trace("sprint", scale=0.03, duration=120)
            .with_sampling_rates((0.001, 0.01, 0.1, 0.5))
            .with_bin_duration(60.0)
            .with_top(10)
            .with_runs(10)
            .with_seed(3)
            .run(parallel="serial")
        )
        num_bins = next(iter(result.ranking.values())).values.shape[1]
        truths = {id(truth): truth for _, _, _, truth, _ in scored}
        assert None not in truths.values()
        assert len(truths) == num_bins
        assert len(scored) == 40 * num_bins
        assert max(original.size for original, *_ in scored) >= 2000
        for original, sampled, top_t, _, counts in scored:
            assert counts == reference_swapped_pair_counts(original, sampled, top_t)

    def test_mismatched_truth_rejected(self):
        original = np.array([9, 7, 7, 3, 1])
        sampled = np.array([4, 3, 3, 1, 0])
        truth = TopFlows(original, 2)
        with pytest.raises(ValueError, match="truth"):
            swapped_pair_counts(original, sampled, 3, truth=truth)
        with pytest.raises(ValueError, match="truth"):
            swapped_pair_counts(np.array([9, 7, 8, 3, 1]), sampled, 2, truth=truth)
        with pytest.raises(ValueError, match="truth"):
            swapped_pair_counts(original[:4], sampled[:4], 2, truth=truth)

    def test_truth_for_an_equivalent_top_t_accepted(self):
        original = np.array([5, 3])
        truth = TopFlows(original, 10)
        counts = swapped_pair_counts(original, np.array([0, 1]), 2, truth=truth)
        assert counts == swapped_pair_counts(original, np.array([0, 1]), 10)

    def test_truth_validates_counts(self):
        with pytest.raises(ValueError):
            TopFlows(np.array([0, 2]), 1)
        with pytest.raises(ValueError):
            TopFlows(np.ones((2, 2), dtype=int), 1)


class TestMetricSeries:
    def test_mean_and_std(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        series = MetricSeries("ranking", 0.1, np.array([0.0, 60.0]), values)
        np.testing.assert_allclose(series.mean, [2.0, 3.0])
        assert series.num_runs == 2
        assert series.overall_mean == pytest.approx(2.5)

    def test_acceptable_fraction(self):
        values = np.array([[0.0, 10.0], [0.0, 10.0]])
        series = MetricSeries("ranking", 0.1, np.array([0.0, 60.0]), values)
        assert series.fraction_of_bins_acceptable() == pytest.approx(0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MetricSeries("ranking", 0.1, np.array([0.0]), np.array([1.0, 2.0]))


class TestSimulationRunner:
    @pytest.fixture(scope="class")
    def simulation_result(self):
        config = sprint_like_config(scale=0.003, duration=300.0)
        trace = SyntheticTraceGenerator(config).generate(rng=11)
        sim_config = SimulationConfig(
            bin_duration=60.0,
            top_t=5,
            sampling_rates=(0.01, 0.5),
            num_runs=4,
            seed=11,
        )
        return run_trace_simulation(trace, sim_config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(bin_duration=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(sampling_rates=(1.5,))
        with pytest.raises(ValueError):
            SimulationConfig(num_runs=0)
        with pytest.raises(ValueError):
            SimulationConfig(evaluate_ranking=False, evaluate_detection=False)

    def test_result_structure(self, simulation_result):
        assert set(simulation_result.ranking) == {0.01, 0.5}
        assert set(simulation_result.detection) == {0.01, 0.5}
        series = simulation_result.series("ranking", 0.5)
        assert series.num_runs == 4
        assert series.num_bins >= 4
        assert simulation_result.flows_per_bin > 0

    def test_higher_rate_gives_lower_metric(self, simulation_result):
        low = simulation_result.series("ranking", 0.01).overall_mean
        high = simulation_result.series("ranking", 0.5).overall_mean
        assert high < low

    def test_detection_no_harder_than_ranking(self, simulation_result):
        for rate in (0.01, 0.5):
            ranking = simulation_result.series("ranking", rate).overall_mean
            detection = simulation_result.series("detection", rate).overall_mean
            assert detection <= ranking + 1e-9

    def test_summary_rows(self, simulation_result):
        rows = simulation_result.summary_rows()
        assert len(rows) == 4  # 2 problems x 2 rates
        assert {row["problem"] for row in rows} == {"ranking", "detection"}

    def test_unknown_series_raises(self, simulation_result):
        with pytest.raises(KeyError):
            simulation_result.series("ranking", 0.123)

    def test_prefix_policy_runs(self):
        config = sprint_like_config(scale=0.002, duration=180.0)
        trace = SyntheticTraceGenerator(config).generate(rng=21)
        sim_config = SimulationConfig(
            bin_duration=60.0,
            top_t=3,
            sampling_rates=(0.2,),
            num_runs=2,
            key_policy=DestinationPrefixKeyPolicy(24),
            seed=21,
        )
        result = run_trace_simulation(trace, sim_config)
        assert result.flow_definition == "/24 destination prefix"
        assert result.flows_per_bin > 0

    def test_reproducible_with_seed(self):
        config = sprint_like_config(scale=0.002, duration=120.0)
        trace = SyntheticTraceGenerator(config).generate(rng=31)
        sim_config = SimulationConfig(
            bin_duration=60.0, top_t=3, sampling_rates=(0.1,), num_runs=2, seed=31
        )
        a = run_trace_simulation(trace, sim_config)
        b = run_trace_simulation(trace, sim_config)
        np.testing.assert_allclose(
            a.series("ranking", 0.1).values, b.series("ranking", 0.1).values
        )

    def test_five_tuple_policy_name(self):
        assert FiveTupleKeyPolicy().name == "5-tuple"
