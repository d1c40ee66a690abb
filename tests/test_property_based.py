"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.gaussian import misranking_probability_gaussian
from repro.core.metrics import detection_swapped_pairs, ranking_swapped_pairs
from repro.core.misranking import misranking_probability_exact
from repro.core.optimal_rate import optimal_rate_gaussian
from repro.distributions import DiscreteFlowSizes, ParetoFlowSizes
from repro.flows.keys import int_to_ip, ip_to_int, prefix_of
from repro.simulation.evaluation import (
    TopFlows,
    detection_pair_budget,
    ranking_pair_budget,
    swapped_pair_counts,
)

sizes = st.integers(min_value=1, max_value=300)
rates = st.floats(min_value=0.01, max_value=1.0)
small_rates = st.floats(min_value=0.001, max_value=0.999)


class TestMisrankingProperties:
    @given(size_a=sizes, size_b=sizes, rate=rates)
    @settings(max_examples=60, deadline=None)
    def test_exact_probability_in_unit_interval(self, size_a, size_b, rate):
        value = misranking_probability_exact(size_a, size_b, rate)
        assert 0.0 <= value <= 1.0

    @given(size_a=sizes, size_b=sizes, rate=rates)
    @settings(max_examples=60, deadline=None)
    def test_exact_probability_symmetric(self, size_a, size_b, rate):
        forward = misranking_probability_exact(size_a, size_b, rate)
        backward = misranking_probability_exact(size_b, size_a, rate)
        assert forward == backward

    @given(size_a=sizes, size_b=sizes, rate_low=small_rates, rate_high=small_rates)
    @settings(max_examples=40, deadline=None)
    def test_exact_probability_monotone_in_rate(self, size_a, size_b, rate_low, rate_high):
        # Monotonicity in the sampling rate holds for flows of distinct
        # sizes; the equal-size tie probability is not monotone.
        assume(size_a != size_b)
        low, high = sorted((rate_low, rate_high))
        assert misranking_probability_exact(size_a, size_b, high) <= (
            misranking_probability_exact(size_a, size_b, low) + 1e-9
        )

    @given(size_a=sizes, size_b=sizes, rate=small_rates)
    @settings(max_examples=60, deadline=None)
    def test_gaussian_bounded_by_half(self, size_a, size_b, rate):
        value = float(misranking_probability_gaussian(size_a, size_b, rate))
        assert 0.0 <= value <= 0.5 + 1e-12

    @given(size_a=sizes, size_b=sizes, target=st.floats(min_value=1e-4, max_value=0.4))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_optimal_rate_achieves_target(self, size_a, size_b, target):
        rate = optimal_rate_gaussian(size_a, size_b, target)
        assert 0.0 <= rate <= 1.0
        if 0.0 < rate < 1.0:
            achieved = float(misranking_probability_gaussian(size_a, size_b, rate))
            assert achieved <= target * (1.0 + 1e-6)


class TestMetricProperties:
    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        rate=st.floats(min_value=0.05, max_value=1.0),
        top_t=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_and_reference_metrics_agree(self, original, rate, top_t, seed):
        rng = np.random.default_rng(seed)
        original_arr = np.array(original)
        sampled = rng.binomial(original_arr, rate)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, sampled, t)
        assert counts.ranking == ranking_swapped_pairs(original_arr, sampled, t)
        assert counts.detection == detection_swapped_pairs(original_arr, sampled, t)

    @given(
        original=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=30),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_shared_truth_matches_reference_on_ties(self, original, data):
        # Tie-heavy sizes, sampled counts with zeros and above the
        # original, and top_t outside [1, n] (clamped by the kernel).
        n = len(original)
        original_arr = np.array(original)
        top_t = data.draw(st.integers(min_value=0, max_value=n + 5))
        streams = data.draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
        t = min(max(top_t, 1), n)
        truth = TopFlows(original_arr, top_t)
        for stream in streams:
            sampled = np.array(stream)
            ranking = ranking_swapped_pairs(original_arr, sampled, t)
            detection = detection_swapped_pairs(original_arr, sampled, t)
            for shared in (truth, None):
                counts = swapped_pair_counts(original_arr, sampled, top_t, truth=shared)
                assert (counts.ranking, counts.detection, counts.top_t) == (
                    ranking,
                    detection,
                    t,
                )

    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        top_t=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_metrics_within_pair_budgets(self, original, top_t, seed):
        rng = np.random.default_rng(seed)
        original_arr = np.array(original)
        sampled = rng.binomial(original_arr, 0.2)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, sampled, t)
        assert 0 <= counts.ranking <= ranking_pair_budget(len(original), t)
        assert 0 <= counts.detection <= detection_pair_budget(len(original), t)
        assert counts.detection <= counts.ranking

    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        top_t=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_perfect_sampling_has_no_swaps(self, original, top_t):
        original_arr = np.array(original)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, original_arr, t)
        assert counts.ranking == 0
        assert counts.detection == 0


class TestDistributionProperties:
    @given(
        shape=st.floats(min_value=1.05, max_value=4.0),
        mean=st.floats(min_value=2.0, max_value=100.0),
        level=st.floats(min_value=0.0, max_value=0.999999),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_quantile_inverts_cdf(self, shape, mean, level):
        dist = ParetoFlowSizes.from_mean(mean=mean, shape=shape)
        x = dist.quantile(level)
        assert np.isclose(dist.cdf(x), level, atol=1e-9)

    @given(
        shape=st.floats(min_value=1.05, max_value=4.0),
        mean=st.floats(min_value=2.0, max_value=100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pareto_discretisation_normalised(self, shape, mean):
        dist = ParetoFlowSizes.from_mean(mean=mean, shape=shape)
        grid = dist.discretize(num_points=100)
        assert np.isclose(grid.probabilities.sum(), 1.0, atol=1e-9)
        assert np.all(np.diff(grid.sizes) > 0)

    @given(
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=1000),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_discrete_distribution_pmf_normalised(self, entries):
        dist = DiscreteFlowSizes.from_mapping(entries)
        assert np.isclose(dist.pmf_values.sum(), 1.0)
        assert np.isclose(dist.cdf(1000.0), 1.0)


class TestAddressProperties:
    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ip_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(
        value=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=0, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_is_idempotent_and_contained(self, value, length):
        prefix = prefix_of(value, length)
        assert prefix_of(prefix, length) == prefix
        assert prefix <= value
