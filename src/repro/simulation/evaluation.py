"""Vectorised swapped-pair metrics for trace-driven simulations.

The reference implementations in :mod:`repro.core.metrics` are written
for clarity (explicit double loops over flow pairs); a 30-minute trace
with thousands of flows per bin, 30 sampling runs and several sampling
rates needs something faster.  This module computes the same ranking and
detection metrics with NumPy and no Python loop over flows.

Scoring splits into two halves.  The *truth* half depends only on a
bin's true counts: the true top-t flows and how every flow's size
compares with each of theirs.  :class:`TopFlows` holds it as ``t x n``
boolean masks and is built once per bin.  The *stream* half,
:func:`swapped_pair_counts`, then counts one stream's swapped pairs with
a few whole-array comparisons against the sampled sizes of the top
flows.  Every stream of a bin shares one :class:`TopFlows`:

>>> import numpy as np
>>> original = np.array([9, 7, 7, 3, 1])
>>> truth = TopFlows(original, top_t=2)
>>> truth.top.tolist()
[0, 1]
>>> [swapped_pair_counts(original, sampled, 2, truth=truth).ranking
...  for sampled in (np.array([4, 3, 3, 1, 0]), np.array([2, 3, 0, 1, 0]))]
[0, 2]

The pair-swapping convention matches :mod:`repro.core.metrics` exactly,
and the test suite cross-checks the two implementations on random
inputs.  The masks take ``2 * t * n`` bytes per bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metrics import true_top_indices


@dataclass(frozen=True)
class SwappedPairCounts:
    """Ranking and detection swapped-pair counts for one bin and one run."""

    ranking: int
    detection: int
    top_t: int
    num_flows: int


def _effective_top_t(top_t: int, num_flows: int) -> int:
    """``top_t`` clamped to ``[1, num_flows]`` (0 when there are no flows)."""
    return int(min(max(top_t, 1), num_flows))


class TopFlows:
    """The stream-independent half of scoring one bin.

    Built once from a bin's true counts, it serves every stream of the
    bin.  ``original`` holds the counts, ``top_t`` the effective number
    of top flows (``top_t`` clamped to ``[1, n]``; 0 for an empty bin)
    and ``top`` their indices, ties broken by index as in
    :func:`~repro.core.metrics.true_top_indices`.  Row ``r`` of the
    ``t x n`` masks ``less`` and ``greater`` marks the flows whose true
    size is below, respectively above, that of top flow ``top[r]``.
    Flows of equal true size are usually few, so they are listed sparsely:
    pair ``k`` joins top flow ``top[equal_rows[k]]`` with flow
    ``equal_flows[k]`` (never itself), and ``equal_in_top[k]`` says
    whether that flow is a top flow too.  The counts must not change
    while the truth is in use.

    Raises
    ------
    ValueError
        If the counts are not 1-D or some count is below 1.
    """

    def __init__(self, original_counts: np.ndarray, top_t: int) -> None:
        original = np.asarray(original_counts, dtype=np.int64)
        if original.ndim != 1:
            raise ValueError("original counts must form a 1-D array")
        if np.any(original < 1):
            raise ValueError("original counts must be at least 1 packet")
        self.original = original
        self.top_t = _effective_top_t(top_t, original.size)
        self.top = true_top_indices(original, self.top_t)
        top_sizes = original[self.top][:, None]
        self.less = original < top_sizes
        self.greater = original > top_sizes
        rows, flows = np.nonzero(original == top_sizes)
        partner = flows != self.top[rows]
        self.equal_rows = rows[partner]
        self.equal_flows = flows[partner]
        is_top = np.zeros(original.size, dtype=bool)
        is_top[self.top] = True
        self.equal_in_top = is_top[self.equal_flows]


def swapped_pair_counts(
    original_counts: np.ndarray,
    sampled_counts: np.ndarray,
    top_t: int,
    truth: TopFlows | None = None,
) -> SwappedPairCounts:
    """Count swapped pairs between original and sampled flow sizes.

    A flow smaller than a top flow is swapped with it when its sampled
    size reaches the top flow's, a bigger one when its sampled size does
    not exceed it, and one of equal size when the two sampled sizes
    differ or are both zero.

    Parameters
    ----------
    original_counts:
        True flow sizes (packets) of every flow observed in the bin.
    sampled_counts:
        Sampled sizes of the same flows (0 when the flow was missed).
    top_t:
        Number of top flows of interest.  When the bin holds fewer than
        ``top_t`` flows, all of them are treated as top flows.
    truth:
        The bin's :class:`TopFlows`, shared by every stream scored
        against the same true counts; built here when omitted.

    Returns
    -------
    SwappedPairCounts
        ``ranking`` counts pairs (true top flow, any other flow);
        ``detection`` counts pairs (true top flow, flow outside the true
        top list).

    Raises
    ------
    ValueError
        If the arrays are not 1-D of equal length, an original count is
        below 1, or ``truth`` was built for other counts or another
        ``top_t``.
    """
    original = np.asarray(original_counts, dtype=np.int64)
    sampled = np.asarray(sampled_counts, dtype=np.int64)
    if original.shape != sampled.shape or original.ndim != 1:
        raise ValueError("original and sampled counts must be 1-D arrays of equal length")
    if original.size == 0:
        return SwappedPairCounts(ranking=0, detection=0, top_t=0, num_flows=0)
    if truth is None:
        truth = TopFlows(original, top_t)
    elif truth.top_t != _effective_top_t(top_t, original.size) or not (
        truth.original is original or np.array_equal(truth.original, original)
    ):
        raise ValueError("truth was built for other original counts or another top_t")

    # Swapped (top flow, flow) pairs, ordered: each (top, top) pair is
    # counted twice, and its columns of the t x n products form the
    # t x t top block.
    sampled_top = sampled[truth.top]
    column = sampled_top[:, None]
    smaller = truth.less & (sampled >= column)
    bigger = truth.greater & (sampled <= column)
    total_swapped = np.count_nonzero(smaller) + np.count_nonzero(bigger)
    top_top_swapped = np.count_nonzero(smaller[:, truth.top]) + np.count_nonzero(
        bigger[:, truth.top]
    )
    if truth.equal_flows.size:
        sampled_equal = sampled[truth.equal_flows]
        tied = (sampled_equal != sampled_top[truth.equal_rows]) | (sampled_equal == 0)
        total_swapped += np.count_nonzero(tied)
        top_top_swapped += np.count_nonzero(tied & truth.equal_in_top)
    return SwappedPairCounts(
        ranking=int(total_swapped - top_top_swapped // 2),
        detection=int(total_swapped - top_top_swapped),
        top_t=truth.top_t,
        num_flows=int(original.size),
    )


def ranking_pair_budget(num_flows: int, top_t: int) -> float:
    """Total number of pairs the ranking metric considers."""
    if num_flows < 1 or top_t < 1:
        raise ValueError("num_flows and top_t must be positive")
    t = min(top_t, num_flows)
    return (2 * num_flows - t - 1) * t / 2.0


def detection_pair_budget(num_flows: int, top_t: int) -> float:
    """Total number of pairs the detection metric considers."""
    if num_flows < 1 or top_t < 1:
        raise ValueError("num_flows and top_t must be positive")
    t = min(top_t, num_flows)
    return float(t * (num_flows - t))


__all__ = [
    "SwappedPairCounts",
    "TopFlows",
    "swapped_pair_counts",
    "ranking_pair_budget",
    "detection_pair_budget",
]
