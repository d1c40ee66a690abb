"""Per-top-flow reference for swapped-pair scoring.

:func:`~repro.simulation.evaluation.swapped_pair_counts` counts a
stream's swapped pairs with whole-array comparisons against the masks of
a shared :class:`~repro.simulation.evaluation.TopFlows`.
:func:`reference_swapped_pair_counts` is the loop it must reproduce bit
for bit: it re-sorts the true counts on every call and compares each top
flow with every flow in turn.  The double loop in
:mod:`repro.core.metrics` stays the semantic reference for both.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import true_top_indices
from repro.simulation.evaluation import SwappedPairCounts


def reference_swapped_pair_counts(
    original_counts: np.ndarray,
    sampled_counts: np.ndarray,
    top_t: int,
) -> SwappedPairCounts:
    """Swapped pairs of one bin and stream, one NumPy pass per top flow."""
    original = np.asarray(original_counts, dtype=np.int64)
    sampled = np.asarray(sampled_counts, dtype=np.int64)
    if original.shape != sampled.shape or original.ndim != 1:
        raise ValueError("original and sampled counts must be 1-D arrays of equal length")
    if original.size == 0:
        return SwappedPairCounts(ranking=0, detection=0, top_t=0, num_flows=0)
    if np.any(original < 1):
        raise ValueError("original counts must be at least 1 packet")
    t = int(min(max(top_t, 1), original.size))

    top = true_top_indices(original, t)
    top_mask = np.zeros(original.size, dtype=bool)
    top_mask[top] = True

    total_swapped = 0  # pairs (top flow, any flow), ordered
    top_top_swapped = 0  # pairs (top flow, top flow), ordered (counted twice)
    for i in top:
        o_i = original[i]
        s_i = sampled[i]
        different = original != o_i
        swapped_diff = np.where(original < o_i, sampled >= s_i, s_i >= sampled)
        swapped_equal = (sampled != s_i) | ((sampled == 0) & (s_i == 0))
        swapped = np.where(different, swapped_diff, swapped_equal)
        swapped[i] = False
        total_swapped += int(swapped.sum())
        top_top_swapped += int(swapped[top_mask].sum())

    return SwappedPairCounts(
        ranking=int(total_swapped - top_top_swapped // 2),
        detection=int(total_swapped - top_top_swapped),
        top_t=t,
        num_flows=int(original.size),
    )
