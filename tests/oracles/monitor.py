"""Staged reference for the monitor-in-the-loop pass.

:func:`~repro.pipeline.executor.run_monitor_stream` makes one fused pass
per chunk: codes are gathered once and every accounting engine takes
trusted masked views through ``observe_sorted_chunk``.
:func:`reference_monitor_stream` is the staged pass the fused one must
reproduce bit for bit: per chunk, the truth engine and then every
stream's monitor take a separate, validating ``observe_chunk`` call on
boolean-masked columns.  Samplers see the same chunks in the same
order, so they consume the same draws.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.flows.accounting import BinAccount, FlowAccountingEngine
from repro.flows.packets import PacketBatch
from repro.pipeline.executor import MonitorOutcome
from repro.sampling.base import PacketSampler
from repro.simulation.evaluation import swapped_pair_counts


def reference_monitor_stream(
    chunks: Iterable[PacketBatch],
    group_of_flow: np.ndarray,
    stream_samplers: list[PacketSampler],
    bin_duration: float,
    top_t: int,
    max_flows: int | None = None,
) -> MonitorOutcome:
    """Sampler -> accounting engine -> metrics, one validating call per engine."""
    groups = np.asarray(group_of_flow, dtype=np.int64)
    num_streams = len(stream_samplers)
    truth = FlowAccountingEngine(bin_duration)
    monitors = [
        FlowAccountingEngine(bin_duration, max_flows=max_flows) for _ in range(num_streams)
    ]
    # Monitor bins closed but not yet matched with a truth bin, per stream.
    pending: list[dict[int, BinAccount]] = [{} for _ in range(num_streams)]
    completed: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def _score(account: BinAccount) -> None:
        for stream in range(num_streams):
            monitors[stream].close_until(account.index + 1)
            for closed in monitors[stream].drain_completed():
                pending[stream][closed.index] = closed
        ranking_row = np.empty(num_streams, dtype=float)
        detection_row = np.empty(num_streams, dtype=float)
        for stream in range(num_streams):
            monitor_account = pending[stream].pop(account.index, None)
            if monitor_account is None:
                sampled = np.zeros(account.codes.size, dtype=np.int64)
            else:
                sampled = monitor_account.counts_for(account.codes)
            counts = swapped_pair_counts(account.packets, sampled, top_t)
            ranking_row[stream] = counts.ranking
            detection_row[stream] = counts.detection
        completed.append((account.index, account.num_flows, ranking_row, detection_row))

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        codes = groups[chunk.flow_ids]
        truth.observe_chunk(chunk.timestamps, codes, chunk.sizes_bytes)
        for stream, sampler in enumerate(stream_samplers):
            mask = np.asarray(sampler.sample_mask(chunk), dtype=bool)
            monitors[stream].observe_chunk(
                chunk.timestamps[mask], codes[mask], chunk.sizes_bytes[mask]
            )
        # Bins the stream head has moved past can never grow again.
        for account in truth.drain_completed():
            _score(account)
    for account in truth.flush():
        _score(account)

    completed.sort(key=lambda entry: entry[0])
    return MonitorOutcome(
        bin_start_times=np.array([index * bin_duration for index, _, _, _ in completed]),
        flows_per_bin=float(np.mean([flows for _, flows, _, _ in completed])),
        total_packets=truth.packets_seen,
        ranking_values=np.stack([row for _, _, row, _ in completed], axis=1),
        detection_values=np.stack([row for _, _, _, row in completed], axis=1),
        evictions=np.array([monitor.evictions for monitor in monitors], dtype=np.int64),
        max_flows=max_flows,
    )


__all__ = ["reference_monitor_stream"]
