"""Packet-to-flow classification.

The link monitor of the paper classifies (sampled) packets into flows
according to a flow definition (5-tuple or destination prefix) and keeps
one record per flow for the duration of a measurement interval.  The
:class:`FlowClassifier` implements that classification step for streams
of :class:`~repro.flows.packets.Packet` objects; the tests build a
per-packet binned table on it as the oracle the columnar engine
(:mod:`repro.flows.accounting`) is asserted bit-identical to.

Bulk ingestion (:meth:`FlowClassifier.observe_batch`) routes through the
engine's group-by aggregation, and eviction
(:meth:`FlowClassifier.evict_smallest`) is a public API backed by a lazy
min-heap — no caller needs to reach into the record dict, and evicting
costs O(log n) amortised instead of an O(n) min-scan.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from itertools import count

from .accounting import _HEAP_GROWTH, _HEAP_SLACK, aggregate_codes
from .keys import FiveTuple, FiveTupleKeyPolicy, FlowKeyPolicy, flow_key_order
from .packets import Packet, PacketBatch
from .records import FlowRecord, FlowSummary, ranking_sort_key


class FlowClassifier:
    """Classify packets into flows under a given flow definition.

    Parameters
    ----------
    key_policy:
        Flow definition (5-tuple by default; use
        :class:`~repro.flows.keys.DestinationPrefixKeyPolicy` for the
        /24 aggregation studied in the paper).

    Examples
    --------
    >>> from repro.flows.keys import FiveTuple
    >>> from repro.flows.packets import Packet
    >>> classifier = FlowClassifier()
    >>> ft = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 80)
    >>> classifier.observe(Packet(0.0, ft))
    >>> classifier.observe(Packet(0.1, ft))
    >>> [flow.packets for flow in classifier.export()]
    [2]
    """

    def __init__(self, key_policy: FlowKeyPolicy | None = None) -> None:
        self.key_policy = key_policy if key_policy is not None else FiveTupleKeyPolicy()
        self._records: dict[object, FlowRecord] = {}
        self._packets_seen = 0
        # Lazy eviction heap: None until evict_smallest is first used,
        # then kept in sync by every record update (stale entries are
        # discarded on pop).
        self._heap: list | None = None
        self._heap_seq = count()

    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        """Number of distinct flows observed so far."""
        return len(self._records)

    @property
    def packets_seen(self) -> int:
        """Total number of packets classified so far."""
        return self._packets_seen

    def tracks(self, key: object) -> bool:
        """Whether a flow record currently exists for ``key``."""
        return key in self._records

    def __contains__(self, key: object) -> bool:
        return self.tracks(key)

    def _record_for(self, key: object) -> FlowRecord:
        record = self._records.get(key)
        if record is None:
            record = FlowRecord(key=key)
            self._records[key] = record
        return record

    def _heap_push(self, key: object, record: FlowRecord) -> None:
        heapq.heappush(
            self._heap, (record.packets, flow_key_order(key), next(self._heap_seq), key)
        )

    def observe(self, packet: Packet) -> None:
        """Account one packet."""
        key = self.key_policy.key_of(packet.five_tuple)
        record = self._record_for(key)
        record.update(packet.timestamp, packet.size_bytes)
        if self._heap is not None:
            self._heap_push(key, record)
        self._packets_seen += 1

    def observe_many(self, packets: Iterable[Packet]) -> None:
        """Account a stream of packets."""
        for packet in packets:
            self.observe(packet)

    def observe_batch(self, batch: PacketBatch, five_tuples: Sequence[FiveTuple]) -> None:
        """Account a columnar packet chunk in one vectorised pass.

        The batch is group-by aggregated per flow id with the engine's
        :func:`~repro.flows.accounting.aggregate_codes`, then each
        distinct flow updates its record once — so the Python-level
        work scales with the flows in the chunk, not the packets.

        Parameters
        ----------
        batch:
            The packets, flow ids referencing ``five_tuples``.
        five_tuples:
            5-tuple of every flow id that can appear in the batch.
        """
        if len(batch) == 0:
            return
        if int(batch.flow_ids.max()) >= len(five_tuples):
            raise ValueError("five_tuples is too short for the flow ids present in the batch")
        flow_ids, packets, byte_sums, first, last = aggregate_codes(
            batch.flow_ids, batch.timestamps, batch.sizes_bytes
        )
        for position in range(flow_ids.size):
            key = self.key_policy.key_of(five_tuples[int(flow_ids[position])])
            record = self._record_for(key)
            record.merge(
                int(packets[position]),
                int(byte_sums[position]),
                float(first[position]),
                float(last[position]),
            )
            if self._heap is not None:
                self._heap_push(key, record)
        self._packets_seen += len(batch)

    # ------------------------------------------------------------------
    def evict_smallest(self) -> FlowSummary:
        """Remove the smallest tracked flow and return its final summary.

        The smallest flow has the fewest packets; ties break by
        :func:`~repro.flows.keys.flow_key_order` of the flow key, so the
        choice is deterministic and matches the columnar engine's
        bounded mode exactly.  Backed by a lazy min-heap: each eviction
        is O(log n) amortised.
        """
        if not self._records:
            raise ValueError("cannot evict from an empty classifier")
        if self._heap is None:
            self._heap = []
            for key, record in self._records.items():
                self._heap_push(key, record)
        while self._heap:
            packets, _, _, key = heapq.heappop(self._heap)
            record = self._records.get(key)
            if record is not None and record.packets == packets:
                summary = record.freeze()
                del self._records[key]
                if len(self._heap) > _HEAP_SLACK + _HEAP_GROWTH * len(self._records):
                    self._heap = []
                    for live_key, live_record in self._records.items():
                        self._heap_push(live_key, live_record)
                return summary
        raise AssertionError("eviction heap lost track of live records")  # pragma: no cover

    # ------------------------------------------------------------------
    def export(self) -> list[FlowSummary]:
        """Summaries of all flows observed so far (unsorted)."""
        return [record.freeze() for record in self._records.values()]

    def export_sorted(self) -> list[FlowSummary]:
        """Summaries in the monitor's ranking order.

        Decreasing packet count, then decreasing byte count, then the
        flow key (see :func:`~repro.flows.records.ranking_sort_key`) —
        fully deterministic, independent of observation order.
        """
        return sorted(self.export(), key=ranking_sort_key)

    def top(self, count: int) -> list[FlowSummary]:
        """The ``count`` largest flows by packet count."""
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        return self.export_sorted()[:count]

    def reset(self) -> None:
        """Clear all flow state (end of a measurement interval)."""
        self._records.clear()
        self._packets_seen = 0
        if self._heap is not None:
            self._heap = []


__all__ = ["FlowClassifier"]
