"""Per-packet reference for :class:`~repro.flows.table.BinnedFlowTable`.

The library's binned table buffers packets into column chunks and folds
them into the columnar accounting engine.  :class:`PerPacketFlowTable`
is the same monitor built on the public
:class:`~repro.flows.classifier.FlowClassifier`, one ``Packet`` at a
time: when a new flow meets a full table the smallest tracked flow is
evicted first, and each closed bin reports the classifier's
deterministic ranking.
"""

from __future__ import annotations

from repro.flows.classifier import FlowClassifier
from repro.flows.keys import FiveTupleKeyPolicy, FlowKeyPolicy
from repro.flows.packets import Packet
from repro.flows.table import FlowBin


class PerPacketFlowTable:
    """Object-level binned flow table with the ``BinnedFlowTable`` API."""

    def __init__(
        self,
        bin_duration: float,
        key_policy: FlowKeyPolicy | None = None,
        max_flows: int | None = None,
    ) -> None:
        self.bin_duration = float(bin_duration)
        self.max_flows = max_flows
        self._classifier = FlowClassifier(
            key_policy if key_policy is not None else FiveTupleKeyPolicy()
        )
        self._current_bin_index = 0
        self._completed: list[FlowBin] = []
        self.evictions = 0

    @property
    def completed_bins(self) -> list[FlowBin]:
        """Bins that have been closed so far."""
        return list(self._completed)

    def observe(self, packet: Packet) -> None:
        """Account one packet, closing bins as time advances."""
        bin_index = int(packet.timestamp // self.bin_duration)
        if bin_index < self._current_bin_index:
            raise ValueError("packets must be observed in non-decreasing time order")
        while bin_index > self._current_bin_index:
            self._close_bin()
            self._current_bin_index += 1
        key = self._classifier.key_policy.key_of(packet.five_tuple)
        if (
            not self._classifier.tracks(key)
            and self.max_flows is not None
            and self._classifier.num_flows >= self.max_flows
        ):
            self._classifier.evict_smallest()
            self.evictions += 1
        self._classifier.observe(packet)

    def flush(self) -> list[FlowBin]:
        """Close the current bin (if non-empty) and return all completed bins."""
        if self._classifier.num_flows > 0:
            self._close_bin()
            self._current_bin_index += 1
        return list(self._completed)

    def _close_bin(self) -> None:
        flows = tuple(self._classifier.export_sorted())
        if flows:
            # Empty measurement intervals produce no report.
            index = self._current_bin_index
            self._completed.append(
                FlowBin(
                    index=index,
                    start_time=index * self.bin_duration,
                    end_time=(index + 1) * self.bin_duration,
                    flows=flows,
                )
            )
        self._classifier.reset()


__all__ = ["PerPacketFlowTable"]
