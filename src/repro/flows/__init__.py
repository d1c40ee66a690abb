"""Flow abstraction substrate: keys, packets, records, classification.

Two APIs cover the monitor path:

* the **object API** — :class:`Packet` streams through
  :class:`FlowClassifier` / :class:`BinnedFlowTable`;
* the **columnar API** — :class:`PacketBatch` chunks through the
  :class:`FlowAccountingEngine`, with flow keys carried as integer
  codes (:class:`FlowKeyEncoder`).

:class:`BinnedFlowTable` accounts through the engine, so both produce
the same bins.
"""

from .accounting import (
    BinAccount,
    FlowAccountingEngine,
    aggregate_codes,
    bin_segments,
)
from .classifier import FlowClassifier
from .groupby import HashAccumulator
from .keys import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    DestinationPrefixKeyEncoder,
    DestinationPrefixKeyPolicy,
    FiveTuple,
    FiveTupleKeyEncoder,
    FiveTupleKeyPolicy,
    FlowKeyEncoder,
    FlowKeyPolicy,
    ObjectKeyEncoder,
    flow_key_order,
    int_to_ip,
    ip_to_int,
    prefix_of,
)
from .packets import DEFAULT_PACKET_SIZE_BYTES, Packet, PacketBatch
from .records import FlowRecord, FlowSummary, ranking_sort_key
from .table import BinnedFlowTable, FlowBin

__all__ = [
    "FiveTuple",
    "FlowKeyPolicy",
    "FiveTupleKeyPolicy",
    "DestinationPrefixKeyPolicy",
    "FlowKeyEncoder",
    "FiveTupleKeyEncoder",
    "DestinationPrefixKeyEncoder",
    "ObjectKeyEncoder",
    "flow_key_order",
    "ip_to_int",
    "int_to_ip",
    "prefix_of",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
    "Packet",
    "PacketBatch",
    "DEFAULT_PACKET_SIZE_BYTES",
    "FlowRecord",
    "FlowSummary",
    "ranking_sort_key",
    "FlowClassifier",
    "BinnedFlowTable",
    "FlowBin",
    "BinAccount",
    "FlowAccountingEngine",
    "HashAccumulator",
    "aggregate_codes",
    "bin_segments",
]
