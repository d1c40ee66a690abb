"""Whole-stream reference for the flow-accounting engine.

:class:`~repro.flows.accounting.FlowAccountingEngine` folds chunks into
a hash accumulator (unbounded) or an event-driven eviction table
(``max_flows``).  :func:`reference_accounts` computes what its
``flush()`` must return from the whole packet stream at once: each
measurement bin is grouped in one go with the stable-sort
:func:`~repro.flows.groupby.aggregate_codes`, and a bounded bin is
replayed one packet at a time, evicting the smallest flow (fewest
packets, ties by ``order_key``) whenever a new flow meets a full table.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.flows.accounting import BinAccount
from repro.flows.groupby import aggregate_codes


def reference_accounts(
    timestamps: np.ndarray,
    codes: np.ndarray,
    sizes_bytes: np.ndarray,
    bin_duration: float,
    max_flows: int | None = None,
    order_key: Callable[[int], object] | None = None,
) -> tuple[list[BinAccount], int]:
    """Per-bin accounts and total evictions of a time-sorted packet stream.

    Parameters
    ----------
    timestamps, codes, sizes_bytes:
        The whole stream as aligned columns, timestamps non-decreasing.
    bin_duration:
        Measurement interval length in seconds.
    max_flows:
        Flow-table bound (``None`` = unbounded).
    order_key:
        Eviction tie-break of a code; defaults to the code itself.

    Returns
    -------
    tuple[list[BinAccount], int]
        One account per non-empty bin, in bin order, and the number of
        evictions over the whole stream.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    code_arr = np.asarray(codes, dtype=np.int64)
    sizes = np.asarray(sizes_bytes, dtype=np.int64)
    key = order_key if order_key is not None else (lambda code: code)
    bin_indices = np.floor_divide(ts, bin_duration).astype(np.int64)
    bins, starts = np.unique(bin_indices, return_index=True)
    bounds = np.append(starts, ts.size)
    accounts: list[BinAccount] = []
    evictions = 0
    for position, index in enumerate(bins.tolist()):
        lo, hi = int(bounds[position]), int(bounds[position + 1])
        if max_flows is None:
            columns = aggregate_codes(code_arr[lo:hi], ts[lo:hi], sizes[lo:hi])
        else:
            columns, evicted = _replay_bounded(
                ts[lo:hi], code_arr[lo:hi], sizes[lo:hi], max_flows, key
            )
            evictions += evicted
        unique, packets, byte_sums, first, last = columns
        accounts.append(
            BinAccount(
                index=index,
                start_time=index * bin_duration,
                end_time=(index + 1) * bin_duration,
                codes=unique,
                packets=packets,
                bytes=byte_sums,
                first_seen=first,
                last_seen=last,
            )
        )
    return accounts, evictions


def _replay_bounded(
    timestamps: np.ndarray,
    codes: np.ndarray,
    sizes: np.ndarray,
    max_flows: int,
    order_key: Callable[[int], object],
) -> tuple[tuple[np.ndarray, ...], int]:
    """One bin of a bounded table, packet by packet."""
    table: dict[int, list] = {}
    evictions = 0
    for ts, code, size in zip(timestamps.tolist(), codes.tolist(), sizes.tolist()):
        record = table.get(code)
        if record is None:
            if len(table) >= max_flows:
                victim = min(table, key=lambda tracked: (table[tracked][0], order_key(tracked)))
                del table[victim]
                evictions += 1
            table[code] = [1, size, ts, ts]
        else:
            record[0] += 1
            record[1] += size
            record[2] = min(record[2], ts)
            record[3] = max(record[3], ts)
    ordered = sorted(table)
    columns = (
        np.array(ordered, dtype=np.int64),
        np.array([table[code][0] for code in ordered], dtype=np.int64),
        np.array([table[code][1] for code in ordered], dtype=np.int64),
        np.array([table[code][2] for code in ordered], dtype=np.float64),
        np.array([table[code][3] for code in ordered], dtype=np.float64),
    )
    return columns, evictions


def accounts_identical(left: list[BinAccount], right: list[BinAccount]) -> bool:
    """Bit-for-bit equality of two account lists."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.index, a.start_time, a.end_time) != (b.index, b.start_time, b.end_time):
            return False
        for field in ("codes", "packets", "bytes", "first_seen", "last_seen"):
            x, y = getattr(a, field), getattr(b, field)
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
    return True


__all__ = ["accounts_identical", "reference_accounts"]
