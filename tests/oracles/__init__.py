"""Reference implementations the library's fast paths are checked against.

Each oracle is the straightforward version of one pipeline stage, kept
out of ``src/`` because nothing but the tests and the benchmark harness
runs it:

* :mod:`oracles.sources` — concatenate + stable-argsort chunk assembly
  for every :class:`~repro.traces.source.PacketSource`;
* :mod:`oracles.accounting` — whole-bin sort group-by and per-packet
  eviction replay for :class:`~repro.flows.accounting.FlowAccountingEngine`;
* :mod:`oracles.table` — a per-packet binned table over
  :class:`~repro.flows.classifier.FlowClassifier` for
  :class:`~repro.flows.table.BinnedFlowTable`;
* :mod:`oracles.monitor` — the staged, validating monitor pass for
  :func:`~repro.pipeline.executor.run_monitor_stream`;
* :mod:`oracles.scoring` — per-top-flow swapped-pair counting, which
  re-sorts the true counts on every call, for
  :func:`~repro.simulation.evaluation.swapped_pair_counts`.

Test modules import them as ``oracles.<name>`` (pytest puts ``tests/``
on ``sys.path``); ``benchmarks/harness.py`` adds ``tests/`` itself.
"""

from .scoring import reference_swapped_pair_counts

__all__ = ["reference_swapped_pair_counts"]
