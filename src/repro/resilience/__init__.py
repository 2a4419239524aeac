"""Durability & recovery: WAL-backed shards, failover, anti-entropy scrub.

This package makes the deployment survive crashes of its stateful control
components (the paper's Section IV.E regime — long service up-time under
failures of physical components):

* :mod:`~repro.resilience.journal` — per-shard write-ahead log + snapshots;
  a restarted coordinator shard replays its journal back to the exact
  published frontier it crashed with.
* :mod:`~repro.resilience.failover` — each shard streams its commit records
  to a hot standby on its ring successor, which keeps the shard's blobs
  committing while the shard is down and hands the interim records back on
  rejoin.
* :mod:`~repro.resilience.scrub` — a background anti-entropy pass that
  walks the metadata DHT and re-replicates keys whose live owner sets are
  incomplete, instead of waiting for read repair to stumble on them.
"""

from .journal import JOURNAL_OPS, JournalRecord, JournalReplayError, ShardJournal, apply_record
from .failover import StreamedStandby
from .scrub import AntiEntropyScrubber, ScrubReport, ScrubTick

__all__ = [
    "AntiEntropyScrubber",
    "JOURNAL_OPS",
    "JournalRecord",
    "JournalReplayError",
    "ScrubReport",
    "ScrubTick",
    "ShardJournal",
    "StreamedStandby",
    "apply_record",
]
