"""Comparison baselines used by the paper's experiments.

* :class:`HdfsLikeFileSystem` — write-once, single-writer, centralised
  namespace file system (the HDFS stand-in of the Hadoop experiments).

The centralised-metadata (E5) and lock-based (E9) baselines are simulator
configurations, not separate stores: a :class:`~repro.sim.SimulatedBlobSeer`
with ``num_metadata_providers=1``, and
:meth:`~repro.sim.protocols.SimClient.write_locked` / ``read_locked``.
"""

from .hdfs_like import HdfsError, HdfsLikeFileSystem, HdfsWriter

__all__ = [
    "HdfsError",
    "HdfsLikeFileSystem",
    "HdfsWriter",
]
