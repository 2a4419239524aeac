"""BlobSeer reproduction: efficient data management for data-intensive applications.

This package reimplements the BlobSeer large-object storage service
(Nicolae, Antoniu, Bougé — IPDPS 2010) together with every substrate its
evaluation relies on:

* :mod:`repro.core` — the blob layer: versioning access interface, data
  striping, distributed segment-tree metadata, versioning-based concurrency
  control, replication.
* :mod:`repro.dht` — the consistent-hashing DHT hosting the metadata.
* :mod:`repro.storage` — RAM, persistent and cached chunk stores.
* :mod:`repro.sim` — a discrete-event cluster simulator used by the
  throughput experiments (the paper's Grid'5000 testbed substitute).
* :mod:`repro.fs` — BSFS, the hierarchical file system built on blobs, with
  streaming I/O and data-location exposure.
* :mod:`repro.mapreduce` — a small locality-aware MapReduce engine used to
  reproduce the Hadoop experiments.
* :mod:`repro.baselines` — the HDFS-like comparison file system; the
  centralised-metadata and lock-based baselines are simulator
  configurations (``num_metadata_providers=1``, ``SimClient.write_locked``).
* :mod:`repro.qos` — monitoring, GloBeM-style behaviour modelling and
  feedback-driven reconfiguration.
* :mod:`repro.resilience` — durability & recovery: per-shard write-ahead
  journals, coordinator shard failover, anti-entropy DHT scrubbing.
* :mod:`repro.workloads` / :mod:`repro.bench` — workload generators and the
  benchmark harness regenerating every experiment of the paper.

Quickstart::

    from repro import BlobSeerConfig, BlobSeerDeployment

    deployment = BlobSeerDeployment(BlobSeerConfig(num_data_providers=8))
    client = deployment.client()
    blob = client.create_blob(chunk_size=64 * 1024)
    v1 = blob.append(b"hello, ")
    v2 = blob.append(b"world")
    assert blob.read(0, blob.size()) == b"hello, world"
    assert blob.read(0, blob.size(version=v1), version=v1) == b"hello, "
"""

from .core import (
    AppendOp,
    Batch,
    Blob,
    BlobSeerClient,
    BlobSeerConfig,
    BlobSeerDeployment,
    BlobSession,
    ClientConfig,
    DEFAULT_CHUNK_SIZE,
    DirectTransport,
    OpFuture,
    OpResult,
    OpStatus,
    ReadOp,
    Transport,
    WriteOp,
)
from .core import errors

__version__ = "1.1.0"

__all__ = [
    "AppendOp",
    "Batch",
    "Blob",
    "BlobSeerClient",
    "BlobSeerConfig",
    "BlobSeerDeployment",
    "BlobSession",
    "ClientConfig",
    "DEFAULT_CHUNK_SIZE",
    "DirectTransport",
    "OpFuture",
    "OpResult",
    "OpStatus",
    "ReadOp",
    "Transport",
    "WriteOp",
    "errors",
    "__version__",
]
