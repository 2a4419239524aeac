"""Workload drivers: spawn simulated clients and collect experiment metrics.

Every experiment of the paper boils down to "N concurrent clients each
perform K operations of a given kind against one (or several) blobs; report
the aggregated throughput".  The drivers here express exactly that and
return the cluster's :class:`~repro.sim.metrics.MetricsCollector`, so the
benchmark harness only has to sweep parameters and print rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

from ..core.config import BlobSeerConfig
from ..core.types import BlobInfo
from .cluster import SimulatedBlobSeer
from .metrics import MetricsCollector
from .network import NetworkModel
from .protocols import SimClient


@dataclass(frozen=True)
class WorkloadResult:
    """Everything a benchmark needs from one simulated run."""

    cluster: SimulatedBlobSeer
    metrics: MetricsCollector
    makespan: float


def build_cluster(
    config: Optional[BlobSeerConfig] = None,
    model: Optional[NetworkModel] = None,
    seed: int = 0,
) -> SimulatedBlobSeer:
    """Convenience constructor used by benchmarks."""
    return SimulatedBlobSeer(config=config, model=model, seed=seed)


def _run_all(cluster: SimulatedBlobSeer, processes: Sequence) -> float:
    cluster.env.run()
    return cluster.env.now


# ---------------------------------------------------------------------------
# Write / append workloads
# ---------------------------------------------------------------------------


def run_concurrent_writers(
    cluster: SimulatedBlobSeer,
    blob: BlobInfo,
    num_clients: int,
    write_size: int,
    writes_per_client: int = 1,
    disjoint: bool = True,
    use_locks: bool = False,
) -> WorkloadResult:
    """N clients write ``write_size`` bytes each, ``writes_per_client`` times.

    ``disjoint=True`` gives every client its own region of the blob (the
    paper's write-throughput experiments); ``disjoint=False`` makes everyone
    overwrite the same region (worst-case metadata contention).
    The blob must already be large enough to cover the written regions —
    prime it with :func:`prime_blob` first.
    """
    clients = [cluster.client() for _ in range(num_clients)]

    def client_workload(index: int, client: SimClient) -> Generator:
        for round_index in range(writes_per_client):
            if disjoint:
                offset = index * write_size
            else:
                offset = 0
            if use_locks:
                yield from client.write_locked(blob, offset, write_size)
            else:
                yield from client.write(blob, offset, write_size)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(index, client), name=f"writer-{index}")
    makespan = _run_all(cluster, clients)
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=makespan)


def run_concurrent_appenders(
    cluster: SimulatedBlobSeer,
    blob: BlobInfo,
    num_clients: int,
    append_size: int,
    appends_per_client: int = 1,
) -> WorkloadResult:
    """N clients append ``append_size`` bytes each to the *same* blob."""
    clients = [cluster.client() for _ in range(num_clients)]

    def client_workload(client: SimClient) -> Generator:
        for _ in range(appends_per_client):
            yield from client.append(blob, append_size)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(clients[index]), name=f"appender-{index}")
    makespan = _run_all(cluster, clients)
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=makespan)


def run_multi_blob_appenders(
    cluster: SimulatedBlobSeer,
    blobs: Sequence[BlobInfo],
    num_clients: int,
    append_size: int,
    appends_per_client: int = 1,
) -> WorkloadResult:
    """N clients append concurrently, spread round-robin over M blobs.

    This is the multi-blob commit storm of the version-sharding experiment
    (E11): every append is independent across blobs, so the only cross-client
    coupling left is the version-coordinator service itself — one shard
    serialises everything, N shards spread the register/publish RPCs over N
    simulated machines.
    """
    clients = [cluster.client() for _ in range(num_clients)]

    def client_workload(index: int, client: SimClient) -> Generator:
        blob = blobs[index % len(blobs)]
        for _ in range(appends_per_client):
            yield from client.append(blob, append_size)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(index, client), name=f"appender-{index}")
    makespan = _run_all(cluster, clients)
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=makespan)


# ---------------------------------------------------------------------------
# Read workloads
# ---------------------------------------------------------------------------


def prime_blob(
    cluster: SimulatedBlobSeer, blob: BlobInfo, total_size: int, writer_chunk: int = 0
) -> None:
    """Fill a blob with ``total_size`` bytes before the measured phase.

    The priming writes run through the simulator too (so metadata and
    placement are exactly what real writes would produce) but their metrics
    are discarded: the collector is reset afterwards.
    """
    writer = cluster.client("primer")
    step = writer_chunk if writer_chunk > 0 else blob.chunk_size * 64

    def fill() -> Generator:
        written = 0
        while written < total_size:
            size = min(step, total_size - written)
            yield from writer.append(blob, size)
            written += size

    cluster.env.process(fill(), name="primer")
    cluster.env.run()
    cluster.metrics.records.clear()


def run_concurrent_readers(
    cluster: SimulatedBlobSeer,
    blob: BlobInfo,
    num_clients: int,
    read_size: int,
    reads_per_client: int = 1,
    disjoint: bool = True,
    version: Optional[int] = None,
    use_locks: bool = False,
    seed: int = 11,
) -> WorkloadResult:
    """N clients read ``read_size`` bytes each from the same blob snapshot."""
    clients = [cluster.client() for _ in range(num_clients)]
    rng = random.Random(seed)
    snapshot = cluster.version_manager.get_snapshot(blob.blob_id, version)
    max_offset = max(0, snapshot.size - read_size)

    def client_workload(index: int, client: SimClient) -> Generator:
        for round_index in range(reads_per_client):
            if disjoint:
                offset = min((index * read_size) % max(1, snapshot.size), max_offset)
            else:
                offset = rng.randrange(0, max_offset + 1) if max_offset > 0 else 0
            if use_locks:
                yield from client.read_locked(blob, offset, read_size, version)
            else:
                yield from client.read(blob, offset, read_size, version)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(index, client), name=f"reader-{index}")
    makespan = _run_all(cluster, clients)
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=makespan)


# ---------------------------------------------------------------------------
# Mixed workloads (read/write decoupling, QoS runs)
# ---------------------------------------------------------------------------


def run_mixed_workload(
    cluster: SimulatedBlobSeer,
    blob: BlobInfo,
    num_readers: int,
    num_writers: int,
    op_size: int,
    ops_per_client: int = 4,
    use_locks: bool = False,
    seed: int = 13,
) -> WorkloadResult:
    """Readers and writers hammer the same blob concurrently.

    With versioning-based concurrency control the readers keep reading the
    published snapshot while writers publish new ones; with ``use_locks``
    both sides serialise on the per-blob lock (the ablation baseline).
    """
    rng = random.Random(seed)
    snapshot = cluster.version_manager.get_snapshot(blob.blob_id)
    max_offset = max(0, snapshot.size - op_size)

    def reader_workload(client: SimClient) -> Generator:
        for _ in range(ops_per_client):
            offset = rng.randrange(0, max_offset + 1) if max_offset > 0 else 0
            if use_locks:
                yield from client.read_locked(blob, offset, op_size)
            else:
                yield from client.read(blob, offset, op_size)

    def writer_workload(client: SimClient) -> Generator:
        for _ in range(ops_per_client):
            offset = rng.randrange(0, max_offset + 1) if max_offset > 0 else 0
            if use_locks:
                yield from client.write_locked(blob, offset, op_size)
            else:
                yield from client.write(blob, offset, op_size)

    for index in range(num_readers):
        cluster.env.process(reader_workload(cluster.client()), name=f"reader-{index}")
    for index in range(num_writers):
        cluster.env.process(writer_workload(cluster.client()), name=f"writer-{index}")
    makespan = _run_all(cluster, [])
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=makespan)


def run_sustained_multi_blob_appenders(
    cluster: SimulatedBlobSeer,
    blobs: Sequence[BlobInfo],
    num_clients: int,
    append_size: int,
    duration: float,
) -> WorkloadResult:
    """Clients append round-robin over M blobs for ``duration`` sim-seconds.

    The time-driven twin of :func:`run_multi_blob_appenders` — the shape
    the elastic-membership experiment (E14) needs: a steady commit storm
    whose per-window throughput can be compared before and after a live
    coordinator scale-out injected mid-run.
    """
    clients = [cluster.client() for _ in range(num_clients)]

    def client_workload(index: int, client: SimClient) -> Generator:
        blob = blobs[index % len(blobs)]
        while cluster.env.now < duration:
            yield from client.append(blob, append_size)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(index, client), name=f"appender-{index}")
    cluster.env.run()
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=cluster.env.now)


def run_sustained_appends(
    cluster: SimulatedBlobSeer,
    blob: BlobInfo,
    num_clients: int,
    append_size: int,
    duration: float,
) -> WorkloadResult:
    """Clients keep appending for ``duration`` simulated seconds (QoS runs).

    Used by the failure/QoS experiment, where throughput over *time* (not a
    fixed number of operations) is the object of study.
    """
    clients = [cluster.client() for _ in range(num_clients)]

    def client_workload(client: SimClient) -> Generator:
        while cluster.env.now < duration:
            yield from client.append(blob, append_size)

    for index, client in enumerate(clients):
        cluster.env.process(client_workload(client), name=f"appender-{index}")
    cluster.env.run()
    return WorkloadResult(cluster=cluster, metrics=cluster.metrics, makespan=cluster.env.now)
