"""Configuration objects for a BlobSeer deployment.

A :class:`BlobSeerConfig` describes one logical deployment: how many data
providers and metadata providers exist, the default chunk size, the chunk
placement strategy, the replication level, and client-side options such as
metadata caching and prefetching.  The same configuration object is used by
the in-process runtime (functional tests, examples) and by the
discrete-event simulator (benchmarks), so an experiment is fully described
by a config plus a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping

from .errors import InvalidConfigError

#: Chunk placement strategies understood by the provider manager.
PLACEMENT_STRATEGIES = ("round_robin", "random", "load_aware")

#: Default chunk size: 64 KiB keeps functional tests fast while remaining a
#: realistic power of two; the paper typically uses 64 MiB chunks on
#: Grid'5000, which benchmarks select explicitly.
DEFAULT_CHUNK_SIZE = 64 * 1024


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Client-side tuning knobs."""

    #: Cache metadata tree nodes on the client (Section IV.A of the paper).
    metadata_cache: bool = True
    #: Maximum number of tree nodes kept in the client cache (LRU).
    metadata_cache_capacity: int = 65536
    #: Number of chunks prefetched ahead of a sequential stream (BSFS).
    prefetch_chunks: int = 2
    #: Buffer size (bytes) used by BSFS streaming writes before flushing.
    write_buffer_chunks: int = 4


@dataclass(frozen=True, slots=True)
class BlobSeerConfig:
    """Static description of one BlobSeer deployment."""

    num_data_providers: int = 4
    num_metadata_providers: int = 4
    #: Number of version-coordinator shards; blobs are routed to shards by
    #: consistent hash on blob id, so cross-blob commits never contend.
    num_version_managers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    replication: int = 1
    placement_strategy: str = "round_robin"
    #: Number of virtual nodes per metadata provider on the DHT ring.
    dht_virtual_nodes: int = 32
    #: Replication level for metadata tree nodes inside the DHT.
    metadata_replication: int = 1
    #: Use the persistent (file-backed) chunk store instead of RAM only.
    persistent_storage: bool = False
    #: Directory used by persistent stores (``None`` -> temporary dir owned
    #: by the deployment); deployments reject it without ``persistent_storage``.
    storage_root: str | None = None
    #: Journal every version-coordinator shard (write-ahead log + snapshot);
    #: a crashed/restarted shard replays back to its published frontier.
    journal_enabled: bool = False
    #: Auto-snapshot a shard journal every N records (0 = never compact).
    journal_snapshot_interval: int = 0
    #: Stream each shard's journal to a hot standby that serves the shard's
    #: blobs while it is down (needs ``journal_enabled``; in-process the
    #: standby lives on the ring successor, so it needs >= 2 shards;
    #: networked it is its own process and needs ``net_standby_per_shard``).
    shard_failover: bool = True
    #: How client operations reach the services: ``"direct"`` composes the
    #: deployment in-process (the default); ``"network"`` spawns each
    #: service as its own process and talks framed RPC over TCP
    #: (:mod:`repro.net`).  ``make_deployment`` dispatches on this field.
    transport: str = "direct"
    #: Interface the networked servers bind (and clients dial).
    net_host: str = "127.0.0.1"
    #: Seconds allowed for establishing one TCP connection.
    net_connect_timeout: float = 5.0
    #: Seconds allowed for one RPC round trip once connected.
    net_request_timeout: float = 30.0
    #: Retry sweeps over a service's server list after the first failed one.
    net_max_retries: int = 3
    #: Exponential backoff between retry sweeps: base * 2^sweep, capped.
    net_backoff_base: float = 0.05
    net_backoff_max: float = 1.0
    #: Frame codec: ``"json"`` always works; ``"msgpack"`` needs the
    #: optional msgpack package and fails fast when it is absent.
    net_codec: str = "json"
    #: Seconds between ``ClusterMonitor`` health probes of the networked
    #: coordinator shards and their standbys.
    net_heartbeat_interval: float = 0.25
    #: Consecutive missed heartbeats before the monitor marks a coordinator
    #: shard down and triggers its standby's takeover.
    net_failover_suspect_after: int = 3
    #: Process-hosted standbys per coordinator shard in networked mode
    #: (0 or 1; the ring-successor topology hosts at most one).  Standbys
    #: need a journal directory to stream from, so they only spawn when the
    #: deployment is journal-backed (``journal_enabled`` or an explicit
    #: ``journal_dir``).
    net_standby_per_shard: int = 1
    #: Record distributed-tracing spans (client op spans, RPC envelopes,
    #: server-side decode/dispatch/journal spans).  Off by default; the
    #: metrics plane is always on (it is orders of magnitude cheaper).
    obs_tracing: bool = False
    #: Log any op/span slower than this many seconds to the tracer's
    #: slow-op log (0 = slow-op logging disabled).
    obs_slow_op_threshold: float = 0.0
    #: Seconds between ``ClusterMonitor`` metrics scrapes of the watched
    #: servers, piggybacked on the heartbeat loop (0 = scrape on demand
    #: only, via ``ProcessDeployment.metrics_snapshot()``).
    obs_metrics_interval: float = 0.0
    client: ClientConfig = field(default_factory=ClientConfig)

    def __post_init__(self) -> None:
        validate_config(self)

    # -- convenience -------------------------------------------------------
    def with_(self, **kwargs: Any) -> "BlobSeerConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Flatten the configuration to a plain dict (for reports/logs).

        Every field appears once; the nested client knobs are flattened
        under a ``client.`` prefix.
        """
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "client"}
        d.update(
            {f"client.{f.name}": getattr(self.client, f.name) for f in fields(self.client)}
        )
        return d

    @staticmethod
    def from_dict(values: Mapping[str, Any]) -> "BlobSeerConfig":
        """Build a configuration from a flat mapping (inverse of to_dict)."""
        client_kwargs = {
            key.split(".", 1)[1]: value
            for key, value in values.items()
            if key.startswith("client.")
        }
        top_kwargs = {
            key: value for key, value in values.items() if not key.startswith("client.")
        }
        return BlobSeerConfig(client=ClientConfig(**client_kwargs), **top_kwargs)


def validate_config(config: BlobSeerConfig) -> None:
    """Raise :class:`InvalidConfigError` if any field is out of domain."""
    if config.num_data_providers < 1:
        raise InvalidConfigError("num_data_providers must be >= 1")
    if config.num_metadata_providers < 1:
        raise InvalidConfigError("num_metadata_providers must be >= 1")
    if config.num_version_managers < 1:
        raise InvalidConfigError("num_version_managers must be >= 1")
    if config.chunk_size < 1:
        raise InvalidConfigError("chunk_size must be >= 1 byte")
    if config.replication < 1:
        raise InvalidConfigError("replication must be >= 1")
    if config.replication > config.num_data_providers:
        raise InvalidConfigError(
            f"replication={config.replication} exceeds the number of data "
            f"providers ({config.num_data_providers})"
        )
    if config.placement_strategy not in PLACEMENT_STRATEGIES:
        raise InvalidConfigError(
            f"unknown placement strategy {config.placement_strategy!r}; "
            f"expected one of {PLACEMENT_STRATEGIES}"
        )
    if config.dht_virtual_nodes < 1:
        raise InvalidConfigError("dht_virtual_nodes must be >= 1")
    if config.metadata_replication < 1:
        raise InvalidConfigError("metadata_replication must be >= 1")
    if config.metadata_replication > config.num_metadata_providers:
        raise InvalidConfigError(
            "metadata_replication exceeds the number of metadata providers"
        )
    if config.journal_snapshot_interval < 0:
        raise InvalidConfigError("journal_snapshot_interval must be >= 0")
    if config.transport not in ("direct", "network"):
        raise InvalidConfigError(
            f"unknown transport {config.transport!r}; expected 'direct' or 'network'"
        )
    if config.net_connect_timeout <= 0:
        raise InvalidConfigError("net_connect_timeout must be > 0")
    if config.net_request_timeout <= 0:
        raise InvalidConfigError("net_request_timeout must be > 0")
    if config.net_max_retries < 0:
        raise InvalidConfigError("net_max_retries must be >= 0")
    if config.net_backoff_base < 0:
        raise InvalidConfigError("net_backoff_base must be >= 0")
    if config.net_backoff_max < config.net_backoff_base:
        raise InvalidConfigError("net_backoff_max must be >= net_backoff_base")
    if config.net_codec not in ("json", "msgpack"):
        raise InvalidConfigError(
            f"unknown net_codec {config.net_codec!r}; expected 'json' or 'msgpack'"
        )
    if config.net_heartbeat_interval <= 0:
        raise InvalidConfigError("net_heartbeat_interval must be > 0")
    if config.net_failover_suspect_after < 1:
        raise InvalidConfigError("net_failover_suspect_after must be >= 1")
    if not 0 <= config.net_standby_per_shard <= 1:
        raise InvalidConfigError(
            "net_standby_per_shard must be 0 or 1 (one ring-successor standby)"
        )
    if config.obs_slow_op_threshold < 0:
        raise InvalidConfigError("obs_slow_op_threshold must be >= 0")
    if config.obs_metrics_interval < 0:
        raise InvalidConfigError("obs_metrics_interval must be >= 0")
    if config.client.metadata_cache_capacity < 1:
        raise InvalidConfigError("metadata_cache_capacity must be >= 1")
    if config.client.prefetch_chunks < 0:
        raise InvalidConfigError("prefetch_chunks must be >= 0")
    if config.client.write_buffer_chunks < 1:
        raise InvalidConfigError("write_buffer_chunks must be >= 1")
