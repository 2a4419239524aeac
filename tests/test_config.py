"""Configuration validation and round-trip tests."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import BlobSeerConfig, ClientConfig, PLACEMENT_STRATEGIES
from repro.core.errors import InvalidConfigError


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Non-default values for the fields whose domain is not "any number".
_CHOSEN = {
    "placement_strategy": "load_aware",
    "storage_root": "/x",
    "transport": "network",
    "net_host": "0.0.0.0",
    "net_codec": "msgpack",
    "net_standby_per_shard": 0,
}


def _non_default_kwargs(cls) -> dict:
    """A value different from the default for every field of ``cls``."""
    kwargs = {}
    for f in fields(cls):
        if f.name in _CHOSEN:
            kwargs[f.name] = _CHOSEN[f.name]
        elif f.name == "client":
            kwargs[f.name] = ClientConfig(**_non_default_kwargs(ClientConfig))
        elif isinstance(f.default, bool):
            kwargs[f.name] = not f.default
        else:
            kwargs[f.name] = f.default + 1
    return kwargs


class TestValidation:
    def test_default_config_is_valid(self):
        config = BlobSeerConfig()
        assert config.num_data_providers >= 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_data_providers", 0),
            ("num_metadata_providers", 0),
            ("chunk_size", 0),
            ("replication", 0),
            ("dht_virtual_nodes", 0),
            ("metadata_replication", 0),
        ],
    )
    def test_non_positive_fields_rejected(self, field, value):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(**{field: value})

    def test_replication_cannot_exceed_providers(self):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(num_data_providers=2, replication=3)

    def test_metadata_replication_cannot_exceed_metadata_providers(self):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(num_metadata_providers=2, metadata_replication=3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(placement_strategy="clever")

    @pytest.mark.parametrize("strategy", PLACEMENT_STRATEGIES)
    def test_known_strategies_accepted(self, strategy):
        assert BlobSeerConfig(placement_strategy=strategy).placement_strategy == strategy

    def test_client_config_validation(self):
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(client=ClientConfig(metadata_cache_capacity=0))
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(client=ClientConfig(prefetch_chunks=-1))
        with pytest.raises(InvalidConfigError):
            BlobSeerConfig(client=ClientConfig(write_buffer_chunks=0))


class TestDerivation:
    def test_with_replaces_and_revalidates(self):
        config = BlobSeerConfig(num_data_providers=4)
        bigger = config.with_(num_data_providers=16)
        assert bigger.num_data_providers == 16
        assert config.num_data_providers == 4  # original untouched
        with pytest.raises(InvalidConfigError):
            config.with_(replication=100)

    def test_dict_roundtrip(self):
        # Every field non-default, so a field to_dict() forgot (storage_root
        # was one) comes back as its default and breaks the equality.
        config = BlobSeerConfig(**_non_default_kwargs(BlobSeerConfig))
        default = BlobSeerConfig()
        for cls, a, b in (
            (BlobSeerConfig, config, default),
            (ClientConfig, config.client, default.client),
        ):
            for f in fields(cls):
                assert getattr(a, f.name) != getattr(b, f.name), f.name
        rebuilt = BlobSeerConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_contains_client_fields(self):
        d = BlobSeerConfig().to_dict()
        assert "client.metadata_cache" in d
        assert "chunk_size" in d


class TestKnobLiveness:
    """A settable value nobody reads is a lie in the README: every config
    field must be read as an attribute somewhere outside core/config.py."""

    @pytest.mark.parametrize("cls", [BlobSeerConfig, ClientConfig])
    def test_every_field_is_read_outside_config(self, cls):
        text = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))
            if path != SRC / "core" / "config.py"
        )
        dead = [
            f.name
            for f in fields(cls)
            if not re.search(rf"\.{re.escape(f.name)}\b", text)
        ]
        assert dead == []


# -- knob x deployment matrix ---------------------------------------------------

#: The assembly knobs every deployment kind must honour or reject: every
#: settable field except ``transport``, ``net_*``, ``obs_*`` and ``client.*``,
#: plus the deployment's ``seed`` argument.
ASSEMBLY_KNOBS = {
    f.name
    for f in fields(BlobSeerConfig)
    if f.name not in ("transport", "client") and not f.name.startswith(("net_", "obs_"))
} | {"seed"}

SEED = 7
CHUNK = 4096
#: Knobs a deployment kind refuses at construction instead of honouring.
REJECTED = {"simulated": {"persistent_storage", "storage_root"}}


def _matrix_config(root: Path, **overrides) -> BlobSeerConfig:
    """One config with every assembly knob off its default."""
    values = dict(
        num_data_providers=3,
        num_metadata_providers=3,
        num_version_managers=2,
        chunk_size=CHUNK,
        replication=2,
        placement_strategy="random",
        dht_virtual_nodes=8,
        metadata_replication=2,
        persistent_storage=True,
        storage_root=str(root),
        journal_enabled=True,
        journal_snapshot_interval=2,
        shard_failover=False,
    )
    values.update(overrides)
    return BlobSeerConfig(**values)


def _placements(provider_manager, count: int = 6):
    """The chunk placement sequence of ``count`` fresh 4-chunk writes."""
    return [
        [(offset, tuple(replicas)) for offset, replicas in plan.placements]
        for _, plan in (
            provider_manager.allocate(1, 0, 4 * CHUNK, CHUNK) for _ in range(count)
        )
    ]


def _reference(config: BlobSeerConfig, seed: int) -> dict:
    """What the config asks for, computed without any deployment."""
    from repro.core.data_provider import DataProvider, ProviderPool
    from repro.core.provider_manager import ProviderManager
    from repro.core.version_coordinator import ShardedVersionManager
    from repro.dht import DistributedKeyValueStore

    pool = ProviderPool(
        [DataProvider(f"provider-{i:03d}") for i in range(config.num_data_providers)]
    )
    dht = DistributedKeyValueStore(
        [f"meta-{i:03d}" for i in range(config.num_metadata_providers)],
        virtual_nodes=config.dht_virtual_nodes,
        replication=config.metadata_replication,
    )
    vm = ShardedVersionManager(
        num_shards=config.num_version_managers, virtual_nodes=config.dht_virtual_nodes
    )
    return {
        "placements": _placements(ProviderManager(pool, config, seed=seed)),
        "meta_owners": [dht.owners(("key", i)) for i in range(64)],
        "shard_of": [vm.shard_index(blob_id) for blob_id in range(1, 65)],
    }


def _observe_routing(deployment) -> dict:
    """Placement, DHT ownership and coordinator routing, read off a fresh
    deployment (placement first: the probe must see the seed's sequence)."""
    return {
        "placements": _placements(deployment.provider_manager),
        "meta_owners": [deployment.metadata_store.owners(("key", i)) for i in range(64)],
        "shard_of": [
            deployment.version_manager.shard_index(blob_id) for blob_id in range(1, 65)
        ],
    }


def _replicas_per_key(store) -> float:
    keys = store.scan_keys()
    assert keys
    return sum(store.load_per_provider().values()) / len(keys)


def _write_through_client(deployment) -> int:
    """Four 2-chunk appends on a fresh blob; returns the chunks written."""
    blob = deployment.client().create_blob()
    for index in range(4):
        blob.append(bytes([index]) * 2 * CHUNK)
    assert blob.read(0, CHUNK) == bytes(CHUNK)
    return 8


class TestKnobDeploymentMatrix:
    """Every assembly knob is honoured — an observable effect — or rejected
    with ``InvalidConfigError`` at construction, on every deployment kind."""

    def test_matrix_config_moves_every_assembly_knob(self, tmp_path):
        config, default = _matrix_config(tmp_path), BlobSeerConfig()
        moved = {k for k in ASSEMBLY_KNOBS - {"seed"} if getattr(config, k) != getattr(default, k)}
        assert moved == ASSEMBLY_KNOBS - {"seed"}
        # The seed is observable through the placement sequence.
        assert _reference(config, SEED)["placements"] != _reference(config, 0)["placements"]

    def _assert_routing(self, observed, config, cells):
        expected = _reference(config, SEED)
        assert observed["placements"] == expected["placements"]
        cells.update({"seed", "placement_strategy", "replication", "num_data_providers"})
        assert observed["meta_owners"] == expected["meta_owners"]
        assert observed["meta_owners"] != _reference(
            config.with_(dht_virtual_nodes=32), SEED
        )["meta_owners"]
        cells.update({"dht_virtual_nodes", "num_metadata_providers", "metadata_replication"})
        assert observed["shard_of"] == expected["shard_of"]
        assert len(set(observed["shard_of"])) == 2
        cells.add("num_version_managers")

    def test_direct(self, tmp_path):
        from repro.core.deployment import BlobSeerDeployment

        config, cells = _matrix_config(tmp_path / "chunks"), set()
        # A storage root without persistent stores would be silently unused.
        with pytest.raises(InvalidConfigError):
            BlobSeerDeployment(config.with_(persistent_storage=False))
        with BlobSeerDeployment(config, seed=SEED) as deployment:
            self._assert_routing(_observe_routing(deployment), config, cells)
            info = deployment.create_blob()
            assert (info.chunk_size, info.replication) == (CHUNK, 2)
            cells.add("chunk_size")
            chunks = _write_through_client(deployment)
            reports = deployment.storage_report()
            assert len(reports) == 3
            assert sum(r["chunks_stored"] for r in reports) == 2 * chunks
            assert _replicas_per_key(deployment.metadata_store) == 2
            logs = sorted((tmp_path / "chunks").glob("provider-*/chunks.log"))
            assert len(logs) == 3 and sum(log.stat().st_size for log in logs) > 2 * chunks * CHUNK
            cells.update({"persistent_storage", "storage_root"})
            journals = deployment.version_manager.journals
            assert journals is not None and len(journals) == 2
            cells.add("journal_enabled")
            assert max(j.stream_state()["snapshot_lsn"] for j in journals) > 0
            cells.add("journal_snapshot_interval")
            assert deployment.version_manager.standbys is None
            cells.add("shard_failover")
        assert cells == ASSEMBLY_KNOBS

    def test_simulated(self, tmp_path):
        from repro.sim import SimulatedBlobSeer, prime_blob

        # Simulated providers hold no payloads: both storage knobs are refused.
        with pytest.raises(InvalidConfigError):
            SimulatedBlobSeer(_matrix_config(tmp_path, storage_root=None), seed=SEED)
        with pytest.raises(InvalidConfigError):
            SimulatedBlobSeer(_matrix_config(tmp_path, persistent_storage=False), seed=SEED)
        config = _matrix_config(tmp_path, persistent_storage=False, storage_root=None)
        cells = set(REJECTED["simulated"])
        cluster = SimulatedBlobSeer(config, seed=SEED)
        self._assert_routing(_observe_routing(cluster), config, cells)
        assert len(cluster.data_nodes) == 3 and len(cluster.meta_nodes) == 3
        assert len(cluster.version_manager_nodes) == 2
        blob = cluster.create_blob()
        assert (blob.chunk_size, blob.replication) == (CHUNK, 2)
        cells.add("chunk_size")
        for _ in range(4):
            prime_blob(cluster, blob, 2 * CHUNK)
        assert sum(r["chunks_stored"] for r in cluster.provider_pool.reports()) == 16
        assert _replicas_per_key(cluster.metadata_store) == 2
        assert cluster.durable and len(cluster.journals) == 2
        cells.add("journal_enabled")
        assert max(j.stream_state()["snapshot_lsn"] for j in cluster.journals) > 0
        cells.add("journal_snapshot_interval")
        assert cluster.version_manager.standbys is None
        cells.add("shard_failover")
        assert cells == ASSEMBLY_KNOBS

    def test_process(self, tmp_path):
        import json

        from repro.net.deployment import ProcessDeployment

        config, cells = _matrix_config(tmp_path / "chunks"), set()
        with pytest.raises(InvalidConfigError):
            ProcessDeployment(config=config.with_(persistent_storage=False))
        deployment = ProcessDeployment(config=config, seed=SEED, monitor=False)
        try:
            self._assert_routing(_observe_routing(deployment), config, cells)
            info = deployment.create_blob()
            assert (info.chunk_size, info.replication) == (CHUNK, 2)
            cells.add("chunk_size")
            chunks = _write_through_client(deployment)
            reports = [rpc.call("report") for rpc in deployment.provider_rpcs.values()]
            assert len(reports) == 3
            assert sum(r["chunks_stored"] for r in reports) == 2 * chunks
            assert _replicas_per_key(deployment.metadata_store) == 2
            logs = sorted((tmp_path / "chunks").glob("provider-*/chunks.log"))
            assert len(logs) == 3 and sum(log.stat().st_size for log in logs) > 2 * chunks * CHUNK
            cells.update({"persistent_storage", "storage_root"})
            wal_dir = Path(deployment._journal_dir)
            assert sorted(p.name for p in wal_dir.glob("wal-*.jsonl")) == [
                "wal-vm-000.jsonl",
                "wal-vm-001.jsonl",
            ]
            cells.add("journal_enabled")
            snapshots = [json.loads(p.read_text()) for p in wal_dir.glob("snapshot-vm-*.json")]
            assert len(snapshots) == 2 and max(s["lsn"] for s in snapshots) > 0
            cells.add("journal_snapshot_interval")
            # No standby process: 3 providers + 3 metadata nodes + 2 shards + pmgr.
            assert len(deployment.processes) == 9
            cells.add("shard_failover")
        finally:
            deployment.close()
        assert cells == ASSEMBLY_KNOBS
