"""Fault-tolerance tests: replication, provider crashes, write repair."""

from __future__ import annotations

import pytest

from repro.core.config import BlobSeerConfig
from repro.core.deployment import BlobSeerDeployment
from repro.core.errors import ChunkNotFoundError, ProviderUnavailableError, ServiceError

CHUNK = 128


@pytest.fixture
def replicated():
    dep = BlobSeerDeployment(
        BlobSeerConfig(
            num_data_providers=5,
            num_metadata_providers=4,
            chunk_size=CHUNK,
            replication=3,
            metadata_replication=2,
        )
    )
    yield dep
    dep.close()


class TestDataReplication:
    def test_chunks_stored_on_replication_many_providers(self, replicated):
        blob = replicated.client().create_blob()
        blob.append(b"r" * CHUNK)
        holders = [p for p in replicated.data_providers if p.chunks_stored > 0]
        assert len(holders) == 3

    def test_read_survives_primary_crash(self, replicated):
        blob = replicated.client().create_blob()
        blob.append(b"important" * 100)
        expected = blob.read(0, blob.size())
        locations = blob.chunk_locations(0, blob.size())
        primary = locations[0][2][0]
        replicated.crash_data_provider(primary)
        fresh_reader = replicated.client("other").open_blob(blob.blob_id)
        assert fresh_reader.read(0, fresh_reader.size()) == expected

    def test_read_survives_two_crashes_with_replication_three(self, replicated):
        blob = replicated.client().create_blob()
        blob.append(b"x" * (CHUNK * 4))
        providers = blob.chunk_locations(0, CHUNK)[0][2]
        replicated.crash_data_provider(providers[0])
        replicated.crash_data_provider(providers[1])
        assert blob.read(0, CHUNK) == b"x" * CHUNK

    def test_unreplicated_data_lost_when_provider_dies(self):
        with BlobSeerDeployment(
            BlobSeerConfig(num_data_providers=3, chunk_size=CHUNK, replication=1)
        ) as deployment:
            blob = deployment.client().create_blob()
            blob.append(b"fragile" * 50)
            primary = blob.chunk_locations(0, CHUNK)[0][2][0]
            deployment.crash_data_provider(primary)
            with pytest.raises((ChunkNotFoundError, ProviderUnavailableError)):
                blob.read(0, CHUNK)

    def test_writes_continue_with_fewer_providers(self, replicated):
        replicated.crash_data_provider("provider-000")
        blob = replicated.client().create_blob()
        blob.append(b"still-works" * 20)
        assert blob.read(0, blob.size()) == b"still-works" * 20

    def test_recovered_provider_serves_its_data_again(self, replicated):
        blob = replicated.client().create_blob()
        blob.append(b"y" * CHUNK)
        primary = blob.chunk_locations(0, CHUNK)[0][2][0]
        replicated.crash_data_provider(primary)
        replicated.recover_data_provider(primary)
        assert blob.read(0, CHUNK) == b"y" * CHUNK


class TestMetadataReplication:
    def test_read_survives_metadata_provider_crash(self, replicated):
        blob = replicated.client().create_blob()
        blob.append(b"m" * (CHUNK * 4))
        expected = blob.read(0, blob.size())
        replicated.crash_metadata_provider("meta-000")
        # A client with a cold cache must still resolve all metadata.
        fresh = replicated.client("cold").open_blob(blob.blob_id)
        assert fresh.read(0, fresh.size()) == expected

    def test_unreplicated_metadata_lost_when_provider_dies(self):
        config = BlobSeerConfig(
            num_data_providers=2,
            num_metadata_providers=3,
            chunk_size=CHUNK,
            metadata_replication=1,
        )
        with BlobSeerDeployment(config) as deployment:
            blob = deployment.client().create_blob()
            blob.append(b"z" * (CHUNK * 8))
            for mid in deployment.metadata_store.provider_ids:
                deployment.crash_metadata_provider(mid)
            fresh = deployment.client("cold").open_blob(blob.blob_id)
            with pytest.raises(Exception):
                fresh.read(0, CHUNK)


class TestWriteFailureRecovery:
    def test_failed_append_is_repaired_and_frontier_advances(self):
        """If every replica of an append fails, the version is aborted,
        repaired as a no-op, and later writes still become visible."""
        config = BlobSeerConfig(num_data_providers=2, chunk_size=CHUNK, replication=1)
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            blob.append(b"base" * 32)
            # Kill every provider: the next append cannot store its chunks.
            for provider in deployment.data_providers:
                provider.crash()
            with pytest.raises(Exception):
                blob.append(b"doomed" * 32)
            # Bring storage back: the system must not be wedged.
            for provider in deployment.data_providers:
                provider.recover()
            blob.append(b"after" * 32)
            data = blob.read(0, blob.size())
            assert b"after" in data
            assert deployment.version_manager.latest_version(blob.blob_id) >= 2

    def test_manual_repair_of_aborted_version(self, deployment_factory=None):
        config = BlobSeerConfig(num_data_providers=2, chunk_size=CHUNK)
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            blob = client.create_blob()
            blob.append(b"one" * 50)
            vm = deployment.version_manager
            # Simulate a writer that died after registering its version.
            ticket = vm.register_append(blob.blob_id, 100, writer="ghost")
            vm.abort(blob.blob_id, ticket.version)
            assert vm.latest_version(blob.blob_id) == 1
            client.repair_version(blob.blob_id, ticket.version)
            # The repaired version exposes the base content (plus a zero hole
            # for the announced-but-never-written extension).
            assert vm.latest_version(blob.blob_id) == ticket.version
            repaired = blob.read(0, 150, version=ticket.version)
            assert repaired.startswith(b"one" * 50)
            assert set(repaired[150:]) <= {0}
            # Later writes layer on top of the repaired version normally.
            blob.append(b"two" * 50)
            assert blob.read(0, blob.size()).endswith(b"two" * 50)

    def test_unrepairable_version_fails_only_its_own_op(self):
        """A build that lands some leaves and then loses a metadata provider
        cannot be repaired (its leaves are bound, and keys are immutable).
        That repair failure fails only its own op: the batch's op on another
        blob still publishes, and the failed version stays pending."""
        from repro.core.client import AppendOp, OpStatus
        from repro.core.types import NodeKey

        config = BlobSeerConfig(
            num_data_providers=2, num_metadata_providers=2, chunk_size=CHUNK
        )
        with BlobSeerDeployment(config) as deployment:
            client = deployment.client()
            store = deployment.metadata_store
            blob = client.create_blob()
            blob.append(b"a" * CHUNK)
            candidates = [client.create_blob() for _ in range(8)]
            for candidate in candidates:
                candidate.append(b"b" * CHUNK)
            # The doomed append's leaves land on the live provider as well
            # as the dead one; its sibling's two new nodes only on the live.
            leaves = [NodeKey(blob.blob_id, 2, o * CHUNK, CHUNK) for o in range(1, 5)]
            victim = store.owners(leaves[0])[0]
            live = next(pid for pid in store.provider_ids if pid != victim)
            assert any(store.owners(key)[0] == live for key in leaves)
            sibling = next(
                c
                for c in candidates
                if store.owners(NodeKey(c.blob_id, 2, CHUNK, CHUNK))[0] == live
                and store.owners(NodeKey(c.blob_id, 2, 0, 2 * CHUNK))[0] == live
            )
            store.fail_provider(victim)
            results = client.submit_ops(
                [
                    AppendOp(blob.blob_id, b"x" * (4 * CHUNK)),
                    AppendOp(sibling.blob_id, b"y" * CHUNK),
                ]
            )
            assert results[0].status is OpStatus.FAILED
            assert isinstance(results[0].error, ServiceError)
            assert results[1].status is OpStatus.OK
            assert sibling.read(0, 2 * CHUNK) == b"b" * CHUNK + b"y" * CHUNK
            store.recover_provider(victim)
            vm = deployment.version_manager
            assert vm.latest_version(blob.blob_id) == 1
            assert blob.read(0, 5 * CHUNK) == b"a" * CHUNK
