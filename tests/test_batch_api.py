"""Batch API tests: pipelined submission, per-op failure isolation, transports.

Covers the batched client surface introduced by the API redesign:
``client.batch()`` / ``BlobSession``, the vectored ``Blob.read_many`` /
``write_many`` / ``append_many`` conveniences, per-operation results
(version, ``write_id``, timing) and snapshot isolation under concurrent
batched writers.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    AppendOp,
    BlobSeerConfig,
    BlobSeerDeployment,
    OpStatus,
    ReadOp,
)
from repro.core.errors import InvalidRangeError, ReplicationError

CHUNK = 256


@pytest.fixture
def deployment():
    dep = BlobSeerDeployment(
        BlobSeerConfig(
            num_data_providers=4,
            num_metadata_providers=3,
            chunk_size=CHUNK,
            replication=1,
        )
    )
    yield dep
    dep.close()


@pytest.fixture
def client(deployment):
    return deployment.client()


class TestBatchBasics:
    def test_mixed_batch_returns_per_op_results(self, client):
        blob = client.create_blob()
        blob.append(b"x" * CHUNK)
        with client.batch() as batch:
            f_append = batch.append(blob.blob_id, b"y" * CHUNK)
            f_write = batch.write(blob.blob_id, 0, b"z" * 16)
            f_read = batch.read(blob.blob_id, 0, 8)
        r_append, r_write, r_read = (f.result() for f in (f_append, f_write, f_read))
        assert r_append.ok and r_write.ok and r_read.ok
        assert r_append.version == 2 and r_write.version == 3
        # Satellite: write_id is surfaced on results instead of being dropped.
        assert r_append.write_id is not None and r_write.write_id is not None
        assert r_append.write_id != r_write.write_id
        # The append learned its offset from the ticket.
        assert r_append.offset == CHUNK
        # Reads observe the frontier as of submission, not the batch's writes.
        assert r_read.data == b"x" * 8
        assert blob.read(0, 8) == b"z" * 8

    def test_batch_versions_follow_submission_order(self, client):
        blob = client.create_blob()
        blob.append(b"0" * CHUNK * 4)
        with client.batch() as batch:
            futures = [batch.write(blob.blob_id, i * CHUNK, bytes([65 + i]) * CHUNK) for i in range(4)]
        versions = [f.result().version for f in futures]
        assert versions == [2, 3, 4, 5]
        for i in range(4):
            assert blob.read(i * CHUNK, CHUNK) == bytes([65 + i]) * CHUNK

    def test_write_then_append_weaves_in_version_order(self, client):
        """A batch [write, append] on one blob: the append tickets first
        (earlier version), so the weave phase must order by version, not
        submission — otherwise the write's partial-chunk merge would look
        for a leaf its sibling has not woven yet."""
        blob = client.create_blob()
        blob.append(b"x" * 300)  # partial final chunk forces base-leaf merges
        with client.batch() as batch:
            f_write = batch.write(blob.blob_id, 100, b"W" * 50)
            f_append = batch.append(blob.blob_id, b"A" * 50)
        assert f_append.result().ok and f_append.result().version == 2
        assert f_write.result().ok and f_write.result().version == 3
        assert blob.read(100, 50) == b"W" * 50
        assert blob.read(300, 50) == b"A" * 50

    def test_reads_of_one_batch_share_a_snapshot(self, client):
        """All version=None reads of a batch resolve the frontier once."""
        blob = client.create_blob()
        blob.append(b"v1" * 200)
        with client.batch() as batch:
            f1 = batch.read(blob.blob_id, 0, 2)
            f2 = batch.read(blob.blob_id, 2, 2)
        assert f1.result().data == f2.result().data == b"v1"

    def test_batch_cannot_be_submitted_twice(self, client):
        blob = client.create_blob()
        batch = client.batch()
        batch.append(blob.blob_id, b"a")
        batch.submit()
        with pytest.raises(RuntimeError):
            batch.submit()
        with pytest.raises(RuntimeError):
            batch.append(blob.blob_id, b"b")

    def test_unsubmitted_future_raises(self, client):
        blob = client.create_blob()
        batch = client.batch()
        future = batch.append(blob.blob_id, b"a")
        assert not future.done()
        with pytest.raises(RuntimeError):
            future.result()

    def test_invalid_arguments_raise_at_enqueue_time(self, client):
        blob = client.create_blob()
        batch = client.batch()
        with pytest.raises(InvalidRangeError):
            batch.write(blob.blob_id, -1, b"x")
        with pytest.raises(InvalidRangeError):
            batch.append(blob.blob_id, b"")
        with pytest.raises(InvalidRangeError):
            batch.read(blob.blob_id, 0, -5)

    def test_empty_batch_submit_is_a_noop(self, client):
        assert client.batch().submit() == []

    def test_ops_can_be_preconstructed(self, client):
        blob = client.create_blob()
        results = client.submit_ops(
            [AppendOp(blob.blob_id, b"a" * 10), ReadOp(blob.blob_id, 0, 4)]
        )
        assert results[0].ok and results[0].version == 1
        # The read saw the pre-batch (empty) snapshot.
        assert results[1].ok and results[1].data == b""


class TestFailureIsolation:
    def test_failing_op_does_not_poison_siblings(self, client):
        blob = client.create_blob()
        blob.append(b"base" * 64)  # 256 bytes
        with client.batch() as batch:
            f_ok1 = batch.append(blob.blob_id, b"A" * 32)
            f_bad = batch.write(blob.blob_id, 10_000, b"beyond the end")
            f_ok2 = batch.write(blob.blob_id, 0, b"B" * 32)
        assert f_ok1.result().ok
        assert f_ok2.result().ok
        bad = f_bad.result()
        assert bad.status is OpStatus.FAILED
        assert isinstance(bad.error, InvalidRangeError)
        with pytest.raises(InvalidRangeError):
            bad.raise_if_failed()
        # The failed write consumed no version; the others published.
        assert blob.latest_version() == 3
        assert blob.read(0, 32) == b"B" * 32

    def test_failed_read_reports_per_op(self, client):
        blob = client.create_blob()
        blob.append(b"x" * 100)
        with client.batch() as batch:
            f_bad = batch.read(blob.blob_id, 500, 10)
            f_ok = batch.read(blob.blob_id, 0, 10)
        assert isinstance(f_bad.result().error, InvalidRangeError)
        assert f_ok.result().data == b"x" * 10

    def test_append_push_failure_is_repaired_inside_batch(self, deployment, monkeypatch):
        client = deployment.client()
        blob = client.create_blob()
        blob.append(b"old" * 100)
        # Providers look alive at allocation time but reject every chunk —
        # the push phase fails after the append's version was assigned.
        monkeypatch.setattr(
            deployment.provider_pool, "write_chunk", lambda providers, key, data: 0
        )
        with client.batch() as batch:
            f_bad = batch.append(blob.blob_id, b"new" * 100)
        bad = f_bad.result()
        assert isinstance(bad.error, ReplicationError)
        monkeypatch.undo()
        # The aborted version was repaired: the frontier passes it and later
        # appends land normally.
        version = blob.append(b"later")
        assert blob.latest_version() == version
        assert blob.read(0, 9, version=2) == b"oldoldold"

    def test_wrappers_reraise_like_the_old_api(self, client):
        blob = client.create_blob()
        with pytest.raises(InvalidRangeError):
            client.write(blob.blob_id, 5, b"gap")  # beyond the (empty) end
        with pytest.raises(InvalidRangeError):
            client.read(blob.blob_id, 5, 1)


class TestVectoredConveniences:
    def test_read_many_matches_sequential_reads(self, client):
        blob = client.create_blob()
        payload = bytes(range(256)) * 8
        blob.append(payload)
        ranges = [(0, 10), (100, 300), (2000, 48), (0, len(payload)), (17, 1)]
        batched = blob.read_many(ranges)
        sequential = [blob.read(off, size) for off, size in ranges]
        assert batched == sequential

    def test_read_many_pins_one_snapshot(self, client):
        blob = client.create_blob()
        blob.append(b"v1" * 200)
        v1 = blob.latest_version()
        blob.write(0, b"v2" * 200)
        parts = blob.read_many([(0, 2), (100, 2)], version=v1)
        assert parts == [b"v1", b"v1"]

    def test_write_many_and_append_many(self, client):
        blob = client.create_blob()
        blob.append(b"\x00" * (CHUNK * 3))
        versions = blob.write_many([(0, b"a" * CHUNK), (CHUNK, b"b" * CHUNK)])
        assert versions == [2, 3]
        more = blob.append_many([b"c" * 10, b"d" * 10])
        assert more == [4, 5]
        assert blob.read(0, CHUNK) == b"a" * CHUNK
        assert blob.read(blob.size() - 20, 20) == b"c" * 10 + b"d" * 10


class TestSession:
    def test_session_flushes_implicit_batches(self, client):
        blob = client.create_blob()
        with client.session() as session:
            f1 = session.append(blob.blob_id, b"one")
            f2 = session.append(blob.blob_id, b"two")
            assert session.pending_ops == 2
            results = session.flush()
            assert [r.version for r in results] == [1, 2]
            session.read(blob.blob_id, 0, 6)
        # The context exit flushed the trailing read.
        assert session.pending_ops == 0
        assert session.stats["batches_flushed"] == 2
        assert session.stats["ops_ok"] == 3
        assert session.stats["bytes_written"] == 6
        assert session.stats["bytes_read"] == 6
        assert f1.result().ok and f2.result().ok


class TestTimingAndCounters:
    def test_read_records_per_fragment_fetch_times(self, client):
        blob = client.create_blob()
        blob.append(b"x" * (CHUNK * 4))
        result = client.submit_ops([ReadOp(blob.blob_id, 0, CHUNK * 4)])[0]
        # One fetch timing per fragment, through the same fan-out as batches.
        assert len(result.timing.fragment_fetch_seconds) == 4
        assert result.timing.finished >= result.timing.started

    def test_phases_are_timed_within_the_op(self, client):
        blob = client.create_blob()
        write = client.submit_ops([AppendOp(blob.blob_id, b"x" * (CHUNK * 4))])[0]
        read = client.submit_ops([ReadOp(blob.blob_id, 0, CHUNK * 4)])[0]
        for result in (write, read):
            timing = result.timing
            assert 0 < timing.metadata_seconds <= timing.duration
            assert 0 < timing.transfer_seconds <= timing.duration

    def test_chunk_locations_counts_metadata_fetches(self, client):
        blob = client.create_blob()
        blob.append(b"x" * (CHUNK * 4))
        fresh_client = client.deployment.client()
        fresh_blob = fresh_client.open_blob(blob.blob_id)
        before = fresh_client.counters["metadata_nodes_fetched"]
        locations = fresh_blob.chunk_locations(0, CHUNK * 4)
        assert len(locations) == 4
        assert fresh_client.counters["metadata_nodes_fetched"] > before

    def test_batch_counter_and_op_counters(self, client):
        blob = client.create_blob()
        before = dict(client.counters)
        with client.batch() as batch:
            batch.append(blob.blob_id, b"a" * CHUNK)
            batch.append(blob.blob_id, b"b" * CHUNK)
        assert client.counters["batches"] == before["batches"] + 1
        assert client.counters["appends"] == before["appends"] + 2
        assert client.counters["bytes_written"] == before["bytes_written"] + 2 * CHUNK


class TestSnapshotIsolation:
    def test_batched_writers_with_readers_pinned_at_old_versions(self, deployment):
        """Concurrent batch() writers never disturb readers pinned to a snapshot."""
        setup = deployment.client()
        blob_id = setup.create_blob().blob_id
        baseline = b"S" * (CHUNK * 4)
        setup.append(blob_id, baseline)
        pinned_version = 1
        errors: list = []
        barrier = threading.Barrier(5)

        def writer(tag: int) -> None:
            try:
                client = deployment.client()
                barrier.wait()
                for round_index in range(3):
                    with client.batch() as batch:
                        batch.write(blob_id, 0, bytes([65 + tag]) * CHUNK)
                        batch.append(blob_id, bytes([65 + tag]) * 16)
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)

        def reader() -> None:
            try:
                client = deployment.client()
                barrier.wait()
                for _ in range(20):
                    data = client.read(blob_id, 0, CHUNK * 4, version=pinned_version)
                    assert data == baseline
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        threads.extend(threading.Thread(target=reader) for _ in range(2))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # All 18 batched ops (3 writers x 3 rounds x 2 ops) published.
        assert deployment.version_manager.latest_version(blob_id) == 1 + 18


class TestShardedCoordinatorBatches:
    @pytest.fixture
    def sharded_deployment(self):
        dep = BlobSeerDeployment(
            BlobSeerConfig(
                num_data_providers=4,
                num_metadata_providers=3,
                chunk_size=CHUNK,
                num_version_managers=4,
            )
        )
        yield dep
        dep.close()

    def test_batch_takes_one_register_round_per_shard(self, sharded_deployment):
        client = sharded_deployment.client()
        vm = sharded_deployment.version_manager
        blobs = [client.create_blob() for _ in range(4)]
        for blob in blobs:
            blob.append(b"\x00" * CHUNK)
        shards = {vm.shard_index(blob.blob_id) for blob in blobs}
        rounds_before = vm.register_rounds
        batch = client.batch()
        for blob in blobs:
            for _ in range(3):
                batch.write(blob.blob_id, 0, b"x" * CHUNK)
        results = batch.submit()
        assert all(r.ok for r in results)
        # 12 writes over 4 blobs collapse to one bulk round per owning shard.
        assert vm.register_rounds - rounds_before == len(shards)

    def test_batch_takes_one_publish_round_per_blob(self, sharded_deployment):
        client = sharded_deployment.client()
        vm = sharded_deployment.version_manager
        blobs = [client.create_blob() for _ in range(3)]
        for blob in blobs:
            blob.append(b"\x00" * CHUNK)
        rounds_before = vm.publish_rounds
        batch = client.batch()
        for blob in blobs:
            for _ in range(4):
                batch.append(blob.blob_id, b"y" * CHUNK)
        results = batch.submit()
        assert all(r.ok for r in results)
        # 12 publications collapse to one publish_many round per blob.
        assert vm.publish_rounds - rounds_before == len(blobs)
        for blob in blobs:
            assert blob.latest_version() == 5

    def test_weave_failure_in_batch_repairs_its_version(self, deployment, monkeypatch):
        """A write whose metadata weave fails must not stall the frontier.

        Mirrors the simulator-path regression: the assigned version is
        aborted *and* repaired with no-op metadata, so the blob keeps
        committing afterwards.
        """
        from repro.core.metadata.segment_tree import SegmentTreeBuilder

        client = deployment.client()
        blob = client.create_blob()
        blob.append(b"\x00" * CHUNK)  # v1

        real_build = SegmentTreeBuilder.build
        fail_versions = {2}

        def flaky_build(builder, *, version, **kwargs):
            if version in fail_versions:
                fail_versions.discard(version)
                raise RuntimeError("injected weave failure")
            return real_build(builder, version=version, **kwargs)

        monkeypatch.setattr(SegmentTreeBuilder, "build", flaky_build)

        batch = client.batch()
        doomed = batch.write(blob.blob_id, 0, b"a" * CHUNK)   # v2: weave fails
        sibling = batch.write(blob.blob_id, 0, b"b" * CHUNK)  # v3: must publish
        batch.submit()
        assert not doomed.result().ok
        assert isinstance(doomed.result().error, RuntimeError)
        assert sibling.result().ok and sibling.result().version == 3
        # The dead version was repaired, the frontier moved past it, and
        # the sibling's data is readable.
        vm = deployment.version_manager
        assert vm.aborted_versions(blob.blob_id) == []
        assert vm.pending_versions(blob.blob_id) == []
        assert blob.latest_version() == 3
        assert blob.read(0, CHUNK) == b"b" * CHUNK
        # The repaired v2 re-exposes v1's content over the announced range.
        assert blob.read(0, CHUNK, version=2) == b"\x00" * CHUNK
        # And the blob keeps committing afterwards.
        assert blob.write(0, b"c" * CHUNK) == 4

    def test_multi_blob_batch_results_identical_at_any_shard_count(self):
        def run(num_shards):
            dep = BlobSeerDeployment(
                BlobSeerConfig(
                    num_data_providers=4,
                    num_metadata_providers=3,
                    chunk_size=CHUNK,
                    num_version_managers=num_shards,
                )
            )
            try:
                client = dep.client()
                blobs = [client.create_blob() for _ in range(3)]
                batch = client.batch()
                for index, blob in enumerate(blobs):
                    batch.append(blob.blob_id, bytes([index + 1]) * CHUNK)
                    batch.append(blob.blob_id, bytes([index + 65]) * CHUNK)
                results = batch.submit()
                assert all(r.ok for r in results)
                return [
                    (r.version, r.offset, client.read(r.op.blob_id, 0, 2 * CHUNK))
                    for r in results
                ]
            finally:
                dep.close()

        # The 1-shard configuration is today's single version manager; more
        # shards must not change any observable outcome.
        assert run(1) == run(4) == run(16)


class TestRegisterWritesBulk:
    def test_bulk_registration_isolates_invalid_specs(self, deployment):
        vm = deployment.version_manager
        info = deployment.create_blob()
        outcomes = vm.register_writes(
            info.blob_id, [(0, 100), (5000, 10), (50, 100)], writer="w"
        )
        assert outcomes[0].version == 1
        assert isinstance(outcomes[1], InvalidRangeError)
        assert outcomes[2].version == 2
        # The invalid spec consumed no version number.
        assert vm.pending_versions(info.blob_id) == [1, 2]
