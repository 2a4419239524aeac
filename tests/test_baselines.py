"""Tests for the comparison baselines (centralised metadata, HDFS-like, lock-based)."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.baselines import (
    CentralMetaBlobStore,
    HdfsError,
    HdfsLikeFileSystem,
    LockBasedBlobStore,
    ReadWriteLock,
)
from repro.core.config import BlobSeerConfig
from repro.core.data_provider import DataProvider, ProviderPool
from repro.core.errors import InvalidRangeError

CHUNK = 128


def make_pool(n=4) -> ProviderPool:
    return ProviderPool([DataProvider(f"p{i}", host=f"h{i}") for i in range(n)])


def config(**kwargs) -> BlobSeerConfig:
    return BlobSeerConfig(num_data_providers=4, chunk_size=CHUNK, **kwargs)


class TestCentralMetaBlobStore:
    def test_append_and_read(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"hello ")
        store.append(blob, b"world")
        assert store.read(blob, 0, store.size(blob)) == b"hello world"

    def test_write_in_place_overwrites(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"a" * 300)
        store.write(blob, 50, b"B" * 100)
        data = store.read(blob, 0, 300)
        assert data[50:150] == b"B" * 100
        assert data[:50] == b"a" * 50

    def test_no_versioning_old_state_unreachable(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"original")
        store.write(blob, 0, b"replaced")
        # There is no API to read the old content back — by design.
        assert store.read(blob, 0, 8) == b"replaced"

    def test_every_operation_hits_the_central_server(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        before = store.server.metadata_ops
        store.append(blob, b"x" * (CHUNK * 4))
        store.read(blob, 0, CHUNK * 4)
        assert store.server.metadata_ops > before

    def test_write_beyond_end_rejected(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        with pytest.raises(InvalidRangeError):
            store.write(blob, 10, b"x")

    def test_multi_chunk_roundtrip(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()
        payload = bytes(range(256)) * 4
        store.append(blob, payload)
        assert store.read(blob, 100, 500) == payload[100:600]

    def test_concurrent_appends_never_lose_data(self):
        store = CentralMetaBlobStore(make_pool(), config())
        blob = store.create_blob()

        def worker(index: int):
            store.append(blob, bytes([index + 1]) * 50)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        assert store.size(blob) == 300
        data = store.read(blob, 0, 300)
        for index in range(6):
            assert data.count(bytes([index + 1])) == 50


class TestHdfsLikeFileSystem:
    def make_fs(self):
        return HdfsLikeFileSystem(make_pool(), config())

    def test_create_write_read(self):
        fs = self.make_fs()
        fs.mkdir("/data")
        with fs.create("/data/f") as writer:
            writer.write(b"0123456789" * 100)
        assert fs.read("/data/f") == b"0123456789" * 100
        assert fs.file_size("/data/f") == 1000

    def test_files_are_write_once(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        fs.create("/d/f", writer="w1").close()
        with pytest.raises(HdfsError):
            fs.create("/d/f", writer="w2")

    def test_single_writer_lease_blocks_concurrent_appenders(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        fs.create("/d/f").close()
        first = fs.append_open("/d/f", writer="w1")
        with pytest.raises(HdfsError):
            fs.append_open("/d/f", writer="w2")
        first.close()
        second = fs.append_open("/d/f", writer="w2")  # lease released, now fine
        second.close()

    def test_no_random_writes_api_exists(self):
        fs = self.make_fs()
        assert not hasattr(fs, "write_at")

    def test_blocks_respect_block_size(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        with fs.create("/d/f", block_size=64) as writer:
            writer.write(b"z" * 200)
        status = fs.file_status("/d/f")
        assert status["blocks"] == 4  # 3 full + 1 partial
        assert fs.read("/d/f", 60, 10) == b"z" * 10

    def test_block_locations(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        with fs.create("/d/f", block_size=64) as writer:
            writer.write(b"q" * 160)
        locations = fs.block_locations("/d/f", 0, 160)
        assert len(locations) == 3
        assert all(providers for _, _, providers in locations)

    def test_namespace_operations(self):
        fs = self.make_fs()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/b/file").close()
        assert fs.exists("/a/b/file")
        assert "/a/b" in fs.list_dir("/a")
        assert fs.delete("/a/b/file")
        assert not fs.exists("/a/b/file")

    def test_delete_skips_crashed_provider_but_not_other_errors(self, monkeypatch):
        fs = self.make_fs()
        fs.mkdir("/d")
        for path in ("/d/a", "/d/b"):
            with fs.create(path, block_size=64) as writer:
                writer.write(b"z" * 160)
        crashed = fs.block_locations("/d/a", 0, 160)[0][2][0]
        fs.pool.get(crashed).crash()
        assert fs.delete("/d/a")
        assert not fs.exists("/d/a")

        def broken(self, key):
            raise RuntimeError("delete_chunk bug")

        monkeypatch.setattr(DataProvider, "delete_chunk", broken)
        with pytest.raises(RuntimeError, match="delete_chunk bug"):
            fs.delete("/d/b")

    def test_missing_parent_rejected(self):
        fs = self.make_fs()
        with pytest.raises(HdfsError):
            fs.create("/nodir/file")

    def test_relative_path_rejected(self):
        fs = self.make_fs()
        with pytest.raises(HdfsError):
            fs.mkdir("relative/path")

    def test_read_offsets(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        with fs.create("/d/f", block_size=32) as writer:
            writer.write(bytes(range(200)))
        assert fs.read("/d/f", 30, 10) == bytes(range(30, 40))
        with pytest.raises(InvalidRangeError):
            fs.read("/d/f", 500, 1)

    def test_namenode_ops_counter_increases(self):
        fs = self.make_fs()
        fs.mkdir("/d")
        before = fs.namenode_ops
        with fs.create("/d/f") as writer:
            writer.write(b"x" * 500)
        fs.read("/d/f")
        assert fs.namenode_ops > before


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        events: list[str] = []

        def reader():
            with lock.reading():
                events.append("read")

        def writer():
            with lock.writing():
                events.append("write")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(events) == ["read", "read", "read", "write"]

    def test_write_lock_is_exclusive(self):
        lock = ReadWriteLock()
        counter = {"value": 0, "max_concurrent": 0, "current": 0}
        guard = threading.Lock()

        def writer():
            with lock.writing():
                with guard:
                    counter["current"] += 1
                    counter["max_concurrent"] = max(counter["max_concurrent"], counter["current"])
                counter["value"] += 1
                with guard:
                    counter["current"] -= 1

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 8
        assert counter["max_concurrent"] == 1


class TestLockBasedBlobStore:
    def test_functional_equivalence_with_central_store(self):
        store = LockBasedBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"abc" * 100)
        store.write(blob, 10, b"XYZ")
        data = store.read(blob, 0, store.size(blob))
        assert data[10:13] == b"XYZ"
        assert store.size(blob) == 300

    def test_lock_counters_track_acquisitions(self):
        store = LockBasedBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"x" * 10)
        store.read(blob, 0, 10)
        store.read(blob, 0, 10)
        assert store.write_locks_taken == 1
        assert store.read_locks_taken == 2

    def test_concurrent_mixed_workload_is_consistent(self):
        store = LockBasedBlobStore(make_pool(), config())
        blob = store.create_blob()
        store.append(blob, b"\x00" * 200)

        def writer(index: int):
            store.write(blob, 0, bytes([index + 1]) * 200)

        def reader(_index: int):
            data = store.read(blob, 0, 200)
            # Under the lock a reader can never see a torn write.
            assert len(set(data)) == 1

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(writer, i) for i in range(4)]
            futures += [pool.submit(reader, i) for i in range(4)]
            for future in futures:
                future.result()
