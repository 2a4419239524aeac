"""Tests for the HDFS-like comparison file system."""

from __future__ import annotations

import pytest

from repro.baselines import HdfsError, HdfsLikeFileSystem
from repro.core.config import BlobSeerConfig
from repro.core.data_provider import DataProvider, ProviderPool
from repro.core.errors import InvalidRangeError

CHUNK = 128


def make_pool(n=4) -> ProviderPool:
    return ProviderPool([DataProvider(f"p{i}", host=f"h{i}") for i in range(n)])


def config(**kwargs) -> BlobSeerConfig:
    return BlobSeerConfig(num_data_providers=4, chunk_size=CHUNK, **kwargs)


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
