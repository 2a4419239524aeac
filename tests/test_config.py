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
    "filters_target_fp": 0.05,
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
