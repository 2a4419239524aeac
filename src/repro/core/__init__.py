"""BlobSeer core: the paper's primary contribution.

The public entry points are :class:`BlobSeerDeployment` (build a service
instance from a :class:`BlobSeerConfig`) and the :class:`BlobSeerClient` /
:class:`Blob` pair (the versioning-oriented access interface).
"""

from .config import BlobSeerConfig, ClientConfig, DEFAULT_CHUNK_SIZE
from .client import Batch, Blob, BlobSeerClient, BlobSession
from .deployment import BlobSeerDeployment
from .ops import (
    AppendOp,
    Op,
    OpFuture,
    OpKind,
    OpResult,
    OpStatus,
    OpTiming,
    ReadOp,
    WriteOp,
)
from .transport import DirectTransport, Transport
from .data_provider import DataProvider, ProviderPool
from .provider_manager import (
    LoadAwareStrategy,
    PlacementStrategy,
    ProviderManager,
    RandomStrategy,
    RoundRobinStrategy,
    make_strategy,
)
from .version_manager import VersionManager, WriteState
from .membership import CoordinatorMembership, ShardStatus
from .version_coordinator import ShardedVersionManager, VersionCoordinator
from .types import (
    BlobId,
    BlobInfo,
    ChunkDescriptor,
    ChunkKey,
    NodeKey,
    ProviderStats,
    SnapshotInfo,
    Version,
    WritePlan,
    WriteTicket,
)
from . import errors

__all__ = [
    "AppendOp",
    "Batch",
    "Blob",
    "CoordinatorMembership",
    "BlobId",
    "BlobInfo",
    "BlobSeerClient",
    "BlobSeerConfig",
    "BlobSeerDeployment",
    "BlobSession",
    "ChunkDescriptor",
    "ChunkKey",
    "ClientConfig",
    "DEFAULT_CHUNK_SIZE",
    "DataProvider",
    "DirectTransport",
    "LoadAwareStrategy",
    "NodeKey",
    "Op",
    "OpFuture",
    "OpKind",
    "OpResult",
    "OpStatus",
    "OpTiming",
    "PlacementStrategy",
    "ProviderManager",
    "ProviderPool",
    "ProviderStats",
    "RandomStrategy",
    "ReadOp",
    "RoundRobinStrategy",
    "ShardStatus",
    "ShardedVersionManager",
    "SnapshotInfo",
    "Transport",
    "Version",
    "VersionCoordinator",
    "VersionManager",
    "WriteOp",
    "WritePlan",
    "WriteState",
    "WriteTicket",
    "errors",
    "make_strategy",
]
