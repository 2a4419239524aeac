"""Networked service mode: the BlobSeer deployment as real processes.

Everything below :mod:`repro.core` composes the service in-process behind
the :class:`~repro.core.transport.Transport` seam.  This package cashes
that abstraction in: the *same* ``DataProvider``, ``KeyValueStore`` and
``VersionManager`` objects are hosted by asyncio TCP servers
(:mod:`repro.net.server`), a :class:`~repro.net.transport.NetworkTransport`
carries the client's chunk pushes/fetches over real sockets, and
:class:`~repro.net.deployment.ProcessDeployment` spawns the whole thing as
separate processes from a :class:`~repro.core.config.BlobSeerConfig` —
so ``BlobSeerClient`` runs against a multi-process localhost cluster by
flipping ``config.transport`` to ``"network"``.

Layers, bottom up:

* :mod:`repro.net.frames` — length-prefixed frames: a codec-encoded header
  (JSON, optionally msgpack) followed by the payload bytes raw, with request
  ids, so one connection pipelines many requests;
* :mod:`repro.net.wire` — value serialisation for the protocol's types
  (chunk/node keys, tickets, plans, tree nodes) and its exceptions;
* :mod:`repro.net.rpc` — the one RPC client, ``RpcClient``: an asyncio
  event loop on a daemon thread pipelines up to ``max_inflight`` (64)
  requests per connection, demuxed by request id into per-request
  futures, behind a blocking ``call`` with connect/request timeouts and
  retry-over-a-server-list failover with exponential backoff (the msgbox
  idiom);
* :mod:`repro.net.server` — the four server roles (data provider,
  metadata store node, coordinator shard, provider manager) plus the
  ``python -m repro.net.server`` entrypoint;
* :mod:`repro.net.proxies` — client-side stand-ins implementing the
  deployment surface the batch engine calls (``version_manager``,
  ``provider_manager``, ``metadata_store``) over RPC;
* :mod:`repro.net.transport` / :mod:`repro.net.deployment` — the
  ``Transport`` implementation and the process launcher;
* :mod:`repro.net.monitor` / :mod:`repro.net.chaos` — heartbeat failure
  detection driving standby takeover (``ClusterMonitor``), and the seeded
  kill/restart timetable (``ChaosSchedule``) the failover tests and the
  E17 benchmark inject faults with.
"""

from .chaos import ChaosEvent, ChaosSchedule
from .deployment import ProcessDeployment
from .monitor import ClusterMonitor, MonitorEvent
from .rpc import NetworkError, RpcClient, RpcFuture
from .transport import NetworkTransport

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "ClusterMonitor",
    "MonitorEvent",
    "NetworkError",
    "NetworkTransport",
    "ProcessDeployment",
    "RpcClient",
    "RpcFuture",
]
