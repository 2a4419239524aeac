"""ProcessDeployment: spawn a BlobSeer cluster as real localhost processes.

The networked twin of :class:`~repro.core.deployment.BlobSeerDeployment`:
one ``python -m repro.net.server`` process per data provider, per metadata
DHT node, per coordinator shard, plus the provider manager — all bound to
ephemeral localhost ports reported through their ready handshakes.  The
facade exposes the same attributes the client wiring reads
(``metadata_store``, ``version_manager``, ``provider_manager``,
``config``, ``client()``/``create_blob()``), backed by the RPC proxies,
so ``BlobSeerClient`` code runs against it unchanged.

Failover (PR 8): when the deployment is journal-backed (``journal_enabled``
or an explicit ``journal_dir`` — without one a standby would have nothing
durable to recover from) and ``net_standby_per_shard`` is 1, every
coordinator shard gets a ``--role standby`` process following its journal
stream, and a :class:`~repro.net.monitor.ClusterMonitor` heartbeats the
coordinator fleet: a shard that misses ``net_failover_suspect_after``
probes is marked ``DOWN`` in the shared membership mirror, its standby is
promoted, and the new epoch is broadcast to every surviving process.
``restart_coordinator_shard`` runs the rejoin protocol (standby resigns →
primary respawns on the same WAL, ingesting the handoff → clients re-route
back on the next epoch).

Teardown sends SIGTERM (servers drain in-flight requests) and escalates
to SIGKILL for stragglers.  Failure injection — ``kill_data_provider``,
``kill_coordinator_shard``, ``kill_meta_node``, ``kill_standby`` — is a
hard SIGKILL through the ``(role, index) -> process`` map, usable directly
or on a :class:`~repro.net.chaos.ChaosSchedule` timetable.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import BlobSeerConfig
from ..core.membership import ShardStatus
from ..core.types import BlobInfo
from ..obs import configure_observability
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .monitor import ClusterMonitor
from .proxies import (
    NetworkDistributedStore,
    RemoteCoordinator,
    RemoteKeyValueStore,
    RemoteProviderManager,
)
from .rpc import RpcClient
from .transport import NetworkTransport

#: Seconds to wait for a server's ready handshake before declaring the
#: spawn failed (covers interpreter start + imports on a loaded machine).
READY_TIMEOUT = 30.0


class ProcessDeployment:
    """All service processes of one networked BlobSeer instance."""

    def __init__(
        self,
        config: Optional[BlobSeerConfig] = None,
        seed: int = 0,
        host: Optional[str] = None,
        journal_dir: Optional[str] = None,
        monitor: bool = True,
    ) -> None:
        self.config = config or BlobSeerConfig()
        self.host = host or self.config.net_host
        self._journal_dir = journal_dir
        self._owns_journal_dir = False
        if self._journal_dir is None and self.config.journal_enabled:
            # ``make_deployment`` only passes the config, so a journal-backed
            # networked deployment derives its WAL directory here; owned
            # directories are removed again on close.
            self._journal_dir = tempfile.mkdtemp(prefix="blobseer-net-wal-")
            self._owns_journal_dir = True
        #: ``(role, index) -> Popen``: the authoritative process map every
        #: failure-injection and restart path goes through.
        self._procs: Dict[Tuple[str, int], subprocess.Popen] = {}
        #: ``(role, index) -> (host, port)`` of the live processes.
        self._addrs: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._rpcs: List[RpcClient] = []
        self._next_client_id = 0
        self._config_json = json.dumps(self.config.to_dict())
        self.monitor: Optional[ClusterMonitor] = None
        # The client process participates in the observability plane too:
        # apply the obs_* knobs (the spawned servers apply them at boot from
        # the same config JSON).
        configure_observability(self.config, role="client")

        try:
            specs = (
                [("provider", index) for index in range(self.config.num_data_providers)]
                + [("meta", index) for index in range(self.config.num_metadata_providers)]
                + [("coordinator", index) for index in range(self.config.num_version_managers)]
                + [("pmgr", 0)]
            )
            self._launch(specs)
            if self.with_standbys:
                # Second wave: standbys need their primary's bound address.
                self._launch(
                    [("standby", index) for index in range(self.config.num_version_managers)]
                )
            self._wire()
            self._broadcast_membership(self.version_manager.membership.state())
            if monitor and self.with_standbys:
                self._start_monitor()
        except Exception:
            self.close()
            raise

    @property
    def with_standbys(self) -> bool:
        """Whether this deployment hosts standby processes (needs a WAL)."""
        return bool(self.config.net_standby_per_shard > 0 and self._journal_dir)

    @property
    def processes(self) -> List[subprocess.Popen]:
        """Flat process list (compat surface; the map is authoritative)."""
        return list(self._procs.values())

    # -- spawning ------------------------------------------------------------------
    def _spawn_args(self, role: str, index: int) -> List[str]:
        extra: List[str] = []
        if role in ("coordinator", "standby") and self._journal_dir:
            extra += ["--journal-dir", str(self._journal_dir)]
        if role == "standby":
            primary = self._addrs[("coordinator", index)]
            extra += ["--primary", f"{primary[0]}:{primary[1]}"]
        return extra

    def _spawn(self, role: str, index: int) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro.net.server",
            "--role",
            role,
            "--index",
            str(index),
            "--host",
            self.host,
            "--port",
            "0",
            "--config",
            self._config_json,
        ] + self._spawn_args(role, index)
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)

    def _launch(self, specs: Sequence[Tuple[str, int]]) -> None:
        """Spawn ``specs`` in parallel and record processes + addresses."""
        procs = [(role, index, self._spawn(role, index)) for role, index in specs]
        for role, index, proc in procs:
            self._procs[(role, index)] = proc
        with ThreadPoolExecutor(max_workers=len(procs)) as pool:
            handshakes = list(
                pool.map(lambda entry: self._read_handshake(entry[2], entry[0]), procs)
            )
        for handshake in handshakes:
            key = (handshake["role"], handshake["index"])
            self._addrs[key] = (handshake["host"], handshake["port"])

    def _read_handshake(self, proc: subprocess.Popen, role: str) -> Dict:
        deadline = time.monotonic() + READY_TIMEOUT
        with ThreadPoolExecutor(max_workers=1) as reader:
            future = reader.submit(proc.stdout.readline)
            try:
                line = future.result(timeout=max(0.1, deadline - time.monotonic()))
            except Exception:
                proc.kill()
                raise RuntimeError(f"{role} server produced no ready handshake") from None
        if not line:
            raise RuntimeError(
                f"{role} server exited before its ready handshake "
                f"(returncode {proc.poll()})"
            )
        handshake = json.loads(line)
        if not handshake.get("ready"):
            raise RuntimeError(f"{role} server handshake not ready: {handshake!r}")
        return handshake

    def _rpc(self, *addresses: Tuple[str, int]) -> RpcClient:
        client = RpcClient(
            list(addresses),
            connect_timeout=self.config.net_connect_timeout,
            request_timeout=self.config.net_request_timeout,
            max_retries=self.config.net_max_retries,
            backoff_base=self.config.net_backoff_base,
            backoff_max=self.config.net_backoff_max,
            codec=self.config.net_codec,
            max_inflight=self.config.net_max_inflight,
            connections_per_server=self.config.net_connections_per_server,
        )
        self._rpcs.append(client)
        return client

    def _wire(self) -> None:
        addrs = self._addrs
        #: One RpcClient per data-provider process, keyed like the pool.
        self.provider_rpcs: Dict[str, RpcClient] = {
            f"provider-{index:03d}": self._rpc(addrs[("provider", index)])
            for index in range(self.config.num_data_providers)
        }
        self._meta_stubs: Dict[str, RemoteKeyValueStore] = {
            f"meta-{index:03d}": RemoteKeyValueStore(
                self._rpc(addrs[("meta", index)]), f"meta-{index:03d}"
            )
            for index in range(self.config.num_metadata_providers)
        }
        self.metadata_store = NetworkDistributedStore(
            self._meta_stubs,
            virtual_nodes=self.config.dht_virtual_nodes,
            replication=self.config.metadata_replication,
        )
        standby_rpcs: List[Optional[RpcClient]] = [
            self._rpc(addrs[("standby", index)])
            if ("standby", index) in addrs
            else None
            for index in range(self.config.num_version_managers)
        ]
        self.version_manager = RemoteCoordinator(
            [
                self._rpc(addrs[("coordinator", index)])
                for index in range(self.config.num_version_managers)
            ],
            virtual_nodes=self.config.dht_virtual_nodes,
            standby_rpcs=standby_rpcs,
        )
        self.provider_manager = RemoteProviderManager(self._rpc(addrs[("pmgr", 0)]))

    # -- membership plumbing ---------------------------------------------------------
    def _broadcast_membership(self, state: Dict[str, Any]) -> None:
        """Push a membership state to every live coordinator and standby.

        Coordinators journal it (so restarts re-derive the ring);
        standbys remember it (and journal it into their handoff once they
        serve).  Dead processes are skipped — that is exactly when a
        broadcast happens.
        """
        for index in range(self.config.num_version_managers):
            for role in ("coordinator", "standby"):
                if (role, index) not in self._addrs:
                    continue
                rpc = (
                    self.version_manager._rpcs[index]
                    if role == "coordinator"
                    else self.version_manager._standbys[index]
                )
                if rpc is None:
                    continue
                try:
                    rpc.call("note_membership", {"state": state})
                except Exception:  # noqa: BLE001 - dead targets are expected
                    continue

    def _start_monitor(self) -> None:
        monitor = ClusterMonitor(
            membership=self.version_manager.membership,
            interval=self.config.net_heartbeat_interval,
            suspect_after=self.config.net_failover_suspect_after,
            codec=self.config.net_codec,
            broadcast=self._broadcast_membership,
            metrics_interval=self.config.obs_metrics_interval,
        )
        for index in range(self.config.num_version_managers):
            monitor.watch(
                "coordinator",
                index,
                self._addrs[("coordinator", index)],
                standby=self._addrs.get(("standby", index)),
            )
            if ("standby", index) in self._addrs:
                monitor.watch("standby", index, self._addrs[("standby", index)])
        monitor.start()
        self.monitor = monitor

    # -- clients -------------------------------------------------------------------
    def client(self, client_id: Optional[str] = None, transport=None):
        """A ``BlobSeerClient`` whose operations travel over the sockets."""
        from ..core.client import BlobSeerClient  # local import avoids a cycle

        if client_id is None:
            client_id = f"client-{self._next_client_id:03d}"
            self._next_client_id += 1
        if transport is None:
            transport = NetworkTransport.for_deployment(self)
        return BlobSeerClient(deployment=self, client_id=client_id, transport=transport)

    def create_blob(
        self, chunk_size: Optional[int] = None, replication: Optional[int] = None
    ) -> BlobInfo:
        return self.version_manager.create_blob(
            chunk_size=chunk_size if chunk_size is not None else self.config.chunk_size,
            replication=replication if replication is not None else self.config.replication,
        )

    def rpc_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-server-address connection stats, aggregated over all clients.

        Keys are ``host:port``; values report open ``connections``,
        ``requests_sent``, current ``in_flight`` and ``peak_inflight``
        (how deep the pipeline actually got).
        """
        totals: Dict[str, Dict[str, int]] = {}
        for rpc in self._rpcs:
            for address, stats in rpc.stats().items():
                bucket = totals.setdefault(
                    address,
                    {"connections": 0, "requests_sent": 0, "in_flight": 0, "peak_inflight": 0},
                )
                bucket["connections"] += stats["connections"]
                bucket["requests_sent"] += stats["requests_sent"]
                bucket["in_flight"] += stats["in_flight"]
                bucket["peak_inflight"] = max(
                    bucket["peak_inflight"], stats["peak_inflight"]
                )
        return totals

    # -- observability ---------------------------------------------------------------
    def _obs_rpcs(self) -> Dict[str, RpcClient]:
        """One wired client per live process, keyed ``role-index``."""
        targets: Dict[str, RpcClient] = dict(self.provider_rpcs)
        for name, stub in self._meta_stubs.items():
            targets[name] = stub._rpc
        for index, rpc in enumerate(self.version_manager._rpcs):
            targets[f"coordinator-{index:03d}"] = rpc
        for index, rpc in enumerate(self.version_manager._standbys):
            if rpc is not None:
                targets[f"standby-{index:03d}"] = rpc
        targets["pmgr-000"] = self.provider_manager._rpc
        return targets

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Scrape every process's ``metrics`` RPC and merge the snapshots.

        Returns ``{"processes": {name: snapshot}, "merged": snapshot,
        "commit_latency": {"p50", "p95", "p99"}}``.  The client process's
        own registry (reactor + proxy metrics) joins under ``"client"``;
        dead processes are skipped.  Histograms merge exactly (log-bucketed
        counts are additive), so deployment-wide percentiles are honest.
        """
        futures = []
        for name, rpc in self._obs_rpcs().items():
            try:
                futures.append((name, rpc.submit("metrics")))
            except Exception:  # noqa: BLE001 - dead processes are expected
                continue
        processes: Dict[str, Any] = {}
        for name, future in futures:
            try:
                snapshot = future.result()
            except Exception:  # noqa: BLE001
                continue
            if isinstance(snapshot, dict):
                processes[name] = snapshot
        processes["client"] = obs_metrics.registry().snapshot()
        merged = obs_metrics.merge_snapshots(processes.values())
        return {
            "processes": processes,
            "merged": merged,
            "commit_latency": obs_metrics.percentiles(
                merged, "coordinator_commit_seconds"
            ),
        }

    def trace_snapshot(self) -> List[obs_trace.Span]:
        """Drain spans from every process (and this one) into one list.

        Span ids embed the originating pid, so the merged list renders as
        one multi-process timeline; draining is destructive on purpose —
        each harvest returns only spans recorded since the previous one.
        """
        futures = []
        for name, rpc in self._obs_rpcs().items():
            try:
                futures.append(rpc.submit("trace_spans"))
            except Exception:  # noqa: BLE001
                continue
        spans: List[obs_trace.Span] = obs_trace.tracer().drain()
        for future in futures:
            try:
                dicts = future.result()
            except Exception:  # noqa: BLE001
                continue
            if isinstance(dicts, list):
                spans.extend(obs_trace.Span.from_dict(d) for d in dicts)
        spans.sort(key=lambda span: span.start)
        return spans

    def save_chrome_trace(self, path: str) -> str:
        """Harvest the cluster's spans and save them as Chrome trace JSON."""
        return obs_trace.save_chrome_trace(path, self.trace_snapshot())

    # -- failure injection -----------------------------------------------------------
    def _kill(self, role: str, index: int) -> None:
        """SIGKILL one process through the role map (no drain — a crash)."""
        proc = self._procs.get((role, index))
        if proc is None:
            raise KeyError(f"no {role} process with index {index}")
        proc.kill()
        proc.wait(timeout=5.0)

    def kill_data_provider(self, provider_id: str) -> None:
        """SIGKILL a data-provider process (no drain — it is a crash)."""
        index = int(provider_id.rsplit("-", 1)[1])
        self._kill("provider", index)
        # Placement stops selecting the dead provider for *new* chunks;
        # already-placed replicas fail over at the transport.
        self.provider_manager.set_provider_alive(provider_id, False)

    def kill_coordinator_shard(self, index: int) -> None:
        """SIGKILL coordinator shard ``index`` mid-flight.

        Detection and standby promotion are the monitor's job — this is
        the crash, nothing else.
        """
        self._kill("coordinator", index)

    def kill_meta_node(self, index: int) -> None:
        """SIGKILL metadata DHT node ``index`` (reads fail over to replicas)."""
        self._kill("meta", index)

    def kill_standby(self, index: int) -> None:
        """SIGKILL shard ``index``'s standby process."""
        self._kill("standby", index)

    # -- restart orchestration --------------------------------------------------------
    def restart_coordinator_shard(
        self, index: int, graceful: bool = False
    ) -> Tuple[str, int]:
        """Respawn coordinator shard ``index`` on its journal and rejoin it.

        The rejoin protocol, in order: stop the old process (SIGTERM drain
        when ``graceful``, else SIGKILL — a no-op if it is already dead);
        tell the standby to ``resign`` so its handoff journal is closed on
        disk *before* the primary replays; respawn the primary on the same
        ``--journal-dir`` (boot replays the WAL, then ingests the handoff);
        repoint the shard's client and the standby's pull stream at the new
        address; mark the shard ``ACTIVE`` again (epoch bump) and broadcast
        the new state.  Returns the new address.
        """
        key = ("coordinator", index)
        proc = self._procs.get(key)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        standby_rpc = (
            self.version_manager._standbys[index]
            if index < len(self.version_manager._standbys)
            else None
        )
        if standby_rpc is not None:
            try:
                standby_rpc.call("resign")
            except Exception:  # noqa: BLE001 - standby may itself be dead
                pass
        self._launch([key])
        address = self._addrs[key]
        new_rpc = self._rpc(address)
        self.version_manager.replace_shard_rpc(index, new_rpc)
        if standby_rpc is not None:
            try:
                standby_rpc.call("follow", {"primary": f"{address[0]}:{address[1]}"})
            except Exception:  # noqa: BLE001
                pass
        membership = self.version_manager.membership
        if membership.status_of(index) == ShardStatus.DOWN:
            membership.mark_active(index)
        self._broadcast_membership(membership.state())
        if self.monitor is not None:
            self.monitor.update_target(
                "coordinator", index, address, standby=self._addrs.get(("standby", index))
            )
        return address

    def restart_standby(self, index: int) -> Tuple[str, int]:
        """Respawn shard ``index``'s standby and re-follow the primary."""
        key = ("standby", index)
        proc = self._procs.get(key)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5.0)
        self._launch([key])
        address = self._addrs[key]
        new_rpc = self._rpc(address)
        self.version_manager.replace_standby_rpc(index, new_rpc)
        if self.monitor is not None:
            self.monitor.update_target("standby", index, address)
            self.monitor.update_target(
                "coordinator",
                index,
                self._addrs[("coordinator", index)],
                standby=address,
            )
        return address

    def restart_meta_node(self, index: int) -> Tuple[str, int]:
        """Respawn metadata node ``index`` empty (replicas + scrub refill it)."""
        key = ("meta", index)
        proc = self._procs.get(key)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5.0)
        self._launch([key])
        address = self._addrs[key]
        stub = self._meta_stubs[f"meta-{index:03d}"]
        stub._rpc = self._rpc(address)
        return address

    # -- teardown ------------------------------------------------------------------
    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
        for rpc in self._rpcs:
            rpc.close()
        self._rpcs = []
        procs = list(self._procs.values())
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs = {}
        self._addrs = {}
        if self._owns_journal_dir and self._journal_dir:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
            self._journal_dir = None

    def __enter__(self) -> "ProcessDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
