"""Network and node model for the simulated cluster.

The model is intentionally simple but captures the two effects the paper's
experiments hinge on:

* **bandwidth contention** — every node has an uplink and a downlink NIC
  modelled as FIFO service stations; a transfer of ``n`` bytes occupies the
  sender's uplink and then the receiver's downlink for ``n / rate`` seconds
  each, so many clients hammering one provider queue up behind its downlink
  while transfers to distinct providers proceed in parallel;
* **per-request overhead** — every RPC pays a fixed latency plus a small
  service time at the target, so metadata-heavy operations saturate a
  single metadata server long before they saturate sixteen of them.

Defaults approximate one Grid'5000 cluster of the era: 1 Gb/s Ethernet
(125 MB/s), ~0.1 ms LAN latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from .engine import Environment, all_of
from .resources import ServiceStation


@dataclass(frozen=True)
class NetworkModel:
    """Tunable parameters of the simulated network and service times."""

    #: NIC bandwidth in bytes/second (both directions), per node.
    bandwidth: float = 125e6
    #: One-way network latency in seconds.
    latency: float = 100e-6
    #: Fixed CPU/service overhead charged at the target of every RPC.
    rpc_overhead: float = 50e-6
    #: Serialised service time of one version-manager request.
    version_manager_service: float = 30e-6
    #: Serialised service time of one provider-manager allocation.
    provider_manager_service: float = 50e-6
    #: Size in bytes of one serialised metadata tree node on the wire.
    metadata_node_bytes: int = 512
    #: Service time charged at a metadata provider per node get/put,
    #: in addition to the transfer of ``metadata_node_bytes``.
    metadata_service: float = 100e-6
    #: Per-chunk service overhead at a data provider (request handling,
    #: hashing, local store insertion) in addition to the transfer itself.
    chunk_service: float = 200e-6
    #: Serialised time one coordinator shard spends appending a journal
    #: record (WAL write + fsync amortised) — charged per durable commit-path
    #: request when journaling is enabled.
    journal_service: float = 200e-6
    #: Service time of one anti-entropy membership digest exchange with a
    #: metadata provider (per provider per scrub batch).
    scrub_digest_service: float = 100e-6
    #: Bytes of one scrub digest request/response on the wire.
    scrub_digest_bytes: int = 2048
    #: Serialised time a coordinator shard spends replaying one streamed
    #: journal record during a membership change (shard add/remove):
    #: charged at the destination's CPU, so commits routed to a
    #: just-joined shard queue behind its catch-up.
    migration_record_service: float = 20e-6
    #: Bytes of one streamed journal record on the wire (source shard
    #: uplink -> destination downlink during a rebalance).
    migration_record_bytes: int = 256

    def transfer_time(self, nbytes: int) -> float:
        """Pure serialisation time of ``nbytes`` on one NIC."""
        return nbytes / self.bandwidth


class SimNode:
    """One machine of the simulated cluster.

    A node bundles an uplink and a downlink :class:`ServiceStation` plus a
    request-processing station (CPU) used to charge per-RPC overheads.  Roles
    (client, data provider, metadata provider, manager) only differ in how
    the protocols use them.
    """

    def __init__(
        self,
        env: Environment,
        node_id: str,
        model: NetworkModel,
        role: str = "node",
        service_capacity: int = 1,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.role = role
        self.model = model
        self.uplink = ServiceStation(env, f"{node_id}.up")
        self.downlink = ServiceStation(env, f"{node_id}.down")
        self.cpu = ServiceStation(env, f"{node_id}.cpu", capacity=service_capacity)
        self.alive = True

    # -- failure injection -------------------------------------------------------
    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # -- primitive operations -------------------------------------------------------
    def send_to(self, other: "SimNode", nbytes: int) -> Generator:
        """Transfer ``nbytes`` from this node to ``other`` (store-and-forward).

        Occupies this node's uplink, pays the propagation latency, then
        occupies the destination downlink.  Usage: ``yield from a.send_to(b, n)``.
        """
        duration = self.model.transfer_time(nbytes)
        yield from self.uplink.serve(duration, nbytes)
        yield self.env.timeout(self.model.latency)
        yield from other.downlink.serve(duration, nbytes)

    def rpc(self, target: "SimNode", request_bytes: int = 256,
            response_bytes: int = 256, service: Optional[float] = None) -> Generator:
        """A request/response exchange with ``target``.

        Charges the request transfer, the target's service time (CPU), and
        the response transfer.  ``service`` defaults to the model's generic
        RPC overhead.
        """
        service_time = self.model.rpc_overhead if service is None else service
        yield from self.send_to(target, request_bytes)
        yield from target.cpu.serve(service_time)
        yield from target.send_to(self, response_bytes)

    # -- reporting -----------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        return {
            "node_id": self.node_id,
            "role": self.role,
            "alive": self.alive,
            "uplink_busy": self.uplink.busy_time,
            "downlink_busy": self.downlink.busy_time,
            "cpu_busy": self.cpu.busy_time,
            "uplink_bytes": self.uplink.bytes_served,
            "downlink_bytes": self.downlink.bytes_served,
            "cpu_jobs": self.cpu.jobs_served,
        }


def _access_level(op: str, payload: Any) -> int:
    """Tree level of one recorded access (node size; bulk keys share a level)."""
    if op in ("get", "put"):
        return getattr(payload, "size", 0)
    return max((getattr(key, "size", 0) for key in payload), default=0)


def _access_count(op: str, payload: Any) -> int:
    """Number of logical node operations one recorded access carries."""
    if op in ("get", "put"):
        return 1
    return max(1, len(payload))


def charge_metadata_accesses(
    client: SimNode,
    meta_nodes: Dict[str, SimNode],
    accesses: Sequence[Tuple[str, str, Any]],
    leveled: bool,
    name: str = "sim.meta",
) -> Generator:
    """Charge recorded metadata DHT accesses on simulated time.

    ``accesses`` are ``(provider_id, op, payload)`` entries exactly as the
    DHT's ``access_hook`` fired them.  An access (one
    ``get_many``/``put_many`` request per provider) costs a single round
    trip from ``client`` carrying ``n`` nodes' payload and ``n`` service
    times at that provider's CPU, with the providers of one round running
    in parallel — a level costs the max over its providers.  A scalar
    access is a one-node round.  ``leveled=True`` additionally orders
    rounds root-level first, parents before children, as a tree lookup
    must.
    """
    env, model = client.env, client.model

    def one_access(pid: str, op: str, payload: Any):
        count = _access_count(op, payload)
        service = model.metadata_service * count
        if op in ("put", "put_many"):
            request_bytes, response_bytes = model.metadata_node_bytes * count, 64
        else:
            request_bytes, response_bytes = 64 * count, model.metadata_node_bytes * count
        yield from client.rpc(
            meta_nodes[pid],
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            service=service,
        )

    def charge_group(entries):
        children = [
            env.process(one_access(pid, op, payload), name=name)
            for pid, op, payload in entries
        ]
        if children:
            yield all_of(env, children)

    if leveled:
        levels: dict = {}
        for pid, op, payload in accesses:
            levels.setdefault(_access_level(op, payload), []).append((pid, op, payload))
        for size in sorted(levels, reverse=True):
            yield from charge_group(levels[size])
    else:
        yield from charge_group(list(accesses))
