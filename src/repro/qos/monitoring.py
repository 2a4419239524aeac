"""Monitoring: periodic samples of the storage service's global behaviour.

The QoS work of the paper (Section IV.E) combines "global behavior
modeling ... with client-side quality of service feedback".  Two inputs
feed that pipeline:

* **service-side monitoring** — per-window counters from every data
  provider (bytes moved, liveness, load imbalance);
* **client-side feedback** — the aggregate throughput clients actually
  achieved in the window.

A :class:`Monitor` attached to a simulated (or functional) deployment takes
one :class:`WindowSample` per sampling window; the resulting trace is the
training input of the GloBeM-style behaviour model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics


#: Feature vector layout used by the behaviour model (order matters).
FEATURE_NAMES = (
    "live_fraction",
    "client_throughput",
    "failure_rate",
    "write_load",
    "read_load",
    "load_imbalance",
)


@dataclass(frozen=True, slots=True)
class WindowSample:
    """Aggregated observation of one sampling window.

    The per-shard version-coordinator fields are observational extras (not
    part of :data:`FEATURE_NAMES`, so the behaviour model's input layout is
    unchanged): ``vm_shard_commits`` is how many versions each coordinator
    shard published during the window, ``vm_shard_backlog`` its queue depth
    (versions assigned but not yet published) at the window end, and
    ``vm_shard_imbalance`` the coefficient of variation of the per-shard
    commit counts — the signal that exposes a hot shard to the feedback
    loop.  ``metadata_rounds`` (also an extra) counts the metadata DHT
    round trips clients actually took during the window — with vectored
    metadata I/O one request covers a whole provider's share of a tree
    level (and a cache-absorbed lookup costs none), so this divided by
    the node traffic shows the batching factor the vectoring achieves.
    """

    window_start: float
    window_end: float
    live_fraction: float
    client_throughput: float
    failure_rate: float
    write_load: float
    read_load: float
    load_imbalance: float
    vm_shard_commits: Tuple[int, ...] = ()
    vm_shard_backlog: Tuple[int, ...] = ()
    vm_shard_imbalance: float = 0.0
    #: Membership epoch the coordinator reported this window under (bumps
    #: on every shard add/remove/crash/recovery; 0 = unsharded coordinator).
    coordinator_epoch: int = 0
    #: Coordinator shards with membership status ``active`` at window end
    #: (the denominator for per-shard backlog; retired slots stay in the
    #: positional tuples above but never count here).
    vm_active_shards: int = 0
    metadata_rounds: int = 0
    #: Metadata copies re-installed this window (read repair + anti-entropy
    #: scrub); sustained non-zero means providers keep recovering lossy.
    scrub_repairs: int = 0
    #: Components (data/metadata/coordinator) that finished recovering.
    recoveries: int = 0
    #: Deployment-wide commit-latency percentiles (seconds) when the sample
    #: was built from scraped metrics snapshots (``sample_from_metrics``);
    #: observational extras, not part of :data:`FEATURE_NAMES`.
    commit_latency_p50: float = 0.0
    commit_latency_p95: float = 0.0
    commit_latency_p99: float = 0.0

    def hottest_vm_shard(self) -> Optional[int]:
        """Index of the shard with the deepest commit backlog (None if idle)."""
        if not self.vm_shard_backlog or max(self.vm_shard_backlog) == 0:
            return None
        return int(np.argmax(self.vm_shard_backlog))

    def features(self) -> np.ndarray:
        return np.array(
            [
                self.live_fraction,
                self.client_throughput,
                self.failure_rate,
                self.write_load,
                self.read_load,
                self.load_imbalance,
            ],
            dtype=float,
        )


def feature_matrix(samples: Sequence[WindowSample]) -> np.ndarray:
    """Stack window samples into the (n_windows, n_features) training matrix."""
    if not samples:
        return np.empty((0, len(FEATURE_NAMES)))
    return np.vstack([sample.features() for sample in samples])


class Monitor:
    """Collects window samples from a simulated BlobSeer cluster.

    The monitor keeps the previous counter snapshot so each sample reflects
    the *delta* of the window, exactly like a counter-scraping monitoring
    agent (the paper used the Grid'5000 monitoring infrastructure + GloBeM's
    own collectors).
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.samples: List[WindowSample] = []
        self._last_time = 0.0
        self._last_bytes_written: Dict[str, int] = {}
        self._last_bytes_read: Dict[str, int] = {}
        self._last_failures = 0
        self._last_ops_bytes = 0
        self._last_shard_published: Dict[int, int] = {}
        self._last_metadata_rounds = 0
        self._last_scrub_repairs = 0
        self._last_recoveries = 0

    def sample(self) -> WindowSample:
        """Take one sample covering the window since the previous call."""
        now = self.cluster.env.now
        window = max(now - self._last_time, 1e-9)
        reports = self.cluster.provider_pool.reports()
        live = sum(1 for report in reports if report["alive"])
        live_fraction = live / max(1, len(reports))

        write_deltas: List[float] = []
        read_deltas: List[float] = []
        for report in reports:
            pid = report["provider_id"]
            written = report["bytes_stored"]
            read = report["bytes_read"]
            write_deltas.append(written - self._last_bytes_written.get(pid, 0))
            read_deltas.append(read - self._last_bytes_read.get(pid, 0))
            self._last_bytes_written[pid] = written
            self._last_bytes_read[pid] = read

        failures = sum(1 for t, action, _ in self.cluster.failure_log if action == "crash")
        failure_rate = (failures - self._last_failures) / window
        self._last_failures = failures

        # Client-side feedback: bytes successfully moved in this window.
        total_bytes = sum(r.nbytes for r in self.cluster.metrics.records if r.ok)
        client_throughput = (total_bytes - self._last_ops_bytes) / window
        self._last_ops_bytes = total_bytes

        write_load = float(np.sum(write_deltas)) / window
        read_load = float(np.sum(read_deltas)) / window
        imbalance = _coefficient_of_variation(write_deltas)

        # Version-coordinator shards: per-window commit counts and queue
        # depths (only when the cluster runs the sharded coordinator).
        shard_commits: Tuple[int, ...] = ()
        shard_backlog: Tuple[int, ...] = ()
        shard_imbalance = 0.0
        coordinator_epoch = 0
        vm_active_shards = 0
        vm = getattr(self.cluster, "version_manager", None)
        shard_reports = getattr(vm, "shard_reports", None)
        if callable(shard_reports):
            commits: List[int] = []
            backlog: List[int] = []
            in_ring: List[int] = []
            for report in shard_reports():
                shard = report["shard"]
                published = report["versions_published"]
                commits.append(published - self._last_shard_published.get(shard, 0))
                self._last_shard_published[shard] = published
                backlog.append(report["backlog"])
                status = report.get("status", "active")
                coordinator_epoch = report.get("epoch", coordinator_epoch)
                if status != "retired":
                    in_ring.append(commits[-1])
                if status == "active":
                    vm_active_shards += 1
            shard_commits = tuple(commits)
            shard_backlog = tuple(backlog)
            # Imbalance over the *current membership* only: a slot retired
            # by a scale-in would otherwise pin the coefficient of
            # variation high forever with its permanent zero.
            shard_imbalance = _coefficient_of_variation(in_ring)

        # Metadata round trips this window (one per level read or tree built).
        rounds_total = int(getattr(self.cluster, "metadata_rounds", 0))
        metadata_rounds = rounds_total - self._last_metadata_rounds
        self._last_metadata_rounds = rounds_total

        # Durability extras: repair installs (read repair + scrub) and
        # finished component recoveries of any class.
        repairs_total = 0
        metadata_store = getattr(self.cluster, "metadata_store", None)
        if metadata_store is not None:
            repairs_total = sum(
                stats.get("repairs", 0)
                for stats in metadata_store.access_stats().values()
            )
        scrub_repairs = repairs_total - self._last_scrub_repairs
        self._last_scrub_repairs = repairs_total
        recoveries_total = sum(
            1 for _, action, _ in self.cluster.failure_log if action == "recover"
        )
        recoveries = recoveries_total - self._last_recoveries
        self._last_recoveries = recoveries_total

        sample = WindowSample(
            window_start=self._last_time,
            window_end=now,
            live_fraction=live_fraction,
            client_throughput=client_throughput,
            failure_rate=failure_rate,
            write_load=write_load,
            read_load=read_load,
            load_imbalance=imbalance,
            vm_shard_commits=shard_commits,
            vm_shard_backlog=shard_backlog,
            vm_shard_imbalance=shard_imbalance,
            coordinator_epoch=coordinator_epoch,
            vm_active_shards=vm_active_shards,
            metadata_rounds=metadata_rounds,
            scrub_repairs=scrub_repairs,
            recoveries=recoveries,
        )
        self._last_time = now
        self.samples.append(sample)
        return sample

    def trace(self) -> np.ndarray:
        return feature_matrix(self.samples)


def _snapshot_counter(snapshot: Dict[str, Any], name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0))


def sample_from_metrics(
    snapshot: Dict[str, Any],
    window_start: float,
    window_end: float,
    previous: Optional[Dict[str, Any]] = None,
    num_providers: Optional[int] = None,
) -> WindowSample:
    """Build a :class:`WindowSample` from scraped metrics snapshots.

    ``snapshot`` (and ``previous``, the prior window's scrape) is the value
    :meth:`repro.net.deployment.ProcessDeployment.metrics_snapshot` returns
    — per-process snapshots under ``"processes"`` plus a ``"merged"`` view.
    This is the bridge that lets the QoS feedback loop observe *networked*
    deployments: loads come from the providers' byte counters (deltas
    against ``previous``), imbalance from the per-provider spread,
    liveness from which providers answered the scrape, failure pressure
    from the epoch-retry counters, and the commit-latency percentiles ride
    along as observational extras.  :data:`FEATURE_NAMES` is unchanged.
    """
    processes: Dict[str, Any] = snapshot.get("processes", snapshot)
    prev_processes: Dict[str, Any] = (previous or {}).get("processes", previous or {})
    window = max(window_end - window_start, 1e-9)

    providers = {
        name: proc for name, proc in processes.items() if name.startswith("provider-")
    }
    if num_providers is None:
        num_providers = len(providers)
    write_deltas: List[float] = []
    read_deltas: List[float] = []
    for name, proc in providers.items():
        prev = prev_processes.get(name, {})
        write_deltas.append(
            _snapshot_counter(proc, "provider_put_bytes")
            - _snapshot_counter(prev, "provider_put_bytes")
        )
        read_deltas.append(
            _snapshot_counter(proc, "provider_get_bytes")
            - _snapshot_counter(prev, "provider_get_bytes")
        )
    write_load = float(np.sum(write_deltas)) / window if write_deltas else 0.0
    read_load = float(np.sum(read_deltas)) / window if read_deltas else 0.0

    merged = snapshot.get("merged")
    if merged is None:
        merged = obs_metrics.merge_snapshots(processes.values())
    prev_merged = (previous or {}).get("merged")
    if prev_merged is None and prev_processes:
        prev_merged = obs_metrics.merge_snapshots(prev_processes.values())
    retries = _snapshot_counter(merged, "epoch_retry_errors") + _snapshot_counter(
        merged, "coordinator_reroutes_total"
    )
    prev_retries = 0.0
    if prev_merged:
        prev_retries = _snapshot_counter(
            prev_merged, "epoch_retry_errors"
        ) + _snapshot_counter(prev_merged, "coordinator_reroutes_total")

    backlog = tuple(
        int(processes[name].get("gauges", {}).get("coordinator_backlog", 0))
        for name in sorted(processes)
        if name.startswith("coordinator-")
    )
    latency = obs_metrics.percentiles(merged, "coordinator_commit_seconds")

    return WindowSample(
        window_start=window_start,
        window_end=window_end,
        live_fraction=len(providers) / max(1, num_providers),
        client_throughput=(write_load + read_load),
        failure_rate=max(0.0, retries - prev_retries) / window,
        write_load=write_load,
        read_load=read_load,
        load_imbalance=_coefficient_of_variation(write_deltas),
        vm_shard_backlog=backlog,
        commit_latency_p50=latency.get("p50", 0.0),
        commit_latency_p95=latency.get("p95", 0.0),
        commit_latency_p99=latency.get("p99", 0.0),
    )


def _coefficient_of_variation(values: Sequence[float]) -> float:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    mean = array.mean()
    if mean <= 0:
        return 0.0
    return float(array.std() / mean)


@dataclass
class QualityReport:
    """Client-observable quality of service over a run (the E7 metrics)."""

    mean_throughput: float
    std_throughput: float
    coefficient_of_variation: float
    failed_operations: int
    windows_below_target: int
    target_throughput: float

    @staticmethod
    def from_metrics(
        metrics, bin_seconds: float, target_throughput: Optional[float] = None
    ) -> "QualityReport":
        """Build the report from a :class:`~repro.sim.metrics.MetricsCollector`."""
        _, series = metrics.throughput_series(bin_seconds)
        mean = float(series.mean()) if series.size else 0.0
        std = float(series.std()) if series.size else 0.0
        if target_throughput is None:
            target_throughput = 0.5 * mean
        below = int(np.sum(series < target_throughput)) if series.size else 0
        return QualityReport(
            mean_throughput=mean,
            std_throughput=std,
            coefficient_of_variation=(std / mean) if mean > 0 else 0.0,
            failed_operations=len(metrics.failed()),
            windows_below_target=below,
            target_throughput=target_throughput,
        )
