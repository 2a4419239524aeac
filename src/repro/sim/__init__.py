"""Discrete-event simulation substrate for the throughput experiments.

The paper's evaluation ran on the Grid'5000 testbed; this package replaces
that testbed with a discrete-event model of the cluster (nodes, NICs,
per-request service times, failures) while executing the *real* BlobSeer
control-plane code for every protocol decision.  See DESIGN.md for the
substitution rationale.
"""

from .engine import Environment, Event, Process, Timeout, all_of
from .resources import Resource, ServiceStation
from .network import NetworkModel, SimNode
from .metrics import MetricsCollector, OperationRecord
from .cluster import SimulatedBlobSeer
from .protocols import SimClient
from .failures import FAILURE_TARGETS, FailureInjector, FailureModel, scheduled_failures
from .driver import (
    WorkloadResult,
    build_cluster,
    prime_blob,
    run_concurrent_appenders,
    run_concurrent_readers,
    run_concurrent_writers,
    run_mixed_workload,
    run_multi_blob_appenders,
    run_sustained_appends,
    run_sustained_multi_blob_appenders,
)

__all__ = [
    "Environment",
    "Event",
    "FAILURE_TARGETS",
    "FailureInjector",
    "FailureModel",
    "MetricsCollector",
    "NetworkModel",
    "OperationRecord",
    "Process",
    "Resource",
    "ServiceStation",
    "SimClient",
    "SimNode",
    "SimulatedBlobSeer",
    "Timeout",
    "WorkloadResult",
    "all_of",
    "build_cluster",
    "prime_blob",
    "run_concurrent_appenders",
    "run_concurrent_readers",
    "run_concurrent_writers",
    "run_mixed_workload",
    "run_multi_blob_appenders",
    "run_sustained_appends",
    "run_sustained_multi_blob_appenders",
    "scheduled_failures",
]
