"""The six workloads.

Each drives the system through its public API only — ``make_deployment`` /
``ProcessDeployment``, ``BlobSeerClient.submit_ops`` with ``AppendOp`` /
``WriteOp`` / ``ReadOp`` values (one op per call, or a 32-op batch), and the
``repro.sim`` drivers — and measures it from outside.

Work is fixed, never clocked: ``--seconds`` picks the number of rounds through
a per-workload constant calibrated on the commit that defined the benchmark
(so ``--seconds 10`` measures for about ten seconds there), and a round is a
fixed op list drawn from the seed.  Two commits therefore do exactly the same
work on exactly the same blob state, which matters here because an op's cost
depends on how much history its blob already has.  Round 0 is a warm-up and
is discarded.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import layers
from .harness import (
    KIB,
    MIB,
    RoundResult,
    Step,
    latency_ms,
    median_of,
    over_rounds,
    p50,
    p90,
    run_round,
    self_peak_rss_mb,
    timed_setups,
    work_dir,
)
from .oracle import Oracle

#: Traced rounds per ``--trace 1`` run (plus the untraced ones before them).
TRACED_ROUNDS = 3

#: Which specific end-to-end metrics a latency class feeds: (p50 name, p90 name).
_CLASS_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "append": ("append_p50_ms", "append_p90_ms"),
    "read": ("read_p50_ms", "read_p90_ms"),
    "read_small": ("read_small_p50_ms", None),
    "write": ("write_p50_ms", None),
    "batch_op": ("batch_op_ms", None),
}


@dataclass
class RunArgs:
    workload: str
    seed: int = 1
    seconds: float = 10.0
    trace: bool = False
    scale: str = "full"  # "full" | "smoke"
    root: str = "."


@dataclass
class Record:
    """Everything one run measured (the CLI prints the slice the driver wants)."""

    workload: str
    seed: int
    seconds: float
    scale: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    specific: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: self time per layer, ms per op (sums to the op span).
    breakdown: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class State:
    deployment: Any
    clients: List[Any]
    oracle: Oracle
    rng: random.Random
    blobs: List[int] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def _round_count(args: RunArgs, full_rounds: int) -> int:
    """Measured rounds of a run: ``full_rounds`` is what ``--seconds`` asks for.

    A traced run measures half as many untraced rounds (the traced ones come
    on top); the smoke scale always measures two.
    """
    if args.scale == "smoke":
        return 2
    rounds = max(3, full_rounds)
    return max(3, rounds // 2) if args.trace else rounds


# ---------------------------------------------------------------------------
# Blob workloads: shared skeleton
# ---------------------------------------------------------------------------


class BlobWorkload:
    name = ""
    threads = 1
    unit = 64 * KIB
    #: Latency class behind ``op_p50_ms`` / ``op_p90_ms``.
    primary = "append"
    setup_repeats = 3
    #: Measured rounds per second of ``--seconds`` (calibrated at the baseline).
    rounds_per_second = 0.5
    keep_versions = False

    def __init__(self, args: RunArgs) -> None:
        self.args = args
        self.smoke = args.scale == "smoke"

    # -- sizing -----------------------------------------------------------------
    def measured_rounds(self) -> int:
        return _round_count(self.args, round(self.args.seconds * self.rounds_per_second))

    # -- deployment -------------------------------------------------------------
    def net_config(self, **overrides: Any):
        from repro.core import BlobSeerConfig

        # json codec: msgpack is not installed here.  Loopback TCP, not a link.
        fields = dict(
            num_data_providers=3,
            num_metadata_providers=2,
            num_version_managers=1,
            chunk_size=64 * KIB,
            replication=1,
            transport="network",
            net_codec="json",
        )
        fields.update(overrides)
        return BlobSeerConfig(**fields)

    def deploy(self):
        from repro.core.deployment import make_deployment

        return make_deployment(self.net_config())

    def open(self) -> State:
        deployment = self.deploy()
        try:
            state = State(
                deployment=deployment,
                clients=[deployment.client() for _ in range(self.threads)],
                oracle=Oracle(self.args.seed, self.unit, keep_versions=self.keep_versions),
                rng=random.Random(f"{self.name}:{self.args.seed}"),
            )
            self.preload(state)
        except BaseException:
            deployment.close()
            raise
        return state

    def close(self, state: State) -> None:
        state.deployment.close()

    def preload(self, state: State) -> None:
        """Data that must exist before the first timed op (part of set-up)."""

    def append_now(self, state: State, blob_ids: Sequence[int], units: int) -> None:
        """One batch appending ``units`` fresh units to each of ``blob_ids``."""
        from repro.core import AppendOp

        ops, serials = [], []
        for blob_id in blob_ids:
            data, piece = state.oracle.payload(units)
            ops.append(AppendOp(blob_id, data))
            serials.append(piece)
        for op, outcome, piece in zip(ops, state.clients[0].submit_ops(ops), serials):
            outcome.raise_if_failed()
            state.oracle.record_write(op.blob_id, outcome.version, outcome.offset, piece)
        for blob_id in set(blob_ids):
            state.oracle.fold(blob_id)

    # -- rounds -----------------------------------------------------------------
    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        raise NotImplementedError

    def before_rounds(self, state: State, tally: Tally) -> None:
        """Fixed work timed once, ahead of the warm-up (deep history's writer)."""

    def check_read(self, state: State, op: Any, result: Any) -> bool:
        return state.oracle.check_read(op.blob_id, op.offset, op.size, result.data, op.version)

    def verify(self, state: State, result: RoundResult, tally: Tally) -> None:
        """Feed a finished round to the oracle (after its clock stopped)."""
        oracle = state.oracle
        touched = set()
        reads = []
        # Writes first, from every thread: a read may have seen a write the
        # other thread made in this same round.
        for step, results in result.done:
            for op, outcome, serials in zip(step.ops, results, step.serials):
                tally.attempted += 1
                if not outcome.ok:
                    tally.failed += 1
                    if len(oracle.errors) < 20:
                        oracle.errors.append(f"{type(op).__name__} failed: {outcome.error!r}")
                elif serials is not None:
                    oracle.record_write(op.blob_id, outcome.version, outcome.offset, serials)
                    touched.add(op.blob_id)
                else:
                    reads.append((op, outcome))
        for blob_id in touched:
            oracle.fold(blob_id)
        for op, outcome in reads:
            self.check_read(state, op, outcome)  # a wrong read counts in oracle.failures
        result.done.clear()

    def finish(self, state: State) -> None:
        """Final size, content and version count of every blob written."""
        from repro.core import ReadOp

        checker = state.deployment.client()
        manager = state.deployment.version_manager
        for blob_id in state.blobs:
            size = len(state.oracle.fold(blob_id)) * self.unit
            data: Optional[bytes] = b""
            if size:
                outcome = checker.submit_ops([ReadOp(blob_id, 0, size)])[0]
                data = outcome.data if outcome.ok else None
            state.oracle.check_final(blob_id, data, manager.latest_version(blob_id))

    # -- reporting --------------------------------------------------------------
    def throughput(self, state: State, rounds: Sequence[RoundResult]) -> Tuple[float, float]:
        return (
            over_rounds(rounds, RoundResult.ops_per_s),
            over_rounds(rounds, RoundResult.goodput_mbps),
        )

    def specifics(self, state: State, rounds: Sequence[RoundResult]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        labels = {label for r in rounds for label in r.samples}
        for label in sorted(labels):
            p50_name, p90_name = _CLASS_METRICS[label]
            out[p50_name] = latency_ms(rounds, label, p50)
            if p90_name is not None:
                out[p90_name] = latency_ms(rounds, label, p90)
        return out

    # -- the run ----------------------------------------------------------------
    def run(self) -> Record:
        args = self.args
        record = Record(args.workload, args.seed, args.seconds, args.scale, args.trace)
        state, setup_s = timed_setups(self.open, self.close, 1 if self.smoke else self.setup_repeats)
        try:
            tally = Tally()
            self.before_rounds(state, tally)
            warm = run_round(state.clients, self.plan(state, 0))
            self.verify(state, warm, tally)
            rounds: List[RoundResult] = []
            for index in range(1, self.measured_rounds() + 1):
                result = run_round(state.clients, self.plan(state, index))
                self.verify(state, result, tally)
                rounds.append(result)
            server_rss_mb = layers.server_rss_mb(state.deployment)
            ops_per_s, goodput = self.throughput(state, rounds)
            record.end_to_end = {
                "op_p50_ms": latency_ms(rounds, self.primary, p50),
                "op_p90_ms": latency_ms(rounds, self.primary, p90),
                "ops_per_s": ops_per_s,
                "goodput_MBps": goodput,
                "peak_rss_mb": self_peak_rss_mb() + server_rss_mb,
                "setup_s": setup_s,
            }
            record.specific = self.specifics(state, rounds)
            record.info = {
                "rounds": len(rounds),
                "ops_per_round": rounds[0].ops,
                "clients": self.threads,
                "round_wall_s": [round(r.wall, 4) for r in rounds],
                "host.steal_ratio": over_rounds(rounds, lambda r: r.steal_ratio),
                "host.calib_spin_ms": over_rounds(rounds, lambda r: r.spin_ms),
            }
            if args.trace:
                self.traced(state, tally, record, rounds, first_round=len(rounds) + 1)
            self.finish(state)
            record.attempted = tally.attempted
            record.failed = tally.failed + state.oracle.failures
            record.errors = list(state.oracle.errors)
            record.specific["failed_op_ratio"] = record.failed / max(1, record.attempted)
        finally:
            self.close(state)
        record.correct = record.failed == 0 and record.attempted > 0
        return record

    def all_clients(self, state: State) -> List[Any]:
        """Every client whose calls and counters belong to the measurement."""
        return state.clients

    def traced_extra(self, state: State, tally: Tally, rec, op_id: int) -> layers.OpCounts:
        """Traced fixed work ahead of the traced rounds (deep history's writer)."""
        return layers.OpCounts()

    def traced(
        self,
        state: State,
        tally: Tally,
        record: Record,
        untraced: Sequence[RoundResult],
        first_round: int,
    ) -> None:
        """Rerun a few rounds under the span recorder and derive the layer metrics."""
        from .tracing import Recorder, install

        rec = Recorder()
        clients = self.all_clients(state)
        wal_dir = state.extra.get("wal_dir")
        # Plans first: building them may create blobs, which costs RPCs that
        # must stay out of the before/after difference.
        plans = [
            self.plan(state, first_round + i) for i in range(2 if self.smoke else TRACED_ROUNDS)
        ]
        before = layers.snapshot(state.deployment, clients, state.clients, wal_dir=wal_dir)
        uninstall = install(rec, state.deployment, clients)
        traced_rounds: List[RoundResult] = []
        try:
            counts = self.traced_extra(state, tally, rec, op_id=10_000_000)
            for index, plan in enumerate(plans):
                traced_rounds.append(
                    run_round(state.clients, plan, rec, first_op_id=1_000_000 * index)
                )
        finally:
            uninstall()
        after = layers.snapshot(state.deployment, clients, state.clients, last=True, wal_dir=wal_dir)
        counts.add(layers.OpCounts.of(traced_rounds))
        for result in traced_rounds:
            self.verify(state, result, tally)
        record.per_layer, record.breakdown = layers.metrics(
            rec, before, after, counts, state.deployment, state.oracle.bytes_written
        )
        every = list(untraced) + traced_rounds
        untraced_p50 = latency_ms(untraced, self.primary, p50)
        record.per_layer.update(
            {
                "trace.overhead_ratio": latency_ms(traced_rounds, self.primary, p50) / untraced_p50
                if untraced_p50
                else 0.0,
                "host.steal_ratio": over_rounds(every, lambda r: r.steal_ratio),
                "host.calib_spin_ms": over_rounds(every, lambda r: r.spin_ms),
            }
        )
        trace_path = os.path.join(
            work_dir(self.args.root), f"trace-{self.name}-seed{self.args.seed}.json"
        )
        rec.save_chrome_trace(trace_path)
        record.info.update(
            chrome_trace=os.path.relpath(trace_path, self.args.root),
            traced_rounds=len(traced_rounds),
            traced_ops=counts.ops,
            spans=len(rec.spans),
        )


def _single(label: str, op: Any, serials: Optional[List[int]]) -> Step:
    return Step(label, [op], [serials])


# ---------------------------------------------------------------------------
# net_append_64k
# ---------------------------------------------------------------------------


class NetAppend64k(BlobWorkload):
    name = "net_append_64k"
    primary = "append"
    rounds_per_second = 0.7  # a round (128 appends) takes ~1.4 s at the baseline

    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        from repro.core import AppendOp

        blobs, appends = (2, 4) if self.smoke else (4, 32)
        fresh = [state.clients[0].create_blob().blob_id for _ in range(blobs)]
        state.blobs.extend(fresh)
        order = [blob_id for blob_id in fresh for _ in range(appends)]
        state.rng.shuffle(order)
        steps = []
        for blob_id in order:
            data, serials = state.oracle.payload(1)
            steps.append(_single("append", AppendOp(blob_id, data), serials))
        return [steps]


# ---------------------------------------------------------------------------
# net_read_1m
# ---------------------------------------------------------------------------


class NetRead1m(BlobWorkload):
    name = "net_read_1m"
    primary = "read"
    rounds_per_second = 0.5  # a round (128 + 128 reads) takes ~1.9 s at the baseline

    def preload(self, state: State) -> None:
        blob_id = state.clients[0].create_blob().blob_id
        state.blobs.append(blob_id)
        pieces, per_batch = (4, 4) if self.smoke else (32, 8)
        for _ in range(pieces // per_batch):
            self.append_now(state, [blob_id] * per_batch, MIB // self.unit)
        state.extra["units"] = pieces * (MIB // self.unit)

    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        from repro.core import ReadOp

        blob_id, units = state.blobs[0], state.extra["units"]
        per_class = 8 if self.smoke else 128
        big_units = MIB // self.unit
        steps = [
            _single("read", ReadOp(blob_id, state.rng.randrange(units - big_units + 1) * self.unit, MIB), None)
            for _ in range(per_class)
        ] + [
            _single("read_small", ReadOp(blob_id, state.rng.randrange(units) * self.unit, self.unit), None)
            for _ in range(per_class)
        ]
        state.rng.shuffle(steps)
        return [steps]


# ---------------------------------------------------------------------------
# net_batch_mixed
# ---------------------------------------------------------------------------


class NetBatchMixed(BlobWorkload):
    name = "net_batch_mixed"
    threads = 2
    primary = "batch_op"
    rounds_per_second = 0.4  # a round (2 x 8 batches of 32) takes ~2.4 s at the baseline
    PRELOAD_UNITS = 4

    def preload(self, state: State) -> None:
        client = state.clients[0]
        state.blobs.extend(client.create_blob().blob_id for _ in range(4 if self.smoke else 16))
        self.append_now(state, state.blobs, self.PRELOAD_UNITS)

    def check_read(self, state: State, op: Any, result: Any) -> bool:
        # The other thread may have overwritten the unit since: any one whole
        # write of that unit is right, a mixture of two is a torn read.
        return state.oracle.check_frontier_read(op.blob_id, op.offset, op.size, result.data)

    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        from repro.core import AppendOp, ReadOp, WriteOp

        batches = 2 if self.smoke else 8
        rng, oracle, unit = state.rng, state.oracle, self.unit
        plans = []
        for _thread in range(self.threads):
            steps = []
            for _ in range(batches):
                ops: List[Tuple[Any, Optional[List[int]]]] = []
                for _ in range(12):
                    data, serials = oracle.payload(1)
                    ops.append((AppendOp(rng.choice(state.blobs), data), serials))
                for _ in range(4):
                    data, serials = oracle.payload(1)
                    offset = rng.randrange(self.PRELOAD_UNITS) * unit
                    ops.append((WriteOp(rng.choice(state.blobs), offset, data), serials))
                for _ in range(16):
                    offset = rng.randrange(self.PRELOAD_UNITS) * unit
                    ops.append((ReadOp(rng.choice(state.blobs), offset, unit), None))
                rng.shuffle(ops)
                steps.append(Step("batch_op", [op for op, _ in ops], [s for _, s in ops]))
            plans.append(steps)
        return plans


# ---------------------------------------------------------------------------
# net_commit_storm
# ---------------------------------------------------------------------------


class NetCommitStorm(BlobWorkload):
    name = "net_commit_storm"
    threads = 2
    unit = 1 * KIB
    primary = "append"
    rounds_per_second = 0.7  # a round (2 x 128 appends) takes ~1.4 s at the baseline

    def deploy(self):
        from repro.net.deployment import ProcessDeployment

        # An explicit WAL directory inside the checkout (the default would be
        # a mkdtemp under /tmp) that the benchmark can also measure.
        wal = tempfile.mkdtemp(prefix="wal-", dir=work_dir(self.args.root))
        config = self.net_config(
            num_version_managers=2, journal_enabled=True, net_standby_per_shard=0
        )
        try:
            deployment = ProcessDeployment(config=config, journal_dir=wal)
        except BaseException:
            shutil.rmtree(wal, ignore_errors=True)
            raise
        self._wal = wal
        return deployment

    def close(self, state: State) -> None:
        state.deployment.close()
        shutil.rmtree(state.extra["wal_dir"], ignore_errors=True)

    def preload(self, state: State) -> None:
        state.extra["wal_dir"] = self._wal
        client = state.clients[0]
        state.blobs.extend(client.create_blob().blob_id for _ in range(8 if self.smoke else 64))

    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        from repro.core import AppendOp

        per_blob = 1 if self.smoke else 2
        plans = []
        for _thread in range(self.threads):
            order = [blob_id for blob_id in state.blobs for _ in range(per_blob)]
            state.rng.shuffle(order)
            steps = []
            for blob_id in order:
                data, serials = state.oracle.payload(1)
                steps.append(_single("append", AppendOp(blob_id, data), serials))
            plans.append(steps)
        return plans


# ---------------------------------------------------------------------------
# direct_deep_history
# ---------------------------------------------------------------------------


class DirectDeepHistory(BlobWorkload):
    """One blob, 1024 mutations deep; then cold reads of every version.

    ``op_p50_ms`` / ``op_p90_ms`` are the versioned 256 KiB reads;
    ``ops_per_s`` / ``goodput_MBps`` are the writer phase as a whole (1024
    mutations over their wall time), which is where O(history) cost shows.
    """

    name = "direct_deep_history"
    primary = "read"
    setup_repeats = 5
    keep_versions = True
    WINDOW = 128
    READ_SIZE = 256 * KIB

    def measured_rounds(self) -> int:
        # ~4.4 s of the budget goes to the writer phase; a read round is ~0.13 s.
        return _round_count(self.args, round(3.2 * self.args.seconds))

    @property
    def mutations(self) -> int:
        return 96 if self.smoke else 1024

    @property
    def window(self) -> int:
        return 16 if self.smoke else self.WINDOW

    def deploy(self):
        from repro.core import BlobSeerConfig, ClientConfig
        from repro.core.deployment import make_deployment

        return make_deployment(
            BlobSeerConfig(
                num_data_providers=4,
                num_metadata_providers=4,
                chunk_size=64 * KIB,
                client=ClientConfig(metadata_cache_capacity=256 if self.smoke else 1024),
            )
        )

    def open(self) -> State:
        state = super().open()
        # clients[0] reads; the writer is a client of its own so the reader's
        # metadata cache starts cold and its counters count reads only.
        state.extra["writer"] = state.deployment.client()
        state.extra["plan"] = self._mutation_plan(state)
        return state

    def _mutation_plan(self, state: State) -> List[Tuple[str, Optional[int], bytes, List[int]]]:
        """(label, unit offset or None for append, payload, serials) x mutations."""
        plan = []
        size_units = 0
        for index in range(self.mutations):
            data, serials = state.oracle.payload(1)
            if index % 4 == 3:
                plan.append(("write", state.rng.randrange(size_units), data, serials))
            else:
                plan.append(("append", None, data, serials))
                size_units += 1
        return plan

    def _write_history(self, state: State, tally: Tally, rec=None, op_id: int = 0):
        """Apply the mutation plan to a fresh blob; returns (blob, wall, samples)."""
        from repro.core import AppendOp, WriteOp

        writer = state.extra["writer"]
        blob_id = writer.create_blob().blob_id
        submit = writer.submit_ops
        samples: Dict[str, List[float]] = {"append": [], "write": []}
        outcomes = []
        started_all = perf_counter()
        for index, (label, unit_offset, data, _serials) in enumerate(state.extra["plan"]):
            op = (
                AppendOp(blob_id, data)
                if unit_offset is None
                else WriteOp(blob_id, unit_offset * self.unit, data)
            )
            if rec is not None:
                rec.begin(label, op_id + index)
            started = perf_counter()
            outcome = submit([op])[0]
            samples[label].append(perf_counter() - started)
            if rec is not None:
                rec.end()
            outcomes.append(outcome)
        wall = perf_counter() - started_all
        for (label, _o, _d, serials), outcome in zip(state.extra["plan"], outcomes):
            tally.attempted += 1
            if outcome.ok:
                state.oracle.record_write(blob_id, outcome.version, outcome.offset, serials)
            else:
                tally.failed += 1
        state.oracle.fold(blob_id)
        state.blobs.append(blob_id)
        return blob_id, wall, samples

    def plan(self, state: State, round_index: int) -> List[List[Step]]:
        from repro.core import ReadOp

        blob_id = state.extra["blob"]
        oracle, unit = state.oracle, self.unit
        read_units = self.READ_SIZE // unit
        steps = []
        for _ in range(16 if self.smoke else 128):
            while True:
                version = state.rng.randrange(1, oracle.versions(blob_id) + 1)
                units = oracle.size(blob_id, version) // unit
                if units >= read_units:
                    break
            offset = state.rng.randrange(units - read_units + 1) * unit
            steps.append(_single("read", ReadOp(blob_id, offset, self.READ_SIZE, version), None))
        return [steps]

    def before_rounds(self, state: State, tally: Tally) -> None:
        blob_id, wall, samples = self._write_history(state, tally)
        state.extra.update(blob=blob_id, writer_wall=wall, writer_samples=samples)

    def throughput(self, state: State, rounds: Sequence[RoundResult]) -> Tuple[float, float]:
        wall = state.extra["writer_wall"]
        return self.mutations / wall, self.mutations * self.unit / wall / 1e6

    def specifics(self, state: State, rounds: Sequence[RoundResult]) -> Dict[str, float]:
        out = super().specifics(state, rounds)
        samples = state.extra["writer_samples"]
        out["append_p50_ms"] = 1e3 * p50(samples["append"])
        out["append_p90_ms"] = 1e3 * p90(samples["append"])
        out["write_p50_ms"] = 1e3 * p50(samples["write"])
        # Appends are 3 of every 4 mutations: a window of 128 mutations is 96 appends.
        per_window = self.window * 3 // 4
        first = p50(samples["append"][:per_window])
        last = p50(samples["append"][-per_window:])
        out["history_slowdown"] = last / first if first > 0 else 0.0
        return out

    def all_clients(self, state: State) -> List[Any]:
        return state.clients + [state.extra["writer"]]

    def traced_extra(self, state: State, tally: Tally, rec, op_id: int) -> layers.OpCounts:
        # A second, traced history on a fresh blob: the first stays untraced so
        # the end-to-end figures above never carry tracing overhead.
        self._write_history(state, tally, rec, op_id)
        written = self.mutations * self.unit
        return layers.OpCounts(
            ops=self.mutations, mutations=self.mutations, user_bytes=written, written_bytes=written
        )


# ---------------------------------------------------------------------------
# sim_paper_scaling
# ---------------------------------------------------------------------------


class SimPaperScaling:
    """E1's and E3's cluster in simulated time; wall time is what is bounded.

    The end-to-end figures are wall-clock — how fast the real control plane
    (version manager, provider manager, segment trees, DHT) runs under the
    discrete-event engine: ``op_p50_ms`` / ``op_p90_ms`` are wall ms per
    simulated client op over the nine scenarios of a sweep, ``ops_per_s`` and
    ``goodput_MBps`` simulated ops and bytes per wall second.  The simulated
    results themselves (``sim_*``) are exact and must repeat bit for bit.
    """

    name = "sim_paper_scaling"
    OP_SIZE = 8 * MIB

    def __init__(self, args: RunArgs) -> None:
        self.args = args
        self.smoke = args.scale == "smoke"
        self.clients = (1, 8) if self.smoke else (1, 8, 64)
        self.blob_size = (64 if self.smoke else 256) * MIB

    def measured_rounds(self) -> int:
        return _round_count(self.args, round(1.5 * self.args.seconds))  # a sweep times ~0.45 s

    def _cluster(self):
        from repro.core.config import BlobSeerConfig
        from repro.sim import SimulatedBlobSeer

        return SimulatedBlobSeer(
            BlobSeerConfig(num_data_providers=48, num_metadata_providers=16, chunk_size=MIB)
        )

    def _primed(self):
        from repro.sim import prime_blob

        cluster = self._cluster()
        blob = cluster.create_blob()
        prime_blob(cluster, blob, self.blob_size)
        return cluster, blob

    def _scenario(self, kind: str, clients: int, errors: List[str]) -> Tuple[float, float, int]:
        """Run one (kind, clients) scenario: (wall s, simulated B/s, ops)."""
        from repro.sim import (
            run_concurrent_appenders,
            run_concurrent_readers,
            run_concurrent_writers,
        )

        # Building and priming the cluster is the scenario's set-up (setup_s
        # times one); the clock covers the concurrent clients only.
        if kind == "append":
            cluster = self._cluster()
            blob = cluster.create_blob()
            started = perf_counter()
            result = run_concurrent_appenders(cluster, blob, clients, self.OP_SIZE)
            expected_versions = clients
        else:
            cluster, blob = self._primed()
            primed_versions = cluster.version_manager.latest_version(blob.blob_id)
            started = perf_counter()
            if kind == "read":
                result = run_concurrent_readers(cluster, blob, clients, self.OP_SIZE, disjoint=True)
                expected_versions = primed_versions
            else:
                result = run_concurrent_writers(cluster, blob, clients, self.OP_SIZE, disjoint=True)
                expected_versions = primed_versions + clients
        wall = perf_counter() - started
        done = result.metrics.successful(kind)
        versions = cluster.version_manager.latest_version(blob.blob_id)
        if (
            len(done) != clients
            or result.metrics.failed()
            or result.metrics.total_bytes(kind) != clients * self.OP_SIZE
            or versions != expected_versions
        ):
            errors.append(
                f"sim {kind} c={clients}: {len(done)} ok ops, "
                f"{len(result.metrics.failed())} failed, {versions} versions"
            )
        return wall, result.metrics.aggregate_throughput(kind), clients

    def _sweep(self, errors: List[str]) -> Dict[str, Any]:
        per_op, sims, ops, total = [], {}, 0, 0.0
        for clients in self.clients:
            for kind in ("read", "write", "append"):
                wall, throughput, count = self._scenario(kind, clients, errors)
                per_op.append(wall / count)
                sims[(kind, clients)] = throughput
                ops += count
                total += wall
        return {"wall": total, "per_op": per_op, "sim": sims, "ops": ops}

    def run(self) -> Record:
        args = self.args
        record = Record(args.workload, args.seed, args.seconds, args.scale, args.trace)
        _, setup_s = timed_setups(self._primed, lambda _state: None, 1 if self.smoke else 5)
        errors: List[str] = []
        self._sweep(errors)  # warm-up (imports, allocator), discarded
        sweeps = [self._sweep(errors) for _ in range(self.measured_rounds())]
        top = self.clients[-1]
        sim = sweeps[0]["sim"]
        if any(s["sim"] != sim for s in sweeps):
            errors.append("simulated results differ between sweeps of one run")
        ops = sweeps[0]["ops"]
        sim_bytes = ops * self.OP_SIZE
        record.end_to_end = {
            "op_p50_ms": median_of([1e3 * p50(s["per_op"]) for s in sweeps]),
            "op_p90_ms": median_of([1e3 * p90(s["per_op"]) for s in sweeps]),
            "ops_per_s": median_of([ops / s["wall"] for s in sweeps]),
            "goodput_MBps": median_of([sim_bytes / s["wall"] / 1e6 for s in sweeps]),
            "peak_rss_mb": self_peak_rss_mb(),
            "setup_s": setup_s,
        }
        record.specific = {
            "sim_append_MBps_c64": sim[("append", top)] / 1e6,
            "sim_read_MBps_c64": sim[("read", top)] / 1e6,
        }
        if sim[("append", top)] < 4 * sim[("append", 1)] or sim[("read", top)] < 4 * sim[("read", 1)]:
            errors.append("simulated throughput no longer scales with clients (paper's E1/E3 shape)")
        record.attempted = ops * (len(sweeps) + 1)
        record.failed = len(errors)
        record.errors = errors[:20]
        record.specific["failed_op_ratio"] = record.failed / max(1, record.attempted)
        record.correct = not errors
        record.info = {"rounds": len(sweeps), "ops_per_round": ops, "clients": list(self.clients)}
        if args.trace:
            record.per_layer = {
                "sim.engine.wall_s": median_of([s["wall"] for s in sweeps]),
                "sim.write_MBps_c64": sim[("write", top)] / 1e6,
                "sim.append_scaling_c64_over_c1": sim[("append", top)] / sim[("append", 1)],
                "sim.read_scaling_c64_over_c1": sim[("read", top)] / sim[("read", 1)],
            }
        return record


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        NetAppend64k,
        NetRead1m,
        NetBatchMixed,
        NetCommitStorm,
        DirectDeepHistory,
        SimPaperScaling,
    )
}


def run_workload(args: RunArgs) -> Record:
    return WORKLOAD_CLASSES[args.workload](args).run()
