"""Operation objects for the batched client API.

The paper's write protocol was designed so that everything expensive —
chunk placement and chunk pushes (steps 1-2), metadata weaving and
publication (steps 4-5) — runs concurrently across writers, and only the
version assignment (step 3) is serialised.  A strictly synchronous
one-call-per-operation client can never exhibit that overlap from a single
process, so the batch API reifies operations as values:

* :class:`ReadOp` / :class:`WriteOp` / :class:`AppendOp` — frozen request
  descriptions, validated at construction time;
* :class:`OpResult` — the per-operation outcome: status, assigned version,
  ``write_id``, payload (reads), error (failures) and timing;
* :class:`OpFuture` — the handle a :class:`~repro.core.client.Batch` returns
  at enqueue time, resolved when the batch is submitted;
* :class:`OpTiming` — per-operation phase timings (data-plane transfer,
  metadata traffic, per-fragment fetch times) in wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple, Union

from .errors import InvalidRangeError
from .types import BlobId, Version


class OpKind(Enum):
    """The three data operations of the access interface (Section I.B.1)."""

    READ = "read"
    WRITE = "write"
    APPEND = "append"


@dataclass(frozen=True, slots=True)
class ReadOp:
    """Read ``size`` bytes at ``offset`` from snapshot ``version`` (None = latest)."""

    blob_id: BlobId
    offset: int
    size: int
    version: Optional[Version] = None

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size < 0:
            raise InvalidRangeError("read offset and size must be >= 0")

    @property
    def kind(self) -> OpKind:
        return OpKind.READ


@dataclass(frozen=True, slots=True)
class WriteOp:
    """Write ``data`` at ``offset``, producing a new snapshot version."""

    blob_id: BlobId
    offset: int
    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise InvalidRangeError("write payload must not be empty")
        if self.offset < 0:
            raise InvalidRangeError("write offset must be >= 0")

    @property
    def kind(self) -> OpKind:
        return OpKind.WRITE


@dataclass(frozen=True, slots=True)
class AppendOp:
    """Append ``data`` at the end of the blob, producing a new snapshot version."""

    blob_id: BlobId
    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise InvalidRangeError("append payload must not be empty")

    @property
    def kind(self) -> OpKind:
        return OpKind.APPEND


#: Any request the batch engine accepts.
Op = Union[ReadOp, WriteOp, AppendOp]


class OpStatus(Enum):
    """Lifecycle of one batched operation."""

    PENDING = "pending"
    OK = "ok"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class OpTiming:
    """Phase timings of one operation, in ``time.perf_counter`` seconds.

    ``metadata_seconds`` is the client's own tree lookup (reads) or weave
    (writes, appends and repairs), timed where it runs.
    ``fragment_fetch_seconds`` has one entry per fragment a read fetched
    from the data providers, in blob order — the per-fragment detail the
    sequential read loop used to hide.
    """

    started: float = 0.0
    finished: float = 0.0
    #: Data-plane time: chunk pushes (writes/appends) or fetches (reads).
    transfer_seconds: float = 0.0
    #: Metadata traffic: tree lookup (reads) or weave (writes/appends).
    metadata_seconds: float = 0.0
    #: Per-fragment fetch durations for reads (empty for writes/appends).
    fragment_fetch_seconds: Tuple[float, ...] = ()
    #: Network breakdown of this operation's socket traffic — connection
    #: establishment, request serialisation+write, and response wait.
    #: All zero on in-process transports, so Direct and Network runs report
    #: comparable phase tables (the network rows simply add these).
    connect_seconds: float = 0.0
    send_seconds: float = 0.0
    wait_seconds: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass(frozen=True, slots=True)
class OpResult:
    """Outcome of one operation of a submitted batch."""

    #: Position of the operation in its batch (submission order).
    index: int
    op: Op
    status: OpStatus
    #: Snapshot version assigned to a write/append (None for reads/failures).
    version: Optional[Version] = None
    #: ``write_id`` the provider manager named this operation's chunks with.
    write_id: Optional[int] = None
    #: Offset the data landed at (appends learn theirs from the ticket).
    offset: Optional[int] = None
    #: Payload of a successful read (None otherwise).
    data: Optional[bytes] = None
    error: Optional[BaseException] = None
    timing: OpTiming = field(default_factory=OpTiming)
    #: Trace id of the operation's span when tracing was enabled (None
    #: otherwise) — the handle that joins this result to the exported spans.
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is OpStatus.OK

    def raise_if_failed(self) -> "OpResult":
        """Re-raise the operation's error (exactly what the sequential API threw)."""
        if self.error is not None:
            raise self.error
        return self


class OpFuture:
    """Placeholder for one operation's result, resolved at batch submission.

    This is a deliberately synchronous future: batches execute entirely
    inside :meth:`~repro.core.client.Batch.submit`, so ``result()`` never
    blocks — it raises if the batch has not been submitted yet.
    """

    def __init__(self, index: int, op: Op) -> None:
        self.index = index
        self.op = op
        self._result: Optional[OpResult] = None

    def done(self) -> bool:
        return self._result is not None

    def result(self) -> OpResult:
        if self._result is None:
            raise RuntimeError(
                "operation result is not available: submit() the batch first"
            )
        return self._result

    def value(self) -> Union[bytes, Version, None]:
        """Convenience accessor: a read's payload or a write/append's version.

        Raises the operation's error if it failed, mirroring what the
        corresponding single-operation call would have raised.
        """
        result = self.result().raise_if_failed()
        if isinstance(self.op, ReadOp):
            return result.data
        return result.version

    def _resolve(self, result: OpResult) -> None:
        self._result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._result.status.value if self._result else "unsubmitted"
        return f"OpFuture(#{self.index} {self.op.kind.value} [{state}])"
