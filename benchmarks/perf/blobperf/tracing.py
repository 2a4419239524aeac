"""The benchmark's own span recorder, installed from outside the program.

Nothing under ``src/`` knows about this file.  :func:`install` replaces, on
the objects and module names where the program looks them up, the public
functions at each layer boundary with wrappers that record a span — name,
layer, start, end, parent, op id — into an in-memory list:

* ``client.submit_ops`` and the client's transport (``transfer``,
  ``control``, ``control_many_timed``);
* ``deployment.version_manager`` / ``deployment.provider_manager`` (a
  forwarding spy, so every public call is one span);
* ``deployment.metadata_store`` bulk and scalar accesses, and
  ``SegmentTreeBuilder.build`` / ``SegmentTreeReader.lookup``;
* in-process data providers (``provider_pool.write_chunk`` / ``read_chunk``);
* the client side of the wire: ``wire.encode`` / ``wire.decode`` and
  ``encode_frame`` as ``repro.net.rpc`` sees them, ``RpcClient.submit`` and
  ``RpcFuture.result``; ``FrameDecoder.feed`` only counts bytes in.

Server processes cannot be wrapped from here; their time comes from
``metrics_snapshot()`` deltas (see ``layers.py``).

A span's *self time* is its duration minus its children's.  Children run on
the parent's thread one after another, so the children's total is kept as a
running sum on the parent and no interval arithmetic is needed afterwards.
Spans recorded on pool worker threads have no parent: they keep their
duration (so per-call figures stay right) and their cost stays in the self
time of whichever span waited for them.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional

# Span record layout (a plain list: cheaper than an object on the hot path).
NAME, LAYER, START, END, CHILD_TIME, PARENT, OP_ID, TID, NOTE = range(9)

ROOT_LAYER = "op"


class Recorder:
    """In-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        #: Bytes the client's frame decoders were fed (``FrameDecoder.feed``).
        self.rx_bytes = 0
        #: Bytes of frames the client encoded (``encode_frame`` results).
        self.tx_bytes = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- root spans: one per timed client call ------------------------------------
    def begin(self, label: str, op_id: int) -> None:
        stack = self._stack()
        span = [label, ROOT_LAYER, 0.0, 0.0, 0.0, None, op_id, threading.get_ident(), None]
        stack.append(span)
        span[START] = perf_counter()

    def end(self) -> None:
        now = perf_counter()
        span = self._stack().pop()
        span[END] = now
        self.spans.append(span)

    # -- layer spans ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        note: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around each call.

        ``note(args, kwargs, result)`` may attach one number to the span
        (records returned, keys carried, bytes encoded).
        """
        spans = self.spans
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [
                name,
                layer,
                0.0,
                0.0,
                0.0,
                parent,
                parent[OP_ID] if parent is not None else None,
                threading.get_ident(),
                None,
            ]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(args, kwargs, result)
                return result
            finally:
                span[END] = now = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_TIME] += now - span[START]
                spans.append(span)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- queries ------------------------------------------------------------------------
    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer, over spans that belong to a timed op."""
        table: Dict[str, float] = {}
        for s in self.spans:
            if s[OP_ID] is None or s[LAYER] == ROOT_LAYER:
                continue
            table[s[LAYER]] = table.get(s[LAYER], 0.0) + 1e3 * (
                s[END] - s[START] - s[CHILD_TIME]
            )
        return table

    def coverage(self) -> float:
        """Share of the op spans' time that layer spans account for.

        Self times telescope: the layer self-times under one op sum to the
        time its direct children cover, so the ratio needs only the roots.
        """
        roots = [s for s in self.spans if s[LAYER] == ROOT_LAYER]
        total = sum(s[END] - s[START] for s in roots)
        if total <= 0.0:
            return 0.0
        return sum(s[CHILD_TIME] for s in roots) / total

    def save_chrome_trace(self, path: str, max_spans: int = 20000) -> None:
        """Write the first ``max_spans`` spans as Chrome-trace JSON."""
        spans = sorted(self.spans, key=lambda s: s[START])[:max_spans]
        origin = spans[0][START] if spans else 0.0
        events = [
            {
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": round(1e6 * (s[START] - origin), 3),
                "dur": round(1e6 * (s[END] - s[START]), 3),
                "pid": 1,
                "tid": s[TID],
                "args": {"op": s[OP_ID], "parent": s[PARENT][NAME] if s[PARENT] else None},
            }
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _Patcher:
    """Set attributes now, put back exactly what was there later."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        own = vars(obj).get(attr, self._MISSING) if hasattr(obj, "__dict__") else getattr(obj, attr)
        self._undo.append((obj, attr, own))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, previous in reversed(self._undo):
            if previous is self._MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._undo.clear()


class _Spy:
    """Forwarding stand-in that records one span per public method call."""

    def __init__(
        self,
        target: Any,
        rec: Recorder,
        layer: str,
        prefix: str,
        notes: Optional[Dict[str, Callable[[tuple, dict, Any], Any]]] = None,
    ) -> None:
        self.__dict__.update(
            _target=target, _rec=rec, _layer=layer, _prefix=prefix, _notes=notes or {}
        )

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        wrapped = self._rec.wrap(
            value, f"{self._prefix}.{name}", self._layer, self._notes.get(name)
        )
        self.__dict__[name] = wrapped
        return wrapped

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


class _WireProxy:
    """``repro.net.wire`` as ``repro.net.rpc`` sees it, with timed encode/decode.

    Only the outermost call is a span: the module's own recursion resolves
    ``encode``/``decode`` in its globals, which stay untouched.
    """

    def __init__(self, module: Any, rec: Recorder) -> None:
        self._module = module
        self.encode = rec.wrap(module.encode, "wire.encode", "net.wire")
        self.decode = rec.wrap(module.decode, "wire.decode", "net.wire")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _len_of_result(_args: tuple, _kwargs: dict, result: Any) -> int:
    return len(result)


def _len_of_first_arg(args: tuple, kwargs: dict, _result: Any) -> int:
    items = args[0] if args else next(iter(kwargs.values()))
    return len(items) if hasattr(items, "__len__") else 0


def install(rec: Recorder, deployment: Any, clients: Iterable[Any]) -> Callable[[], None]:
    """Wrap every layer boundary reachable from outside; returns ``uninstall``."""
    from repro.core.metadata.segment_tree import SegmentTreeBuilder, SegmentTreeReader

    patch = _Patcher()

    for client in clients:
        patch.set(client, "submit_ops", rec.wrap(client.submit_ops, "submit_ops", "core.client"))
        transport = client.transport
        for method in ("transfer", "control", "control_many_timed"):
            patch.set(
                transport,
                method,
                rec.wrap(getattr(transport, method), f"transport.{method}", "core.transport"),
            )

    patch.set(
        deployment,
        "version_manager",
        _Spy(
            deployment.version_manager,
            rec,
            "core.version_coordinator",
            "version",
            {"get_history": _len_of_result},
        ),
    )
    patch.set(
        deployment,
        "provider_manager",
        _Spy(deployment.provider_manager, rec, "core.provider_manager", "pmgr"),
    )

    store = deployment.metadata_store
    for method, note in (
        ("get_many", _len_of_first_arg),
        ("put_many", _len_of_first_arg),
        ("get", None),
        ("put", None),
        ("probe_exists", None),
    ):
        patch.set(store, method, rec.wrap(getattr(store, method), f"dht.{method}", "dht", note))

    patch.set(
        SegmentTreeBuilder,
        "build",
        rec.wrap(SegmentTreeBuilder.build, "metadata.build", "core.metadata"),
    )
    patch.set(
        SegmentTreeReader,
        "lookup",
        rec.wrap(SegmentTreeReader.lookup, "metadata.lookup", "core.metadata"),
    )

    pool = getattr(deployment, "provider_pool", None)
    if pool is not None:
        patch.set(
            pool, "write_chunk", rec.wrap(pool.write_chunk, "provider.put", "core.data_provider")
        )
        patch.set(
            pool, "read_chunk", rec.wrap(pool.read_chunk, "provider.get", "core.data_provider")
        )

    if hasattr(deployment, "provider_rpcs"):  # networked: the client side of the wire
        from repro.net import frames as frames_module
        from repro.net import rpc as rpc_module

        patch.set(rpc_module, "wire", _WireProxy(rpc_module.wire, rec))

        timed_encode_frame = rec.wrap(rpc_module.encode_frame, "frames.encode", "net.frames")

        def encode_frame(message, codec="json"):
            frame = timed_encode_frame(message, codec=codec)
            rec.tx_bytes += len(frame)
            return frame

        patch.set(rpc_module, "encode_frame", encode_frame)
        patch.set(
            rpc_module.RpcClient,
            "submit",
            rec.wrap(rpc_module.RpcClient.submit, "rpc.submit", "net.rpc.submit"),
        )
        patch.set(
            rpc_module.RpcFuture,
            "result",
            rec.wrap(rpc_module.RpcFuture.result, "rpc.wait", "net.rpc.wait"),
        )

        original_feed = frames_module.FrameDecoder.feed

        def feed(self, data):
            rec.rx_bytes += len(data)
            return original_feed(self, data)

        patch.set(frames_module.FrameDecoder, "feed", feed)

    return patch.restore
