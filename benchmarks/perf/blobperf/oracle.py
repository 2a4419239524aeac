"""Byte-level model of what every read must return.

Every payload the benchmark writes is a run of *units* (the workload's write
granularity: 64 KiB, or 1 KiB in the commit storm), each filled with its own
8-byte tag — 4 bytes derived from the seed, 4 bytes a serial number unique to
that unit in the run.  A blob's model is then just a list of serials, one per
unit, and snapshot ``v`` is the fold of writes ``1..v`` in version order, as
the paper's contract says.  Because each unit carries one writer's serial, a
read that mixes two writes inside a unit (a torn read) cannot pass.

Writes are recorded with the version and offset the system *returned*
(``OpResult.version`` / ``.offset``), so two threads appending to one blob are
folded in the order the version coordinator chose, not in thread order.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

_TAG = struct.Struct(">II")


class Oracle:
    def __init__(self, seed: int, unit: int, keep_versions: bool = False) -> None:
        if unit % _TAG.size:
            raise ValueError("unit must be a multiple of the 8-byte tag")
        self.unit = unit
        self._salt = (0x9E3779B1 * (seed + 1)) & 0xFFFFFFFF
        self._next_serial = 1
        self._keep_versions = keep_versions
        #: blob -> version -> (first unit index, serials), until folded.
        self._pending: Dict[int, Dict[int, Tuple[int, Sequence[int]]]] = {}
        #: blob -> serial per unit at the latest folded version.
        self._units: Dict[int, List[int]] = {}
        #: blob -> number of versions folded so far.
        self._folded: Dict[int, int] = {}
        #: blob -> per-version unit lists (index = version), when kept.
        self._snapshots: Dict[int, List[List[int]]] = {}
        #: blob -> unit index -> serials ever written there (frontier reads).
        self._candidates: Dict[int, Dict[int, Set[int]]] = {}
        self.checked = 0
        #: Bytes of every write acknowledged so far.
        self.bytes_written = 0
        #: Wrong reads, wrong final states and broken version orders found.
        self.failures = 0
        self.errors: List[str] = []

    # -- payloads -------------------------------------------------------------------
    def _unit_bytes(self, serial: int) -> bytes:
        return _TAG.pack(self._salt, serial) * (self.unit // _TAG.size)

    def payload(self, units: int) -> Tuple[bytes, List[int]]:
        """A fresh payload of ``units`` units and the serials it carries."""
        serials = list(range(self._next_serial, self._next_serial + units))
        self._next_serial += units
        return b"".join(self._unit_bytes(s) for s in serials), serials

    # -- the write history ----------------------------------------------------------
    def record_write(
        self, blob_id: int, version: Optional[int], offset: Optional[int], serials: Sequence[int]
    ) -> None:
        """One acknowledged write/append, as the system reported it."""
        if version is None or offset is None or offset % self.unit:
            self._fail(f"blob {blob_id}: write acknowledged without a usable version/offset")
            return
        pending = self._pending.setdefault(blob_id, {})
        if version in pending or version <= self._folded.get(blob_id, 0):
            self._fail(f"blob {blob_id}: version {version} assigned twice")
            return
        first = offset // self.unit
        pending[version] = (first, serials)
        self.bytes_written += len(serials) * self.unit
        spots = self._candidates.setdefault(blob_id, {})
        for index, serial in enumerate(serials, start=first):
            spots.setdefault(index, set()).add(serial)

    def fold(self, blob_id: int) -> List[int]:
        """Apply recorded writes in version order; versions must be gap-free."""
        units = self._units.setdefault(blob_id, [])
        pending = self._pending.get(blob_id, {})
        snapshots = self._snapshots.setdefault(blob_id, [[]]) if self._keep_versions else None
        version = self._folded.get(blob_id, 0)
        while version + 1 in pending:
            version += 1
            first, serials = pending.pop(version)
            if first > len(units):
                self._fail(f"blob {blob_id}: v{version} starts past the end of v{version - 1}")
                first = len(units)
            units[first : first + len(serials)] = serials
            if snapshots is not None:
                snapshots.append(list(units))
        self._folded[blob_id] = version
        if pending:
            self._fail(
                f"blob {blob_id}: versions {sorted(pending)} acknowledged but "
                f"v{version + 1} never was (lost or duplicated commit)"
            )
        return units

    def versions(self, blob_id: int) -> int:
        return self._folded.get(blob_id, 0)

    def size(self, blob_id: int, version: Optional[int] = None) -> int:
        """Bytes in the folded model (at ``version`` when versions are kept)."""
        if version is None:
            return len(self._units.get(blob_id, ())) * self.unit
        return len(self._snapshots[blob_id][version]) * self.unit

    # -- checks ----------------------------------------------------------------------
    def check_read(
        self, blob_id: int, offset: int, size: int, data: Optional[bytes], version: Optional[int] = None
    ) -> bool:
        """A read of the folded model: latest, or ``version`` when kept."""
        self.checked += 1
        units = self._units.get(blob_id, []) if version is None else self._snapshots[blob_id][version]
        first = offset // self.unit
        want = units[first : first + size // self.unit]
        expected = b"".join(self._unit_bytes(s) for s in want)
        if data != expected:
            return self._fail(
                f"blob {blob_id} v{version}: read at {offset}+{size} returned "
                f"{'nothing' if data is None else f'{len(data)} wrong bytes'}"
            )
        return True

    def check_frontier_read(self, blob_id: int, offset: int, size: int, data: Optional[bytes]) -> bool:
        """A latest-version read taken while writers were running.

        The version it saw is unknown, so each unit must be *some* write that
        targeted that unit, whole — one tag, repeated, never a mixture.
        """
        self.checked += 1
        if data is None or len(data) != size:
            return self._fail(f"blob {blob_id}: frontier read at {offset}+{size} came back short")
        spots = self._candidates.get(blob_id, {})
        first = offset // self.unit
        for index in range(size // self.unit):
            piece = data[index * self.unit : (index + 1) * self.unit]
            salt, serial = _TAG.unpack_from(piece)
            if salt != self._salt or serial not in spots.get(first + index, ()):
                return self._fail(
                    f"blob {blob_id}: unit {first + index} holds serial {serial}, never written there"
                )
            if piece != self._unit_bytes(serial):
                return self._fail(f"blob {blob_id}: torn read in unit {first + index}")
        return True

    def check_final(self, blob_id: int, data: Optional[bytes], latest_version: int) -> bool:
        """Final blob content, size and published version count."""
        units = self.fold(blob_id)
        ok = self.check_read(blob_id, 0, len(units) * self.unit, data)
        if latest_version != self._folded.get(blob_id, 0):
            ok = self._fail(
                f"blob {blob_id}: {latest_version} versions published, "
                f"{self._folded.get(blob_id, 0)} writes acknowledged"
            )
        return ok

    def _fail(self, message: str) -> bool:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = "... and more"
        self.failures += 1
        return False
