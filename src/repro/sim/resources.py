"""Contended resources for the discrete-event simulator.

Two primitives cover everything the BlobSeer protocols need:

* :class:`Resource` — a counting semaphore with FIFO queueing.  NICs,
  metadata providers and the version manager are modelled as resources;
  queueing at a resource is what produces contention (and therefore the
  throughput shapes the experiments measure).
* :class:`ServiceStation` — a convenience wrapper around a resource that
  serves fixed-duration jobs and keeps utilisation statistics (busy time,
  jobs served, bytes served), which the benchmark reports use to
  explain *where* the bottleneck is.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from .engine import Environment, Event


class Resource:
    """Counting semaphore with FIFO queueing (SimPy-style ``request``/``release``)."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that triggers once a slot is granted."""
        grant = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiting.append(grant)
        return grant

    def release(self) -> None:
        """Release a previously granted slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release without a matching request")
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._in_use -= 1

    def acquire(self) -> Generator:
        """Generator helper: ``yield from resource.acquire()`` waits for a slot."""
        grant = self.request()
        yield grant


class ServiceStation:
    """A resource that serves jobs of known duration and records utilisation."""

    def __init__(self, env: Environment, name: str, capacity: int = 1) -> None:
        self.env = env
        self.name = name
        self.resource = Resource(env, capacity=capacity)
        self.busy_time = 0.0
        self.jobs_served = 0
        self.bytes_served = 0

    def serve(self, duration: float, nbytes: int = 0) -> Generator:
        """Occupy one slot for ``duration`` simulated seconds.

        Usage inside a process::

            yield from station.serve(0.001)
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        grant = self.resource.request()
        yield grant
        try:
            yield self.env.timeout(duration)
        finally:
            self.resource.release()
        self.busy_time += duration
        self.jobs_served += 1
        self.bytes_served += nbytes

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of (capacity × elapsed time) this station was busy."""
        horizon = elapsed if elapsed is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.resource.capacity)
