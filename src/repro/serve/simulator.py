"""The discrete-event serving simulator and its event loop.

:class:`EventLoop` is the one dispatch loop of the serving and cluster
tiers.  Its heap holds request arrivals and timer wakeups, ordered by
``(time, insertion sequence)``.  After every event the simulator drains
its scheduler: a :class:`~repro.serve.scheduler.Shed` is recorded, and
a :class:`~repro.serve.scheduler.Start` runs through
:meth:`~repro.serve.fleet.Fleet.execute_batch`, which advances the
device's clocks at once (service times are deterministic, so the
finish instant is known at dispatch) and wakes the loop at that
instant.  Other wakeups come from a batching scheduler's partial-batch
flush (:meth:`~repro.serve.scheduler.Scheduler.next_wakeup_s`) and, in
the cluster tier, from autoscaler cold starts.
:class:`ServingSimulator` drives the loop over one fleet;
:class:`~repro.cluster.simulator.ClusterSimulator` over several pools.

Determinism: events are ordered by ``(time, insertion sequence)``, the
fleet's executor is deterministic, and workloads are seeded -- so one
seed yields one, reproducible, serving history.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .fleet import Completion, Fleet
from .scheduler import Scheduler, Shed
from .workload import Request


@dataclasses.dataclass(frozen=True)
class ShedRecord:
    """One request dropped by admission control."""

    request: Request
    shed_s: float
    reason: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly record."""
        return {
            "request_id": self.request.request_id,
            "model": self.request.model,
            "arrival_s": self.request.arrival_s,
            "slo_s": self.request.slo_s,
            "shed_s": self.shed_s,
            "reason": self.reason,
        }


@dataclasses.dataclass
class ServingResult:
    """Everything one simulation produced.

    Attributes:
        scheduler: name of the policy that ran.
        completions: served requests, in dispatch order.
        sheds: requests dropped by admission control.
        unserved: requests still pending when the trace drained
            (possible only with admission control disabled).
        makespan_s: time of the last completion (or last arrival).
        fleet: the fleet in its final state (clocks, counters, plan
            cache).
    """

    scheduler: str
    completions: List[Completion]
    sheds: List[ShedRecord]
    unserved: List[Request]
    makespan_s: float
    fleet: Fleet

    @property
    def num_offered(self) -> int:
        """Total requests submitted."""
        return (len(self.completions) + len(self.sheds)
                + len(self.unserved))


class EventLoop:
    """The event heap and scheduler drain of one trace.

    Iterating yields ``(now, arrived)`` per event; ``arrived`` is None
    for a wakeup.  Completions and sheds accumulate on the loop.
    """

    def __init__(self, requests: Sequence[Request]) -> None:
        self._events: List[Tuple[float, int, Optional[Request]]] = []
        self._sequence = 0
        self._woken: Set[float] = set()
        self._last_arrival = max((r.arrival_s for r in requests),
                                 default=0.0)
        self.completions: List[Completion] = []
        self.sheds: List[ShedRecord] = []
        for request in sorted(requests,
                              key=lambda r: (r.arrival_s, r.request_id)):
            self._push(request.arrival_s, request)

    def _push(self, when: float, request: Optional[Request] = None
              ) -> None:
        heapq.heappush(self._events, (when, self._sequence, request))
        self._sequence += 1

    def __iter__(self) -> Iterator[Tuple[float, Optional[Request]]]:
        while self._events:
            now, _, arrived = heapq.heappop(self._events)
            yield now, arrived

    def wake_at(self, when: float) -> None:
        """Poll again at ``when`` (once per instant)."""
        if when not in self._woken:
            self._woken.add(when)
            self._push(when)

    def wake_for(self, scheduler: Scheduler, fleet: Fleet,
                 pending: List[Request], now: float) -> None:
        """Wake at the scheduler's next timer instant, if future."""
        wakeup = scheduler.next_wakeup_s(pending, fleet, now)
        if wakeup is not None and wakeup > now:
            self.wake_at(wakeup)

    def shed(self, request: Request, now: float, reason: str) -> None:
        """Record a dropped request."""
        self.sheds.append(ShedRecord(request=request, shed_s=now,
                                     reason=reason))

    def drain(self, scheduler: Scheduler, fleet: Fleet,
              pending: List[Request], now: float) -> int:
        """Apply ``scheduler``'s actions at ``now`` until it has none;
        returns how many requests were started."""
        started = 0
        while True:
            action = scheduler.next_action(pending, fleet, now)
            if action is None:
                return started
            if isinstance(action, Shed):
                pending.remove(action.request)
                self.shed(action.request, now, action.reason)
                continue
            for request in action.requests:
                pending.remove(request)
            batch = fleet.execute_batch(
                action.requests, fleet.device(action.device_id),
                action.mechanism, now)
            self.completions.extend(batch)
            self._push(batch[0].finish_s)
            started += len(batch)

    def makespan_s(self) -> float:
        """Time of the last completion (or last arrival)."""
        return max([self._last_arrival]
                   + [c.finish_s for c in self.completions])


class ServingSimulator:
    """Runs request traces against one fleet under one scheduler."""

    def __init__(self, fleet: Fleet, scheduler: Scheduler) -> None:
        self.fleet = fleet
        self.scheduler = scheduler

    def run(self, requests: Sequence[Request]) -> ServingResult:
        """Simulate one trace to completion."""
        loop = EventLoop(requests)
        pending: List[Request] = []
        for now, arrived in loop:
            if arrived is not None:
                pending.append(arrived)
            loop.drain(self.scheduler, self.fleet, pending, now)
            loop.wake_for(self.scheduler, self.fleet, pending, now)
        return ServingResult(scheduler=self.scheduler.name,
                             completions=loop.completions,
                             sheds=loop.sheds, unserved=list(pending),
                             makespan_s=loop.makespan_s(),
                             fleet=self.fleet)
